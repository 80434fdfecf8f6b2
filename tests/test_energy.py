"""Power-model unit tests: frozen closed-form values plus model properties."""

import io
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burststream import (BufferExceededError, BurstScenario, DomainError,
                         RadioProfile, Technology, avg_power,
                         avg_power_fitting, avg_power_over_intervals,
                         avg_power_overflow, delta_power_rx, idle_time,
                         optimal_interval, power_rx, power_surface,
                         surface_to_csv, tail_energy, tail_energy_for_idle)
from burststream.energy import SURFACE_CSV_HEADER, write_surface_csv
from burststream.profiles import (get_profile, list_profiles,
                                  lte_reference_nodrx, wifi_reference)

WIFI = wifi_reference()
LTE = lte_reference_nodrx()


class TestPowerRx:
    def test_zero_rate_collapses_to_tail(self):
        p = RadioProfile(Technology.WIFI, t1_s=0.2, p1_mw=435.0,
                         p_tail_mw=435.0, a_coeff=1.0, k_coeff=5e-8)
        assert power_rx(0.0, p) == 435.0

    def test_wifi_fit_at_bulk_rate(self):
        # coefficients are fit so the increase over tail is 760 mW at 20 Mbit/s
        assert power_rx(20e6, WIFI) == pytest.approx(1195.0, rel=1e-9)
        assert delta_power_rx(20e6, WIFI) == pytest.approx(760.0, rel=1e-9)

    def test_lte_fit_at_bulk_rate(self):
        assert power_rx(16e6, LTE) == pytest.approx(2736.0, rel=1e-9)
        assert delta_power_rx(1e3, LTE) == pytest.approx(1520.0, rel=1e-9)

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            power_rx(-1.0, WIFI)

    @given(rate=st.floats(0, 1e9), a=st.floats(1.0, 5.0),
           k=st.floats(0, 1e-6), tail=st.floats(1.0, 5000.0))
    def test_never_below_tail_power(self, rate, a, k, tail):
        p = RadioProfile(Technology.WIFI, t1_s=0.2, p1_mw=tail,
                         p_tail_mw=tail, a_coeff=a, k_coeff=k)
        assert power_rx(rate, p) >= p.p_tail_mw


class TestIdleTime:
    def test_no_spare_bandwidth(self):
        assert idle_time(BurstScenario(1e6, 1e6, 1e9, 5.0)) == 0.0

    def test_lte_values(self):
        assert idle_time(BurstScenario(5e5, 16e6, 1e9, 5.0)) == \
            pytest.approx(4.84375)

    def test_wifi_values(self):
        assert idle_time(BurstScenario(5e5, 20e6, 1e9, 10.0)) == \
            pytest.approx(9.75)


class TestTailEnergy:
    def test_zero_idle_zero_tail(self):
        assert tail_energy_for_idle(WIFI, 0.0) == 0.0

    def test_wifi_full_timer(self):
        # idle time 9.75 s well past the 0.2 s PSM timer
        assert tail_energy_for_idle(WIFI, 9.75) == pytest.approx(87.0)

    def test_lte_inside_timer(self):
        assert tail_energy_for_idle(LTE, 4.84375) == pytest.approx(5890.0)

    def test_overflow_scenario_rejected(self):
        sc = BurstScenario(1e6, 16e6, 1000, 10.0)  # 10 Mbit into 8 kbit
        with pytest.raises(BufferExceededError):
            tail_energy(sc, LTE)

    @given(t_idle=st.floats(0, 30), t1=st.floats(0.01, 10),
           t2=st.floats(0, 10), p1=st.floats(100, 2000),
           frac=st.floats(0, 1))
    @settings(max_examples=200)
    def test_continuous_and_monotone_in_idle_time(self, t_idle, t1, t2, p1,
                                                  frac):
        p = RadioProfile(Technology.HSPA, t1_s=t1, t2_s=t2, p1_mw=p1,
                         p2_mw=frac * p1, p_tail_mw=p1)
        eps = 1e-6
        for boundary in (t1, t1 + t2):
            below = tail_energy_for_idle(p, max(boundary - eps, 0.0))
            above = tail_energy_for_idle(p, boundary + eps)
            assert above - below < p1 * 3 * eps + 1e-9
        assert tail_energy_for_idle(p, t_idle) <= \
            tail_energy_for_idle(p, t_idle + 1.0) + 1e-12


class TestAveragePower:
    def test_wifi_fitting_value(self):
        sc = BurstScenario(5e5, 20e6, 1e9, 10.0)
        assert avg_power_fitting(sc, WIFI) == pytest.approx(27.7, rel=1e-9)

    def test_lte_fitting_value(self):
        sc = BurstScenario(5e5, 16e6, 1e9, 5.0)
        assert avg_power_fitting(sc, LTE) == pytest.approx(1225.5, rel=1e-9)

    def test_fitting_plateau_when_idle_below_timer(self):
        # while the idle gap stays inside the inactivity timer the average
        # power does not depend on T at all
        a = avg_power_fitting(BurstScenario(5e5, 16e6, 1e9, 3.0), LTE)
        b = avg_power_fitting(BurstScenario(5e5, 16e6, 1e9, 9.0), LTE)
        assert a == pytest.approx(b, rel=1e-12)

    def test_overflow_dominated_by_drain_term(self):
        boundary = avg_power_fitting(BurstScenario(5e5, 16e6, 1e7, 160.0),
                                     LTE)
        doubled = avg_power_overflow(BurstScenario(5e5, 16e6, 1e7, 320.0),
                                     LTE)
        assert doubled == pytest.approx(23.75 + 760.0 + 38.0, rel=1e-9)
        assert doubled > boundary

    def test_overflow_rejects_fitting_scenario(self):
        with pytest.raises(BufferExceededError):
            avg_power_overflow(BurstScenario(5e5, 16e6, 1e9, 1.0), LTE)

    @pytest.mark.parametrize("profile", [WIFI, LTE], ids=["wifi", "lte"])
    def test_branch_continuity_at_boundary(self, profile):
        r_s, b = 5e5, 1e7
        t_star = b * 8 / r_s
        sc = BurstScenario(r_s, profile.r_btc_bps, b, t_star)
        fit = avg_power_fitting(sc, profile)
        over = avg_power_overflow(sc, profile)
        assert over == pytest.approx(fit, rel=1e-9)

    def test_dispatch_on_either_side_of_boundary(self):
        r_s, b = 5e5, 1e7
        t_star = b * 8 / r_s
        just_fit = BurstScenario(r_s, 16e6, b + 1, t_star)
        just_over = BurstScenario(r_s, 16e6, b - 1, t_star)
        assert avg_power(just_fit, LTE) == avg_power_fitting(just_fit, LTE)
        assert avg_power(just_over, LTE) == avg_power_overflow(just_over, LTE)

    def test_overflow_nondecreasing_sweep(self):
        b = 1e7
        t0 = b * 8 / 5e5
        values = [avg_power(BurstScenario(5e5, 16e6, b, t), LTE)
                  for t in [t0 * f for f in (1.001, 1.5, 2.0, 3.0, 4.0)]]
        assert all(b >= a * (1 - 1e-9) for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("profile", [WIFI, LTE], ids=["wifi", "lte"])
    def test_lower_rate_is_cheaper(self, profile):
        # equal interval and buffer, smaller encoding rate -> less power
        for t in (5.0, 20.0, 60.0):
            low = avg_power(BurstScenario(128e3, profile.r_btc_bps, 1e7, t),
                            profile)
            high = avg_power(BurstScenario(2e6, profile.r_btc_bps, 1e7, t),
                             profile)
            assert low < high


@st.composite
def fitting_grids(draw):
    p1 = draw(st.floats(50, 3000))
    profile = RadioProfile(
        Technology.HSPA,
        t1_s=draw(st.floats(0.05, 12)), t2_s=draw(st.floats(0, 12)),
        p1_mw=p1, p2_mw=p1 * draw(st.floats(0, 1)),
        p_tail_mw=draw(st.floats(50, 3000)),
        a_coeff=draw(st.floats(1, 4)), k_coeff=draw(st.floats(0, 1e-7)))
    r_btc = draw(st.floats(2e6, 50e6))
    r_s = r_btc * draw(st.floats(0.001, 1.0))
    return profile, r_s, r_btc


class TestMonotonicity:
    @given(fitting_grids())
    @settings(max_examples=150)
    def test_fitting_regime_nonincreasing_in_t(self, setup):
        profile, r_s, r_btc = setup
        big_buffer = 1e12
        ts = [1, 2, 5, 10, 20, 40, 80, 160]
        vals = [avg_power_fitting(BurstScenario(r_s, r_btc, big_buffer, t),
                                  profile) for t in ts]
        for a, b in zip(vals, vals[1:]):
            assert b <= a * (1 + 1e-9) + 1e-12

    @given(fitting_grids(), st.floats(1e5, 1e8))
    @settings(max_examples=150)
    def test_overflow_regime_nondecreasing_when_slope_covers_tail(
            self, setup, buffer_bytes):
        # the drain term's power-per-bit must be at least the tail's for the
        # overflow curve to be non-decreasing; a_coeff >= 2 guarantees it in
        # the linear model
        profile, r_s, r_btc = setup
        if r_s >= r_btc * 0.99:
            return
        lhs = (delta_power_rx(r_s, profile) - profile.p_tail_mw) / r_s
        rhs = (delta_power_rx(r_btc, profile) - profile.p_tail_mw) / r_btc
        if lhs < rhs:
            return
        t0 = buffer_bytes * 8 / r_s
        vals = [avg_power_overflow(
            BurstScenario(r_s, r_btc, buffer_bytes, t0 * f), profile)
            for f in (1.000001, 1.3, 1.9, 2.8, 4.0)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a * (1 - 1e-9) - 1e-12

    @pytest.mark.parametrize("profile", [WIFI, LTE], ids=["wifi", "lte"])
    def test_global_minimum_at_buffer_match(self, profile):
        r_s, b = 5e5, 4e6
        t_star = b * 8 / r_s  # 64 s
        ts = [float(t) for t in range(1, 161)]
        vals = [avg_power(BurstScenario(r_s, profile.r_btc_bps, b, t),
                          profile) for t in ts]
        best = min(vals)
        near_boundary = [v for t, v in zip(ts, vals)
                         if abs(t - t_star) <= 1.0]
        assert min(near_boundary) <= best * (1 + 1e-9)


class TestOptimalInterval:
    def test_buffer_matched(self):
        assert optimal_interval(LTE, 5e5, 16e6, 1e7) == pytest.approx(160.0)

    def test_capped_by_t_max(self):
        assert optimal_interval(LTE, 5e5, 16e6, 1e7, t_max_s=39.0) == 39.0

    def test_degenerate_buffer(self):
        assert optimal_interval(LTE, 5e5, 16e6, 0.0) == 0.0


class TestPowerSurface:
    def test_single_point_matches_avg_power(self):
        rows = power_surface(LTE, [5e5], [5.0], [1e9])
        assert len(rows) == 1
        sc = BurstScenario(5e5, 16e6, 1e9, 5.0)
        assert rows[0] == (5e5, 1e9, 5.0, avg_power(sc, LTE))

    def test_wifi_rows_nonincreasing_with_large_buffer(self):
        ts = [float(t) for t in range(1, 51)]
        rows = power_surface(WIFI, [5e5], ts, [1e9])
        powers = [r[3] for r in rows]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(powers, powers[1:]))

    def test_lte_plateau_in_rows(self):
        ts = [1.0, 3.0, 5.0, 7.0, 9.0]  # idle gap below the 10 s timer
        rows = power_surface(LTE, [5e5], ts, [1e9])
        powers = [r[3] for r in rows]
        spread = (max(powers) - min(powers)) / powers[0]
        assert spread < 1e-6

    def test_ordering_is_rs_major_then_b_then_t(self):
        rows = power_surface(LTE, [1e5, 2e5], [1.0, 2.0], [1e6, 2e6])
        key = [(r[0], r[1], r[2]) for r in rows]
        assert key == [(1e5, 1e6, 1.0), (1e5, 1e6, 2.0), (1e5, 2e6, 1.0),
                       (1e5, 2e6, 2.0), (2e5, 1e6, 1.0), (2e5, 1e6, 2.0),
                       (2e5, 2e6, 1.0), (2e5, 2e6, 2.0)]

    def test_csv_header(self):
        rows = power_surface(LTE, [5e5], [5.0], [1e9])
        csv = surface_to_csv(LTE, rows)
        assert csv.splitlines()[0] == \
            "technology,r_s_bps,buffer_bytes,interval_s,avg_power_mw"


class TestSurface:
    R_S = [500000, 2e6]
    B = [1e6, 20000000]
    T = [1.0, 2, 40.0]

    def product_rows(self):
        """The reference rows, built eagerly: one tuple per point from
        itertools.product and zip over the broadcast powers."""
        p = avg_power_over_intervals(
            LTE, np.asarray(self.R_S, dtype=float)[:, None, None],
            np.asarray(self.B, dtype=float)[:, None], self.T)
        return [(r_s, b, t, power) for (r_s, b, t), power in
                zip(itertools.product(self.R_S, self.B, self.T),
                    p.ravel().tolist())]

    def test_rows_equal_the_product_rows(self):
        surface = power_surface(LTE, self.R_S, self.T, self.B)
        rows = self.product_rows()
        assert len(surface) == len(rows) == 12
        assert list(surface) == rows
        assert [surface[k] for k in range(12)] == rows
        assert surface[0] == rows[0]
        assert surface[11] == surface[-1] == rows[-1]
        assert surface[-12] == rows[0]

    @pytest.mark.parametrize("k", [12, 13, -13, 10**9])
    def test_index_past_the_end(self, k):
        surface = power_surface(LTE, self.R_S, self.T, self.B)
        with pytest.raises(IndexError):
            surface[k]

    def test_axis_elements_pass_through(self):
        surface = power_surface(LTE, self.R_S, self.T, self.B)
        r_s, b, t, power = surface[0]
        assert type(r_s) is int and r_s == 500000
        assert type(b) is float and type(t) is float
        assert type(power) is float
        assert [type(surface[k][2]) for k in range(3)] == [float, int, float]
        assert all(type(row[3]) is float for row in surface)

    def test_powers_are_read_only(self):
        surface = power_surface(LTE, self.R_S, self.T, self.B)
        assert surface.power_mw.shape == (2, 2, 3)
        with pytest.raises(ValueError):
            surface.power_mw[0, 0, 0] = 0.0


# axis values across .10g's fixed and exponent forms (>= 1e10, <= 1e-5),
# ints among them
AXIS_VALUES = st.one_of(st.floats(1e-7, 1e-5), st.floats(1e-5, 1e10),
                        st.floats(1e10, 1e13), st.integers(1, 10**13))
AXES = st.lists(AXIS_VALUES, min_size=1, max_size=30)


class TestSurfaceCsv:
    @given(tech=st.sampled_from(Technology), r_s=AXES, t=AXES, b=AXES)
    @example(tech=Technology.LTE, r_s=[5e5], t=[1e-5, 2.5, 1e10],
             b=[1e6, 12345678901])
    @example(tech=Technology.HSPA, r_s=[64000, 1e10, 2e12], t=[40.0],
             b=[1e-6, 20000])
    @settings(max_examples=80, deadline=None)
    def test_equals_the_per_row_formatter(self, tech, r_s, t, b):
        profile = RadioProfile(tech, t1_s=10.0, p1_mw=1000.0,
                               p_tail_mw=1000.0, a_coeff=1.5,
                               k_coeff=1e-9, r_btc_bps=1e13)
        surface = power_surface(profile, r_s, t, b)
        line = "%s,%.10g,%.10g,%.10g,%.9g\n"
        reference = SURFACE_CSV_HEADER + "\n" + "".join(
            line % (tech.value, *row) for row in surface)
        assert surface_to_csv(profile, surface) == reference

    @given(tech=st.sampled_from(Technology), r_s=AXES, t=AXES, b=AXES)
    @settings(max_examples=40, deadline=None)
    def test_written_equals_joined_and_per_row(self, tech, r_s, t, b):
        profile = RadioProfile(tech, t1_s=10.0, p1_mw=1000.0,
                               p_tail_mw=1000.0, a_coeff=1.5,
                               k_coeff=1e-9, r_btc_bps=1e13)
        surface = power_surface(profile, r_s, t, b)
        line = "%s,%.10g,%.10g,%.10g,%.9g\n"
        reference = SURFACE_CSV_HEADER + "\n" + "".join(
            line % (tech.value, *row) for row in surface)
        sink = io.StringIO()
        write_surface_csv(sink, profile, surface)
        assert sink.getvalue() == surface_to_csv(profile, surface) \
            == reference

    def test_writes_the_header_then_one_block_per_encoding_rate(self):
        surface = power_surface(WIFI, [5e5, 1e6, 2e6], [1.0, 2.0],
                                [1e6, 2e6, 3e6])
        writes = []
        write_surface_csv(SimpleNamespace(write=writes.append), WIFI,
                          surface)
        assert writes[0] == SURFACE_CSV_HEADER + "\n"
        assert len(writes) == 1 + 3
        for r_s, block in zip(["500000", "1000000", "2000000"], writes[1:]):
            lines = block.split("\n")
            assert lines.pop() == ""
            assert len(lines) == 6
            assert all(ln.startswith(f"WIFI,{r_s},") for ln in lines)


class TestSurfaceCsvMemory:
    """Traced allocation peaks of the CSV writers on a fixed grid of 10^5
    points, against the CSV's length (ASCII, one byte per character): the
    joined string holds the blocks once more while it is built, the
    streamed writer one block at a time."""

    R_S = [5e5 * k for k in range(1, 11)]
    T = [0.5 * k for k in range(1, 101)]
    B = [1e5 * k for k in range(1, 101)]

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_joined_csv_peaks_below_two_and_a_half_times_its_length(self):
        surface = power_surface(WIFI, self.R_S, self.T, self.B)
        csv, peak = self.traced_peak(lambda: surface_to_csv(WIFI, surface))
        assert len(csv) > 3_000_000
        assert peak < 2.5 * len(csv)

    def test_streamed_csv_peaks_below_its_length(self):
        surface = power_surface(WIFI, self.R_S, self.T, self.B)
        sizes = []
        sink = SimpleNamespace(write=lambda text: sizes.append(len(text)))
        _, peak = self.traced_peak(
            lambda: write_surface_csv(sink, WIFI, surface))
        assert sum(sizes) > 3_000_000
        assert peak < sum(sizes)


@st.composite
def hspa_surfaces(draw):
    """A random two-timer profile (t2 > 0, p2 < p1) and a grid whose
    intervals straddle the buffer-matched interval B*8/r_s."""
    p1 = draw(st.floats(50, 3000))
    profile = RadioProfile(
        Technology.HSPA,
        t1_s=draw(st.floats(0.05, 12)), t2_s=draw(st.floats(0.05, 12)),
        p1_mw=p1, p2_mw=p1 * draw(st.floats(0, 0.99)),
        p_tail_mw=draw(st.floats(50, 3000)),
        a_coeff=draw(st.floats(1, 4)), k_coeff=draw(st.floats(0, 1e-7)),
        r_btc_bps=draw(st.floats(2e6, 50e6)))
    r_btc = profile.r_btc_bps
    r_s_list = draw(st.lists(st.floats(r_btc * 1e-3, r_btc), min_size=1,
                             max_size=3))
    b_list = draw(st.lists(st.floats(1e3, 1e8), min_size=1, max_size=3))
    t_star = b_list[0] * 8.0 / r_s_list[0]
    t_list = [t_star] + [t_star * f for f in draw(st.lists(
        st.floats(0.01, 100), min_size=1, max_size=6))]
    return profile, r_s_list, t_list, b_list


class TestPowerSurfaceKernel:
    @given(hspa_surfaces())
    @settings(max_examples=150)
    def test_rows_equal_scalar_avg_power_exactly(self, surface):
        profile, r_s_list, t_list, b_list = surface
        rows = power_surface(profile, r_s_list, t_list, b_list)
        assert len(rows) == len(r_s_list) * len(b_list) * len(t_list)
        for r_s, b, t, p in rows:
            sc = BurstScenario(r_s, profile.r_btc_bps, b, t)
            assert p == avg_power(sc, profile)

    @pytest.mark.parametrize("r_s, t, b", [
        ([5e5, 17e6], [1.0], [1e6]),     # r_s above r_btc
        ([5e5, 0.0], [1.0], [1e6]),      # r_s not positive
        ([5e5], [1.0], [1e6, 0.0]),      # B not positive
        ([5e5], [1.0], [1e6, -5.0]),
        ([5e5], [1.0, 0.0], [1e6]),      # T not positive
        ([5e5], [2.0, -1.0], [1e6]),
    ])
    def test_rejects_points_outside_the_domain(self, r_s, t, b):
        with pytest.raises(ValueError):
            power_surface(LTE, r_s, t, b)

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            power_surface(LTE, [], [1.0], [1e6])

    @pytest.mark.parametrize("value", [math.nan, math.inf],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("axis", ["r_s", "t", "b"])
    def test_rejects_non_finite_axis_values(self, axis, value):
        grid = {"r_s": [5e5], "t": [1.0], "b": [1e6]}
        grid[axis] = grid[axis] + [value]
        with pytest.raises(ValueError):
            power_surface(get_profile("wifi-ref"), grid["r_s"], grid["t"],
                          grid["b"])


class TestProfileInvariants:
    def test_a_coeff_below_one_rejected(self):
        with pytest.raises(ValueError):
            RadioProfile(Technology.WIFI, t1_s=0.2, a_coeff=0.5)

    def test_p2_above_p1_rejected(self):
        with pytest.raises(ValueError):
            RadioProfile(Technology.HSPA, t1_s=8, p1_mw=100, p2_mw=200)

    def test_drx_only_on_lte(self):
        from burststream import DrxConfig
        with pytest.raises(ValueError):
            RadioProfile(Technology.WIFI, t1_s=0.2,
                         drx=DrxConfig(750, 640, 20))

    def test_scenario_requires_spare_bandwidth(self):
        with pytest.raises(ValueError):
            BurstScenario(2e6, 1e6, 1e6, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["r_s_bps", "r_btc_bps",
                                       "buffer_b_bytes", "interval_t_s"])
    def test_scenario_rejects_non_finite_fields(self, field, value):
        fields = dict(r_s_bps=1e6, r_btc_bps=6e7, buffer_b_bytes=1e6,
                      interval_t_s=1.0)
        fields[field] = value
        with pytest.raises(ValueError):
            BurstScenario(**fields)


class TestVectorizedGrid:
    @pytest.mark.parametrize(
        "profile", [WIFI, LTE] + [get_profile(n) for n in list_profiles()],
        ids=["wifi", "lte"] + list_profiles())
    def test_matches_scalar_dispatch_everywhere(self, profile):
        ts = np.arange(1.0, 101.0)
        for r_s in (128e3, 500e3, 3000e3):
            for b in (1e6, 8e6, 30e6):
                grid = avg_power_over_intervals(profile, r_s, b, ts)
                scalar = [avg_power(
                    BurstScenario(r_s, profile.r_btc_bps, b, float(t)),
                    profile) for t in ts]
                assert grid.tolist() == scalar
