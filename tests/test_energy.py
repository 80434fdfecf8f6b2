"""Power-model unit tests: frozen closed-form values plus model properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burststream import (BufferExceededError, BurstScenario, DomainError,
                         RadioProfile, Technology, avg_power,
                         avg_power_fitting, avg_power_overflow,
                         delta_power_rx, idle_time, optimal_interval,
                         power_rx, power_surface, surface_to_csv,
                         tail_energy, tail_energy_for_idle)
from burststream.profiles import lte_reference_nodrx, wifi_reference

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


class TestVectorizedGrid:
    @pytest.mark.parametrize("profile", [WIFI, LTE], ids=["wifi", "lte"])
    def test_matches_scalar_dispatch_everywhere(self, profile):
        import numpy as np
        from burststream import avg_power_over_intervals
        ts = np.arange(1.0, 101.0)
        for r_s in (128e3, 500e3, 3000e3):
            for b in (1e6, 8e6, 30e6):
                grid = avg_power_over_intervals(profile, r_s, b, ts)
                scalar = [avg_power(
                    BurstScenario(r_s, profile.r_btc_bps, b, float(t)),
                    profile) for t in ts]
                assert grid == pytest.approx(scalar, rel=1e-12)
