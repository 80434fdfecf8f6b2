"""Radio state-machine tests: cascades, dormancy, DRX, energy, signaling."""

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
from oracles import reference_simulate, walk_state_trace
from strategies import examples

from burststream import (ActivityTrace, BurstScenario, RadioState,
                         SignalingConfigError, SignalingCostTable,
                         StateSegment, StateTrace, Technology, TraceError,
                         energy_of, get_profile, list_profiles, power_rx,
                         signaling_of, simulate, tail_energy,
                         tail_states_energy)
from burststream import radio
from burststream.energy import DrxConfig, FastDormancy, RadioProfile
from burststream.errors import FieldError

HSPA = get_profile("hspa-default")
HSPA_FD = get_profile("hspa-legacy-fd")
HSPA_NOPCH = get_profile("hspa-nopch")
LTE_NODRX = get_profile("lte-nodrx-default")
LTE_DRX = get_profile("lte-drx-default")
LTE_DRX20 = get_profile("lte-drx-longidle")
WIFI = get_profile("wifi-ref")


def periodic(period_s, t_bd_s, count, nbytes=1_000_000, start=0.0):
    return ActivityTrace.from_spans(
        [(start + k * period_s, start + k * period_s + t_bd_s, nbytes)
         for k in range(count)])


def states_of(trace):
    return [(s.state, round(s.start_s, 6), round(s.end_s, 6))
            for s in trace.segments]


class TestActivityTrace:
    def test_from_spans_and_spans_merge_alike(self):
        # touching within 1e-12 s joins, and the byte counts add up
        raw = [(4.0, 5.0, 10), (0.0, 1.0, 100), (1.0 + 5e-13, 2.0, 200),
               (6.0, 7.0, 5), (7.0, 8.0, 30)]
        tr = ActivityTrace.from_spans(raw)
        assert tr.spans() == [(0.0, 2.0, 300), (4.0, 5.0, 10),
                              (6.0, 8.0, 35)]
        assert ActivityTrace.from_spans(tr.spans()).spans() == tr.spans()

    def test_span_end_before_start_rejected(self):
        with pytest.raises(TraceError):
            ActivityTrace.from_spans([(0.0, 1.0, 10), (3.0, 2.0, 10)])

    @pytest.mark.parametrize("start,end", [
        (math.nan, 3.0), (2.0, math.nan), (2.0, math.inf),
        (-math.inf, 3.0)])
    def test_span_with_a_nan_or_infinite_bound_rejected(self, start, end):
        # a NaN bound compares false both ways, and an infinite one has no
        # end: neither may pass as a span
        with pytest.raises(TraceError):
            ActivityTrace.from_spans([(0.0, 1.0, 10), (start, end, 10)])

    def test_spans_whose_counts_sum_past_the_float_range_rejected(self):
        # each count is finite, but merged they were an infinite count,
        # which prices infinite energy
        with pytest.raises(TraceError):
            ActivityTrace.from_spans([(0.0, 1.0, 1e308), (1.0, 2.0, 1e308)])

    @pytest.mark.parametrize("nbytes", [None, math.nan, -1, math.inf])
    def test_span_without_a_finite_count_rejected(self, nbytes):
        with pytest.raises(TraceError):
            ActivityTrace.from_spans([(0.0, 1.0, 10), (2.0, 3.0, nbytes)])


class TestHspaStateMachine:
    def test_empty_trace_stays_idle(self):
        st = simulate(ActivityTrace.from_spans([]), HSPA, horizon_s=60.0)
        assert states_of(st) == [(RadioState.IDLE, 0.0, 60.0)]
        ledger = signaling_of(st, SignalingCostTable.default())
        assert ledger.transition_total == 0
        assert ledger.total_messages == 0

    def test_single_burst_cascade(self):
        st = simulate(periodic(60, 1.0, 1), HSPA, horizon_s=60.0)
        assert states_of(st) == [
            (RadioState.DCH, 0.0, 1.0),     # receiving
            (RadioState.DCH, 1.0, 9.0),     # T1 = 8 s
            (RadioState.FACH, 9.0, 12.0),   # T2 = 3 s
            (RadioState.PCH, 12.0, 60.0),   # T3 = 29 min, not reached
        ]
        assert st.segments[0].active and not st.segments[1].active

    def test_pch_disabled_goes_idle(self):
        st = simulate(periodic(60, 1.0, 1), HSPA_NOPCH, horizon_s=60.0)
        assert states_of(st)[-1] == (RadioState.IDLE, 19.0, 60.0)  # 1+8+10

    def test_legacy_fd_releases_early(self):
        # 14 s bursts of 0.5 s, dormancy 6.5 s after activity: the radio
        # sits in IDLE for 14 - 0.5 - 6.5 = 7 s of every period
        st = simulate(periodic(14, 0.5, 5), HSPA_FD, horizon_s=70.0)
        idle = [s for s in st.segments if s.state is RadioState.IDLE]
        assert len(idle) == 5
        for seg in idle:
            assert seg.duration_s == pytest.approx(7.0)

    def test_rel8_fd_demotes_to_pch(self):
        p = RadioProfile(Technology.HSPA, t1_s=8, t2_s=3, t3_s=1740,
                         p1_mw=800, p2_mw=460, p_tail_mw=600,
                         fast_dormancy=FastDormancy.REL8,
                         legacy_fd_timeout_s=2.0)
        st = simulate(periodic(60, 1.0, 1), p, horizon_s=30.0)
        assert states_of(st) == [
            (RadioState.DCH, 0.0, 1.0),
            (RadioState.DCH, 1.0, 3.0),
            (RadioState.PCH, 3.0, 30.0),
        ]

    def test_activity_wins_timer_tie(self):
        # second burst lands exactly when T1 would fire
        tr = ActivityTrace.from_spans([(0.0, 1.0, 1000), (9.0, 10.0, 1000)])
        st = simulate(tr, HSPA, horizon_s=12.0)
        assert (RadioState.FACH, 9.0, 9.0) not in states_of(st)
        assert states_of(st)[2] == (RadioState.DCH, 9.0, 10.0)

    def test_t3_expiry_releases_pch(self):
        p = RadioProfile(Technology.HSPA, t1_s=8, t2_s=3, t3_s=20.0,
                         p1_mw=800, p2_mw=460, p_tail_mw=600)
        st = simulate(periodic(60, 1.0, 1), p, horizon_s=60.0)
        assert states_of(st)[-2:] == [(RadioState.PCH, 12.0, 32.0),
                                      (RadioState.IDLE, 32.0, 60.0)]

    def test_repromotion_from_pch(self):
        st = simulate(periodic(39, 1.0, 2), HSPA, horizon_s=78.0)
        seq = [s.state for s in st.segments]
        assert seq == [RadioState.DCH, RadioState.DCH, RadioState.FACH,
                       RadioState.PCH, RadioState.DCH, RadioState.DCH,
                       RadioState.FACH, RadioState.PCH]


class TestLteStateMachine:
    def test_nodrx_connected_then_idle(self):
        st = simulate(periodic(30, 1.0, 1), LTE_NODRX, horizon_s=30.0)
        assert states_of(st) == [
            (RadioState.CONNECTED, 0.0, 1.0),
            (RadioState.CONNECTED, 1.0, 11.0),  # 10 s inactivity
            (RadioState.IDLE, 11.0, 30.0),
        ]

    def test_drx_cycling_between_bursts(self):
        st = simulate(periodic(18, 1.0, 2), LTE_DRX, horizon_s=36.0)
        kinds = {s.state for s in st.segments}
        assert RadioState.CONN_DRX_ON in kinds
        assert RadioState.CONN_DRX_OFF in kinds
        assert RadioState.IDLE in kinds  # 10 s timer < 18 s period
        on_time = st.time_in(RadioState.CONN_DRX_ON)
        # cycling covers ~9.25 s per tail at a 20/640 duty
        assert on_time == pytest.approx(2 * 9.25 * 20 / 640, rel=0.1)

    def test_long_idle_timer_never_disconnects(self):
        st = simulate(periodic(18, 1.0, 3), LTE_DRX20, horizon_s=54.0)
        assert st.time_in(RadioState.IDLE) == 0.0

    def test_drx_off_arrival_deferred_to_on_window(self):
        # burst lands mid-sleep: promotion waits for the next on-duration
        tr = ActivityTrace.from_spans([(0.0, 1.0, 1000), (3.0, 3.5, 1000)])
        st = simulate(tr, LTE_DRX, horizon_s=8.0)
        active = [s for s in st.segments if s.active]
        # cycle anchor is 1.75 s; arrival at 3.0 falls in the off window
        # [1.77, 2.39)+0.64k; next on start after dt=2.0 is 1.75+0.64*2=3.03
        assert active[1].start_s == pytest.approx(1.0 + 0.75 + 2 * 0.64)
        assert active[1].duration_s == pytest.approx(0.5)

    def test_wifi_uses_connected_idle_pair(self):
        st = simulate(periodic(10, 0.5, 2), WIFI, horizon_s=20.0)
        assert [s.state for s in st.segments] == [
            RadioState.CONNECTED, RadioState.CONNECTED, RadioState.IDLE,
            RadioState.CONNECTED, RadioState.CONNECTED, RadioState.IDLE]
        # PSM timer 0.2 s
        assert st.segments[1].duration_s == pytest.approx(0.2)


@pytest.mark.parametrize("horizon_s", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("profile", [HSPA, LTE_DRX], ids=["hspa", "lte-drx"])
def test_horizon_not_finite_and_at_least_zero_rejected(profile, horizon_s):
    # NaN replayed as an IDLE segment [0, nan] of NaN energy, infinity
    # priced NaN energy, and -1 failed the trace's own segment check
    with pytest.raises(FieldError) as err:
        simulate(periodic(10, 1.0, 2), profile, horizon_s=horizon_s)
    assert err.value.field == "horizon_s"


class TestEnergy:
    def test_all_idle_zero(self):
        st = simulate(ActivityTrace.from_spans([]), HSPA, horizon_s=60.0)
        assert energy_of(st, HSPA) == 0.0

    def test_single_burst_hand_integration(self):
        st = simulate(periodic(60, 1.0, 1, nbytes=250_000), HSPA,
                      horizon_s=60.0)
        # 2 Mbit/s over 1 s, then 8 s DCH tail and 3 s FACH, then PCH at 0;
        # plus one IDLE->DCH reconnection charged at p1 for 2 s
        expected = (power_rx(2e6, HSPA) * 1.0 + 800.0 * 8 + 460.0 * 3
                    + 2.0 * 800.0)
        assert energy_of(st, HSPA) == pytest.approx(expected, rel=1e-9)

    def test_tail_matches_closed_form_case_iii(self):
        st = simulate(periodic(60, 1.0, 1), HSPA, horizon_s=60.0)
        sc = BurstScenario(r_s_bps=1e6, r_btc_bps=60e6, buffer_b_bytes=1e9,
                           interval_t_s=60.0)
        assert tail_states_energy(st, HSPA) == \
            pytest.approx(tail_energy(sc, HSPA), rel=1e-9)

    def test_longer_lte_timer_saves_with_reconnect_cost(self):
        tr = periodic(18, 0.144, 20, nbytes=288_000)
        e10 = energy_of(simulate(tr, LTE_DRX, horizon_s=360.0), LTE_DRX)
        e20 = energy_of(simulate(tr, LTE_DRX20, horizon_s=360.0), LTE_DRX20)
        assert e10 > e20

    def test_rate_free_profile_prices_an_instant_span(self):
        # one byte over a subnormal span has an infinite rate; a profile
        # whose receive power ignores the rate (k = 0) still prices it
        tr = ActivityTrace.from_spans([(0.0, 2.225073858507203e-309, 1)])
        st = simulate(tr, LTE_DRX)
        assert LTE_DRX.k_coeff == 0 and st.rate_bps[0] == math.inf
        assert math.isfinite(energy_of(st, LTE_DRX))

    def test_determinism(self):
        tr = periodic(14, 0.5, 10)
        a = simulate(tr, HSPA_FD, horizon_s=140.0)
        b = simulate(tr, HSPA_FD, horizon_s=140.0)
        assert states_of(a) == states_of(b)
        assert energy_of(a, HSPA_FD) == energy_of(b, HSPA_FD)


class TestSignaling:
    COSTS = SignalingCostTable.default()

    def test_three_transitions_per_pch_cycle(self):
        # 39 s bursts of 1 s for 10 min: first burst reconnects from IDLE,
        # the remaining 15 promote from PCH; every burst demotes twice
        # (DCH->FACH at end+8, FACH->PCH at end+11, last one at 597 s),
        # so the count is exactly three transitions per burst
        st = simulate(periodic(39, 1.0, 16), HSPA, horizon_s=600.0)
        ledger = signaling_of(st, self.COSTS)
        c = ledger.transition_counts
        assert c[(RadioState.IDLE, RadioState.DCH)] == 1
        assert c[(RadioState.PCH, RadioState.DCH)] == 15
        assert c[(RadioState.DCH, RadioState.FACH)] == 16
        assert c[(RadioState.FACH, RadioState.PCH)] == 16
        assert ledger.transition_total == 3 * 16

    def test_legacy_fd_weighs_heavier_than_pch(self):
        st_pch = simulate(periodic(39, 1.0, 16), HSPA, horizon_s=600.0)
        st_fd = simulate(periodic(39, 1.0, 16), HSPA_FD, horizon_s=600.0)
        w_pch = signaling_of(st_pch, self.COSTS).total_messages
        w_fd = signaling_of(st_fd, self.COSTS).total_messages
        assert w_fd > w_pch

    def test_disabling_pch_never_cheaper_for_long_gaps(self):
        # whenever idle gaps outlast T1+T2, releasing to IDLE forces an RRC
        # reconnection per burst, which always outweighs the PCH path
        for period in (25.0, 39.0, 60.0, 120.0):
            spans = [(k * period, k * period + 1.0, 10_000)
                     for k in range(int(600 // period))]
            tr = ActivityTrace.from_spans(spans)
            w_pch = signaling_of(simulate(tr, HSPA, horizon_s=600.0),
                                 self.COSTS).total_messages
            w_no = signaling_of(simulate(tr, HSPA_NOPCH, horizon_s=600.0),
                                self.COSTS).total_messages
            assert w_no >= w_pch, f"period {period}"

    def test_drx_does_not_add_transitions(self):
        tr = periodic(39, 1.0, 16)
        with_drx = signaling_of(simulate(tr, LTE_DRX, horizon_s=600.0),
                                self.COSTS)
        without = signaling_of(simulate(tr, LTE_NODRX, horizon_s=600.0),
                               self.COSTS)
        assert with_drx.transition_total == without.transition_total
        assert with_drx.transition_counts == without.transition_counts

    def test_per_minute_normalization(self):
        st = simulate(periodic(39, 1.0, 16), HSPA, horizon_s=600.0)
        ledger = signaling_of(st, self.COSTS)
        assert ledger.per_minute == pytest.approx(ledger.total_messages / 10)

    def test_missing_cost_raises(self):
        st = simulate(periodic(39, 1.0, 2), HSPA, horizon_s=78.0)
        with pytest.raises(SignalingConfigError):
            signaling_of(st, SignalingCostTable({
                (RadioState.IDLE, RadioState.DCH): 25}))

    def test_reconnect_must_outweigh_intra(self):
        with pytest.raises(ValueError):
            SignalingCostTable({
                (RadioState.IDLE, RadioState.DCH): 2,
                (RadioState.DCH, RadioState.FACH): 5})

    def test_csv_round(self):
        st = simulate(periodic(39, 1.0, 2), HSPA, horizon_s=78.0)
        ledger = signaling_of(st, self.COSTS)
        lines = ledger.to_csv().splitlines()
        assert lines[0] == "from,to,count,cost,total"
        assert len(lines) == 1 + len(ledger.transition_counts)

    def test_state_trace_csv(self):
        st = simulate(periodic(39, 1.0, 1), HSPA, horizon_s=50.0)
        lines = st.to_csv().splitlines()
        assert lines[0] == "start_s,end_s,state,power_mw"
        assert len(lines) == 1 + len(st.segments)


# -- differential check against per-segment pricing --------------------------
#
# The reference prices every segment from the profile on its own, as the
# replay did before ``simulate`` stored each segment's power: an active
# segment at the receive power of its rate, a tail segment from a table of
# state powers, and a reconnect wherever IDLE is followed by the active
# state. The library reads those powers off the trace instead.

def reference_tail_power(state, profile):
    return {
        RadioState.DCH: profile.p1_mw,
        RadioState.CONNECTED: profile.p1_mw,
        RadioState.FACH: profile.p2_mw,
        RadioState.CONN_DRX_ON: profile.p_tail_mw,
        RadioState.CONN_DRX_OFF: profile.p_drx_off_mw,
        RadioState.PCH: profile.p_pch_mw,
        RadioState.IDLE: profile.p_idle_mw,
    }[state]


def reference_energy(trace, profile):
    """(energy in mJ, reconnect count)."""
    total = 0.0
    prev = RadioState.IDLE
    reconnects = 0
    for seg in trace.segments:
        if seg.active:
            total += seg.duration_s * power_rx(seg.rate_bps, profile)
        else:
            total += seg.duration_s * reference_tail_power(seg.state, profile)
        if prev is RadioState.IDLE and seg.state in (RadioState.DCH,
                                                     RadioState.CONNECTED):
            reconnects += 1
        prev = seg.state
    return (total + reconnects * profile.reconnect_setup_s * profile.p1_mw,
            reconnects)


def reference_tail_energy(trace, profile, window):
    tail = {RadioState.DCH, RadioState.FACH, RadioState.CONNECTED,
            RadioState.CONN_DRX_ON, RadioState.CONN_DRX_OFF}
    total = 0.0
    for seg in trace.segments:
        if seg.active or seg.state not in tail:
            continue
        s, e = max(seg.start_s, window[0]), min(seg.end_s, window[1])
        if e > s:
            total += (e - s) * reference_tail_power(seg.state, profile)
    return total


def reference_ledger(trace, costs):
    """(counts, total messages, costs used) of a per-segment walk."""
    drx = (RadioState.CONN_DRX_ON, RadioState.CONN_DRX_OFF)
    counts, cost_used, total = {}, {}, 0
    prev = RadioState.IDLE
    for seg in trace.segments:
        cur = RadioState.CONNECTED if seg.state in drx else seg.state
        if cur is not prev:
            counts[(prev, cur)] = counts.get((prev, cur), 0) + 1
            cost_used[(prev, cur)] = costs.cost(prev, cur)
            total += cost_used[(prev, cur)]
        prev = cur
    return counts, total, cost_used


SPAN = st.tuples(st.floats(0.0, 300.0), st.floats(0.0, 15.0),
                 st.integers(0, 10_000_000))


class TestPricingDifferential:
    @given(name=st.sampled_from(list_profiles()),
           spans=st.lists(SPAN, max_size=25),
           horizon=st.one_of(st.none(), st.floats(1.0, 400.0)),
           window=st.tuples(st.floats(0.0, 400.0), st.floats(0.0, 400.0)))
    @settings(max_examples=examples(300), deadline=None)
    def test_trace_readers_match_per_segment_pricing(
            self, name, spans, horizon, window):
        profile = get_profile(name)
        trace = simulate(
            ActivityTrace.from_spans([(t, t + d, b) for t, d, b in spans]),
            profile, horizon_s=horizon)
        for seg in trace.segments:
            assert seg.power_mw == (
                power_rx(seg.rate_bps, profile)
                if seg.active else reference_tail_power(seg.state, profile))

        costs = SignalingCostTable.default()
        ledger = signaling_of(trace, costs)
        counts, total, cost_used = reference_ledger(trace, costs)
        assert ledger.transition_counts == counts
        assert ledger.total_messages == total
        assert ledger.cost_used == cost_used
        minutes = trace.horizon_s / 60.0
        assert ledger.per_minute == (total / minutes if minutes > 0 else 0.0)

        expected, reconnects = reference_energy(trace, profile)
        assert energy_of(trace, profile) == expected
        assert reconnects == sum(n for (src, _), n in counts.items()
                                 if src is RadioState.IDLE)

        assert tail_states_energy(trace, profile) == \
            reference_tail_energy(trace, profile, (0.0, trace.horizon_s))
        lo, hi = sorted(window)
        assert tail_states_energy(trace, profile, (lo, hi)) == \
            reference_tail_energy(trace, profile, (lo, hi))


def trace_of(*segments, horizon_s, technology=Technology.HSPA):
    """A StateTrace from (start_s, end_s, state) tail segments."""
    n = len(segments)
    return StateTrace([s for s, _, _ in segments], [e for _, e, _ in segments],
                      [state for _, _, state in segments], [0.0] * n,
                      [None] * n, horizon_s, technology)


class TestStateTraceChecks:
    def test_contiguous_trace_accepted(self):
        tr = trace_of((0.0, 1.0, RadioState.DCH), (1.0, 2.0, RadioState.IDLE),
                      horizon_s=2.0)
        assert tr.time_in(RadioState.IDLE) == 1.0

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            trace_of((0.0, 1.0, RadioState.DCH),
                     (1.5, 2.0, RadioState.IDLE), horizon_s=2.0)

    def test_segment_ending_before_it_starts_rejected(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            trace_of((0.0, 1.0, RadioState.DCH), (1.0, 0.5, RadioState.FACH),
                     (0.5, 2.0, RadioState.IDLE), horizon_s=2.0)

    def test_state_of_another_technology_rejected(self):
        with pytest.raises(ValueError, match="invalid for"):
            trace_of((0.0, 2.0, RadioState.CONNECTED), horizon_s=2.0)
        with pytest.raises(ValueError, match="invalid for"):
            trace_of((0.0, 2.0, RadioState.PCH), horizon_s=2.0,
                     technology=Technology.LTE)

    def test_trace_short_of_horizon_rejected(self):
        with pytest.raises(ValueError, match="cover the horizon"):
            trace_of((0.0, 1.0, RadioState.DCH), horizon_s=2.0)

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            StateTrace([0.0], [1.0], [RadioState.IDLE], [0.0], [],
                       1.0, Technology.HSPA)


# -- the columns against per-segment loops -----------------------------------

class TestColumnDifferential:
    @given(spans=st.lists(SPAN, max_size=25))
    @settings(max_examples=examples(200), deadline=None)
    def test_from_spans_merges_as_the_reference_does(self, spans):
        raw = [(t, t + d, b) for t, d, b in spans]
        merged = ActivityTrace.from_spans(raw).spans()
        for (_, end, _), (start, _, _) in zip(merged, merged[1:]):
            # sorted, and apart by more than the 1e-12 s that joins spans
            assert start > end + 1e-12
        # each input lies inside exactly one merged span
        members = [[] for _ in merged]
        for s, e, b in raw:
            inside = [i for i, (ms, me, _) in enumerate(merged)
                      if ms <= s and e <= me]
            assert len(inside) == 1
            members[inside[0]].append((s, e, b))
        for (ms, me, mb), parts in zip(merged, members):
            # the inputs cover the merged span, gaps of 1e-12 s aside
            assert parts and min(s for s, _, _ in parts) == ms
            reach = ms
            for s, e, _ in sorted(parts, key=lambda part: part[0]):
                assert s <= reach + 1e-12
                reach = max(reach, e)
            assert reach == me
            assert mb == sum(b for _, _, b in parts)

    @given(name=st.sampled_from(list_profiles()),
           spans=st.lists(SPAN, max_size=25),
           horizon=st.one_of(st.none(), st.floats(0.0, 400.0)))
    @settings(max_examples=examples(200), deadline=None)
    def test_segments_time_in_and_csv_match_per_segment_loops(
            self, name, spans, horizon):
        trace = simulate(
            ActivityTrace.from_spans([(t, t + d, b) for t, d, b in spans]),
            get_profile(name), horizon_s=horizon)
        segments = []
        for i in range(len(trace.start_s)):
            segments.append(StateSegment(
                trace.start_s[i], trace.end_s[i], trace.state[i],
                trace.power_mw[i], trace.rate_bps[i]))
        assert trace.segments == tuple(segments)

        for state in RadioState:
            assert trace.time_in(state) == sum(
                seg.duration_s for seg in segments if seg.state is state)

        lines = ["start_s,end_s,state,power_mw"]
        for seg in segments:
            lines.append(f"{seg.start_s:.6f},{seg.end_s:.6f},"
                         f"{seg.state.value},{seg.power_mw:.6f}")
        assert trace.to_csv() == "\n".join(lines) + "\n"


# -- whole DRX cycles in runs against the per-cycle loop ---------------------
#
# ``simulate`` appends the whole DRX cycles of a gap as one run. The
# reference emitter below is the loop that emitted every cycle on its own,
# one ON and one OFF segment at a time; the reference replay in ``oracles``
# with it swapped in must give ``simulate``'s columns, float for float.

def per_cycle_lte_gap(out, out_cycles, g0, g1, t_end, profile):
    """The LTE tail of the gap [g0, g1), one DRX cycle at a time."""
    eps = 1e-12
    rrc_abs = t_end + profile.t1_s
    drx = profile.drx
    t = g0
    drx_start = t_end + drx.idle_s if drx is not None else rrc_abs
    head = min(drx_start, rrc_abs, g1)
    if t < head - eps:
        out(t, head, RadioState.CONNECTED)
        t = head
    if drx is not None:
        cycle, on = drx.cycle_s, drx.on_s
        limit = min(g1, rrc_abs)
        k = max(int((t - drx_start) / cycle), 0)
        while t < limit - eps:
            cycle_start = drx_start + k * cycle
            on_end = cycle_start + on
            cycle_end = cycle_start + cycle
            if t < on_end - eps:
                nxt = min(on_end, limit)
                out(t, nxt, RadioState.CONN_DRX_ON)
            elif t < cycle_end - eps:
                nxt = min(cycle_end, limit)
                out(t, nxt, RadioState.CONN_DRX_OFF)
            else:
                k += 1
                continue
            t = nxt
            if t >= cycle_end - eps:
                k += 1
    if g1 > rrc_abs + eps and t < g1 - eps:
        out(max(t, rrc_abs), g1, RadioState.IDLE)


def columns(trace):
    return (trace.start_s, trace.end_s, trace.state, trace.power_mw,
            trace.rate_bps, trace.horizon_s)


# a time after the end of the previous activity: in the CONNECTED lead-in,
# or k DRX cycles after the lead-in, at a cycle start, at an on-window end
# or anywhere in the cycle, each nudged by -1e-13, 0 or +1e-13
DRX_POINT = st.tuples(
    st.one_of(st.just(-1), st.integers(0, 40)),
    st.sampled_from(["cycle_start", "on_end", "inside"]),
    st.floats(0.0, 1.0),
    st.sampled_from([-1e-13, 0.0, 1e-13]))

# (idle_ms, cycle_ms, on_ms) beside the shipped ones: an on-window as long
# as the cycle, and windows too narrow for a run
DRX_EDGES = st.sampled_from([None, (750.0, 640.0, 640.0),
                             (750.0, 640.0, 1e-9), (0.0, 40.0, 40.0 - 1e-9),
                             (100.0, 40.0, 20.0)])


def drx_time(last_end, profile, point):
    k, where, u, nudge = point
    drx = profile.drx
    if k < 0:
        return last_end + u * drx.idle_s + nudge
    start = last_end + drx.idle_s + k * drx.cycle_s
    offset = {"cycle_start": 0.0, "on_end": drx.on_s,
              "inside": u * drx.cycle_s}[where]
    return start + offset + nudge


class TestDrxRunsDifferential:
    @given(name=st.sampled_from(["lte-drx-default", "lte-drx-longidle"]),
           edges=DRX_EDGES, first=st.floats(0.0, 5.0),
           bursts=st.lists(st.tuples(st.floats(0.0, 2.0), DRX_POINT),
                           max_size=6),
           horizon=st.one_of(st.none(), DRX_POINT))
    @settings(max_examples=examples(300), deadline=None)
    def test_runs_match_the_per_cycle_loop(self, name, edges, first, bursts,
                                           horizon):
        profile = get_profile(name)
        if edges is not None:
            profile = dataclasses.replace(profile, drx=DrxConfig(*edges))
        spans, end = [], first
        for duration, point in bursts:
            start = max(drx_time(end, profile, point), end)
            spans.append((start, start + duration, 100_000))
            end = start + duration
        # a horizon past the last activity may cut a cycle anywhere
        horizon_s = None if horizon is None else \
            max(drx_time(end, profile, horizon), 1e-3)
        trace = ActivityTrace.from_spans(spans)
        fast = simulate(trace, profile, horizon_s=horizon_s)
        with mock.patch.object(oracles, "_emit_lte_gap", per_cycle_lte_gap):
            slow = reference_simulate(trace, profile, horizon_s=horizon_s)
        assert columns(fast) == columns(slow)
        assert fast.transitions == slow.transitions

    def test_whole_cycles_go_out_as_runs(self):
        # one burst, then a 9.25 s DRX tail of 640 ms cycles before the 10 s
        # RRC timer: 14 whole cycles and a partial one
        runs = []
        build = radio._drx_run

        def spy(*args):
            edges = build(*args)
            runs.append(len(edges) // 2)
            return edges

        with mock.patch.object(radio, "_drx_run", spy):
            fast = simulate(periodic(30, 1.0, 1), LTE_DRX, horizon_s=30.0)
        assert runs == [14]
        with mock.patch.object(oracles, "_emit_lte_gap", per_cycle_lte_gap):
            slow = reference_simulate(periodic(30, 1.0, 1), LTE_DRX,
                                      horizon_s=30.0)
        assert columns(fast) == columns(slow)


# -- the replay against the closure-based reference --------------------------
#
# ``simulate`` emits every gap's tail by direct appends; ``oracles`` keeps the
# replay that emitted each tail segment through a closure and each gap
# through an emitter. Both must give the same columns, float for float, and
# the same transitions in the same order.

FAST_DORMANCY = st.builds(
    lambda fd, pch, t3, timeout: RadioProfile(
        Technology.HSPA, t1_s=8, t2_s=3, t3_s=t3, p1_mw=800, p2_mw=460,
        p_tail_mw=600, p_pch_mw=20.0, fast_dormancy=fd, pch_enabled=pch,
        legacy_fd_timeout_s=timeout),
    st.sampled_from([FastDormancy.LEGACY, FastDormancy.REL8]),
    st.booleans(), st.sampled_from([0.0, 20.0]),
    st.one_of(st.sampled_from([0.0, 2.0, 8.0, 11.0, 12.0]),
              st.floats(0.0, 15.0)))


@st.composite
def drx_edge_profiles(draw):
    edges = draw(DRX_EDGES)
    profile = get_profile(draw(st.sampled_from(
        ["lte-drx-default", "lte-drx-longidle"])))
    if edges is None:
        return profile
    return dataclasses.replace(profile, drx=DrxConfig(*edges))


REPLAY_PROFILES = st.one_of(st.sampled_from(list_profiles()).map(get_profile),
                            drx_edge_profiles(), FAST_DORMANCY)


class TestReplayDifferential:
    @given(profile=REPLAY_PROFILES, spans=st.lists(SPAN, max_size=25),
           horizon=st.one_of(st.none(), st.floats(0.0, 400.0)))
    @settings(max_examples=examples(300), deadline=None)
    def test_columns_and_transitions_match_the_reference(
            self, profile, spans, horizon):
        trace = ActivityTrace.from_spans(
            [(t, t + d, b) for t, d, b in spans])
        fast = simulate(trace, profile, horizon_s=horizon)
        slow = reference_simulate(trace, profile, horizon_s=horizon)
        assert columns(fast) == columns(slow)
        assert list(fast.transitions.items()) == \
            list(slow.transitions.items())

    @given(profile=REPLAY_PROFILES, first=st.floats(0.0, 5.0),
           bursts=st.lists(st.tuples(st.floats(0.0, 2.0), DRX_POINT,
                                     st.floats(0.0, 40.0)), max_size=6),
           horizon=st.floats(0.0, 60.0))
    @settings(max_examples=examples(200), deadline=None)
    def test_bursts_near_timer_and_cycle_edges_match_the_reference(
            self, profile, first, bursts, horizon):
        # bursts placed on DRX cycle edges where the profile has DRX, or
        # after a drawn gap otherwise; the horizon falls anywhere after
        # the first burst
        spans, end = [], first
        for duration, point, gap in bursts:
            start = max(drx_time(end, profile, point), end) \
                if profile.drx is not None else end + gap
            spans.append((start, start + duration, 100_000))
            end = start + duration
        trace = ActivityTrace.from_spans(spans)
        fast = simulate(trace, profile, horizon_s=first + horizon)
        slow = reference_simulate(trace, profile, horizon_s=first + horizon)
        assert columns(fast) == columns(slow)
        assert list(fast.transitions.items()) == \
            list(slow.transitions.items())

    def test_a_span_just_after_a_deferred_delivery_joins_it(self):
        # an arrival 0.1 s into the first DRX OFF window waits for the next
        # ON window, at 1 + 0.75 + 0.64 s; the next span starts 5e-13 s
        # after the deferred 0.3 s delivery ends, and joins it
        wake = 1.0 + (0.75 + 0.64)
        trace = ActivityTrace.from_spans([
            (0.0, 1.0, 1000), (1.85, 2.15, 1000),
            (wake + 0.3 + 5e-13, wake + 1.3, 1000)])
        fast = simulate(trace, LTE_DRX, horizon_s=10.0)
        slow = reference_simulate(trace, LTE_DRX, horizon_s=10.0)
        assert columns(fast) == columns(slow)
        assert sum(rate is not None for rate in fast.rate_bps) == 2


# -- the StateTrace checks against the per-segment walk ----------------------

OTHER_TECHNOLOGY = {
    Technology.HSPA: [RadioState.CONNECTED, RadioState.CONN_DRX_ON],
    Technology.LTE: [RadioState.DCH, RadioState.PCH],
    Technology.WIFI: [RadioState.FACH, RadioState.CONN_DRX_OFF],
}
# boundary offsets inside the 1e-9 s tolerance, and past it
NEAR = st.sampled_from([0.0, 5e-10, -5e-10])
FAR = st.sampled_from([2e-9, -2e-9])


@st.composite
def state_columns(draw):
    """(start_s, end_s, state, horizon_s, technology) of a trace whose
    boundaries may be off by 5e-10 s, and which may break the rules: one
    boundary off by 2e-9 s, one reversed segment, a state of another
    technology, a horizon off by 2e-9 s or short of the last end. One
    segment may end at NaN, which the next one starts at."""
    technology = draw(st.sampled_from(list(Technology)))
    allowed = sorted(oracles.ALLOWED_STATES[technology],
                     key=lambda s: s.value)
    # past 64 segments, sorting merges runs
    n = draw(st.integers(0, 12) | st.integers(60, 90))
    far_at, reversed_at, alien_at, nan_at = (
        draw(st.none() | st.integers(0, max(n - 1, 0))) for _ in range(4))
    starts, ends, states = [], [], []
    t = 0.0
    for i in range(n):
        offset = draw(FAR if i == far_at else NEAR)
        # the same float where the offset is 0, as ``simulate`` writes it
        start = t + offset if offset else t
        if i == nan_at:
            end = math.nan
        elif i == reversed_at:
            end = start - draw(st.floats(1e-6, 2.0))
        else:
            end = start + draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
        if i == alien_at:
            state = draw(st.sampled_from(OTHER_TECHNOLOGY[technology]))
        else:
            state = draw(st.sampled_from(allowed))
        starts.append(start)
        ends.append(end)
        states.append(state)
        t = end
    horizon = draw(st.one_of((NEAR | FAR).map(lambda off: t + off),
                             st.floats(1e-6, 3.0).map(lambda d: t - d)))
    return starts, ends, states, horizon, technology


class TestStateTraceWalkDifferential:
    @given(columns=state_columns())
    @settings(max_examples=examples(300), deadline=None)
    def test_checks_and_counts_match_the_per_segment_walk(self, columns):
        starts, ends, states, horizon, technology = columns
        # the error message, or the transitions in order
        try:
            expected = list(walk_state_trace(starts, ends, states, horizon,
                                             technology).items())
        except ValueError as exc:
            expected = str(exc)
        n = len(starts)
        try:
            got = list(StateTrace(starts, ends, states, [0.0] * n,
                                  [None] * n, horizon,
                                  technology).transitions.items())
        except ValueError as exc:
            got = str(exc)
        event(expected if isinstance(expected, str) else "accepted")
        assert got == expected

    @pytest.mark.parametrize("n, nan_start, nan_end, nan_horizon, error", [
        # the trace ``StateTrace([0.0, nan], [nan, 2.0], ...)``: a NaN end
        # that the next segment starts at, the same float
        (2, None, 0, False, "segment ends before it starts"),
        # past 64 segments, where sorting merges runs
        (80, None, 40, False, "segment ends before it starts"),
        (80, None, 79, True, "segment ends before it starts"),
        (2, 0, None, False, "state trace must be contiguous from 0"),
        (80, 50, None, False, "state trace must be contiguous from 0"),
        (2, None, None, True, "state trace must cover the horizon"),
        (0, None, None, True, "state trace must cover the horizon")])
    def test_a_nan_time_raises_what_the_walk_raises(
            self, n, nan_start, nan_end, nan_horizon, error):
        # each segment starts at the float the one before it ends at
        starts, ends = [], []
        t = 0.0
        for i in range(n):
            starts.append(math.nan if i == nan_start else t)
            t = math.nan if i == nan_end else float(i + 1)
            ends.append(t)
        horizon = math.nan if nan_horizon else float(n)
        states = [RadioState.DCH, RadioState.IDLE] * (n // 2)
        with pytest.raises(ValueError, match=error):
            walk_state_trace(starts, ends, states, horizon,
                             Technology.HSPA)
        with pytest.raises(ValueError, match=error):
            StateTrace(starts, ends, states, [0.0] * n, [None] * n,
                       horizon, Technology.HSPA)
