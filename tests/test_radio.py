"""Radio state-machine tests: cascades, dormancy, DRX, energy, signaling."""

import pytest

from burststream import (ActivityEvent, ActivityTrace, BurstScenario,
                         EventKind, RadioState, SignalingConfigError,
                         SignalingCostTable, Technology, TraceError,
                         energy_of, get_profile, power_rx, signaling_of,
                         simulate, tail_energy, tail_states_energy)
from burststream.energy import FastDormancy, RadioProfile

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
    def test_ordering_enforced(self):
        with pytest.raises(TraceError):
            ActivityTrace([ActivityEvent(5.0, EventKind.RX_START),
                           ActivityEvent(1.0, EventKind.RX_END)])

    def test_nesting_rejected(self):
        with pytest.raises(TraceError):
            ActivityTrace([ActivityEvent(0.0, EventKind.RX_START),
                           ActivityEvent(1.0, EventKind.RX_START),
                           ActivityEvent(2.0, EventKind.RX_END),
                           ActivityEvent(3.0, EventKind.RX_END)])

    def test_rx_tx_overlap_merges(self):
        tr = ActivityTrace([
            ActivityEvent(0.0, EventKind.RX_START, 1000),
            ActivityEvent(1.0, EventKind.TX_START, 500),
            ActivityEvent(2.0, EventKind.RX_END),
            ActivityEvent(3.0, EventKind.TX_END),
        ])
        assert tr.spans() == [(0.0, 3.0, 1500)]

    def test_from_spans_and_spans_merge_alike(self):
        # touching within 1e-12 s joins; an unknown byte count stays unknown
        raw = [(4.0, 5.0, 10), (0.0, 1.0, 100), (1.0 + 5e-13, 2.0, 200),
               (6.0, 7.0, None), (7.0, 8.0, 30)]
        tr = ActivityTrace.from_spans(raw)
        assert tr.spans() == [(0.0, 2.0, 300), (4.0, 5.0, 10),
                              (6.0, 8.0, None)]
        assert ActivityTrace.from_spans(tr.spans()).spans() == tr.spans()

    def test_span_end_before_start_rejected(self):
        with pytest.raises(TraceError):
            ActivityTrace.from_spans([(0.0, 1.0, 10), (3.0, 2.0, 10)])


class TestHspaStateMachine:
    def test_empty_trace_stays_idle(self):
        st = simulate(ActivityTrace([]), HSPA, horizon_s=60.0)
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


class TestEnergy:
    def test_all_idle_zero(self):
        st = simulate(ActivityTrace([]), HSPA, horizon_s=60.0)
        assert energy_of(st, HSPA, rx_rate_bps=1e6) == 0.0

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

    def test_missing_rate_raises(self):
        tr = ActivityTrace([ActivityEvent(0.0, EventKind.RX_START),
                            ActivityEvent(1.0, EventKind.RX_END)])
        st = simulate(tr, HSPA, horizon_s=10.0)
        with pytest.raises(ValueError):
            energy_of(st, HSPA)

    def test_determinism(self):
        tr = periodic(14, 0.5, 10)
        a = simulate(tr, HSPA_FD, horizon_s=140.0)
        b = simulate(tr, HSPA_FD, horizon_s=140.0)
        assert states_of(a) == states_of(b)
        assert energy_of(a, HSPA_FD, 1e6) == energy_of(b, HSPA_FD, 1e6)


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
