"""End-to-end simulated session tests: search outcomes, fallback, adaptation."""

import copy
import math

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from strategies import scenarios

from burststream import (BandwidthTrace, Phase, QualityLevel, Scenario,
                         SimulatedSession, StreamingClient, StreamSpec,
                         harness, linear_sweep_oracle, probe_search)
from burststream import session as session_module
from burststream.profiles import ConfigError, get_profile
from burststream.shaper import Send, ShapingController


def cbr_session(r_s=128e3, fs=14.0, buffer_bytes=5_000_000, bw=None,
                session_s=600.0, duration=600.0, link=3e6, **kw):
    stream = StreamSpec.single(r_s, duration_s=duration, fast_start_s=fs)
    client = StreamingClient(buffer_bytes, r_s, link,
                             content_duration_s=duration)
    return SimulatedSession(stream, client, bw or BandwidthTrace.flat(link),
                            session_length_s=session_s, **kw)


class TestBandwidthTrace:
    def test_step_lookup(self):
        tr = BandwidthTrace(((0.0, 1e6), (10.0, 5e5)))
        assert tr.at(0.0) == 1e6
        assert tr.at(9.999) == 1e6
        assert tr.at(10.0) == 5e5
        assert tr.at(1e4) == 5e5

    def test_unordered_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace(((5.0, 1e6), (0.0, 2e6)))

    def test_nan_step_time_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace(((0.0, 1e6), (math.nan, 2e6), (5.0, 3e6)))

    @given(times=st.lists(st.floats(-100.0, 1e3), min_size=1, max_size=8),
           rates=st.lists(st.floats(1e3, 1e8), min_size=8, max_size=8),
           pick=st.integers(0, 7),
           where=st.sampled_from(["step", "before_first", "between"]),
           nudge=st.sampled_from([-1e-12, -5e-13, 0.0, 5e-13, 1e-12]),
           u=st.floats(0.0, 1.0))
    def test_lookup_matches_a_linear_scan(self, times, rates, pick, where,
                                          nudge, u):
        times.sort()
        if pick % 3 == 0 and len(times) > 1:     # repeated step times
            times[1] = times[0]
        tr = BandwidthTrace(tuple(zip(times, rates)))
        step_t = times[pick % len(times)]
        t = {"step": step_t, "before_first": times[0] - 1.0 - u * 50,
             "between": times[0] + u * (times[-1] - times[0] + 10.0)}[where]
        for query in (t, t + nudge):
            assert tr.at(query) == linear_scan(tr.steps, query)


def linear_scan(steps, t):
    """The rate of the last step at or before t + 1e-12, or of the first."""
    current = steps[0][1]
    for st_, bps in steps:
        if st_ <= t + 1e-12:
            current = bps
        else:
            break
    return current


class TestStarOutcome:
    def test_settles_at_t_max_and_never_stalls(self):
        res = cbr_session().run()
        st = res.shaper.state
        assert st.phase is Phase.STEADY
        assert st.t_s == pytest.approx(14.0)
        assert st.bs_opt_bytes == pytest.approx(14 * 128e3 / 8)
        assert res.stalls_after_fast_start() == []
        assert res.zwa_bursts == 0

    def test_burst_size_bound_holds_throughout(self):
        res = cbr_session().run()
        cap = 14 * 128e3 / 8
        for row in res.shaper.burst_log:
            assert float(row.split(",")[3]) <= cap + 1e-6

    def test_deterministic(self):
        a = cbr_session().run()
        b = cbr_session().run()
        assert a.shaper.burst_log == b.shaper.burst_log
        assert a.activity_spans == b.activity_spans


class TestCircleOutcome:
    def test_zwa_during_fast_start_yields_t_opt_31(self):
        # 2 Mbit/s video, 45 s fast start: the buffer pins mid-fill after
        # exactly 7.75 MB entered (6.84375 MB capacity plus the content
        # played during the 3.875 s fill), so T_opt = 31 s
        res = cbr_session(r_s=2e6, fs=45.0, buffer_bytes=6_843_750,
                          link=16e6, session_s=300.0, duration=600.0).run()
        st = res.shaper.state
        assert st.phase is Phase.STEADY
        assert st.bs_opt_bytes == pytest.approx(7_750_000, rel=1e-9)
        assert st.t_s == pytest.approx(31.0, abs=0.01)
        assert "fast_start_zwa" in " ".join(res.decision_log)


class TestDiamondOutcome:
    def test_probe_search_matches_linear_oracle(self):
        found = probe_search(10e6, 2e6, 60.0, 16e6)
        oracle = linear_sweep_oracle(10e6, 2e6, 60.0, 16e6)
        step = 1.0 * 2e6 / 8
        assert found.zwa_terminated
        assert abs(found.bs_opt_bytes - oracle) <= step
        assert found.rounds <= math.ceil(math.log2(60.0))
        # the search stops at its first zero window, and that probe was the
        # first one whose burst exceeded the 10 MB buffer
        assert found.probes[-1] * 2e6 / 8 > 10e6
        assert all(t * 2e6 / 8 <= 11.5e6 for t in found.probes[:-1])

    def test_probes_increase_until_zwa(self):
        found = probe_search(6e6, 1e6, 80.0, 16e6)
        assert found.probes == sorted(found.probes)


class TestLowBandwidthFallback:
    def make(self, t_recover=159.5, chunk=0.25):
        bw = BandwidthTrace(((0.0, 3e6), (60.0, 120e3), (80.0, 200e3),
                             (t_recover, 3e6)))
        return cbr_session(bw=bw, session_s=900.0, duration=900.0,
                           low_bw_chunk_s=chunk)

    def test_save_grow_restore_pattern(self):
        res = self.make().run()
        saves = [d for d in res.decision_log if d.startswith("bandwidth_low")]
        recovers = [d for d in res.decision_log
                    if d.startswith("bandwidth_recovered")]
        assert len(saves) == 1 and len(recovers) == 1
        assert "t_old=14.000" in saves[0]
        assert "t=14.000" in recovers[0]
        assert "t_max=43.015" in recovers[0]
        lows = [p for p in res.trajectory if p["phase"] == "LOW_BANDWIDTH"]
        grown = [p["t_max_s"] for p in lows if p["t_max_s"] is not None]
        # runway-tracked bound grows monotonically through the episode
        assert all(b >= a - 1e-9 for a, b in zip(grown[5:], grown[6:]))

    def test_continuous_send_never_idles_link(self):
        res = self.make().run()
        lows = [p["time_s"] for p in res.trajectory
                if p["phase"] == "LOW_BANDWIDTH"]
        spans = [s for s in res.activity_spans
                 if lows[0] <= s[0] <= lows[-1]]
        for (a, b) in zip(spans, spans[1:]):
            assert b[0] - a[1] < 1e-6

    def test_stall_recorded_while_bandwidth_below_rate(self):
        res = self.make().run()
        dip = [s for s in res.stall_log if 60.0 <= s[0] <= 90.0]
        assert dip, "expected a playback interruption during the dip"

    def test_search_resumes_upward_after_restore(self):
        res = self.make().run()
        recover_t = max(p["time_s"] for p in res.trajectory
                        if p["phase"] == "LOW_BANDWIDTH")
        after = [p for p in res.trajectory if p["time_s"] > recover_t
                 and p["phase"] == "SEARCHING"]
        ts = [p["t_s"] for p in after]
        assert ts and ts == sorted(ts)
        assert ts[0] == pytest.approx(14.0)


class TestAdaptiveSession:
    LADDER = tuple(QualityLevel(r * 1000) for r in
                   (700, 1200, 1500, 2000, 2500, 3000))

    def run_step_up_session(self, buffer_bytes=12_000_000):
        stream = StreamSpec(self.LADDER, duration_s=900.0, fast_start_s=40.0)
        client = StreamingClient(buffer_bytes, 700e3, 16e6,
                                 content_duration_s=900.0)
        bw = BandwidthTrace(((0.0, 2.2e6), (300.0, 16e6)))
        return SimulatedSession(stream, client, bw, session_length_s=860.0,
                                adaptive=True)

    def run_step_up(self, buffer_bytes=12_000_000):
        return self.run_step_up_session(buffer_bytes).run()

    def test_upgrade_shrinks_interval_then_research(self):
        res = self.run_step_up()
        assert res.quality_switches, "no upgrade happened"
        switch_t, new_q = res.quality_switches[0]
        assert new_q == 5
        assert switch_t > 300.0
        # interval right after the switch is the byte-equivalent of the
        # known optimum at the higher rate, so it drops before growing
        before = [p for p in res.trajectory if p["time_s"] < switch_t]
        after = [p for p in res.trajectory if p["time_s"] >= switch_t]
        assert after[0]["t_s"] < before[-1]["t_s"]

    def test_quality_tracks_bandwidth_swings(self):
        # alternating comfortable / constrained bandwidth: the session
        # upgrades while the estimate covers twice the 1500k rate and
        # falls back to the sustainable 700k when it does not
        stream = StreamSpec(self.LADDER, duration_s=900.0, fast_start_s=30.0)
        client = StreamingClient(12_000_000, 700e3, 16e6,
                                 content_duration_s=900.0)
        bw = BandwidthTrace(((0.0, 3.2e6), (200.0, 1.0e6), (400.0, 3.2e6),
                             (600.0, 1.0e6)))
        res = SimulatedSession(stream, client, bw, session_length_s=860.0,
                               adaptive=True).run()
        indices = [q for _, q in res.quality_switches]
        assert indices == [2, 0, 2, 0]
        rates = {int(r.split(",")[1]) for r in res.shaper.burst_log}
        assert rates == {700000, 1500000}

    def test_settles_steady_at_top_quality(self):
        res = self.run_step_up()
        st = res.shaper.state
        assert st.current_quality_index == 5
        assert st.phase is Phase.STEADY
        assert st.bs_opt_bytes is not None
        last_rows = res.shaper.burst_log[-3:]
        assert all(r.split(",")[1] == "3000000" for r in last_rows)


class TestTrajectoryView:
    def test_points_render_as_the_dicts_built_at_report_time(
            self, monkeypatch):
        # an adaptive session through Fast Start, the search, a quality
        # switch, a low-bandwidth episode and its recovery: beside the
        # run, each report's point is built as a dict literal, as the run
        # built it before it recorded value tuples
        ladder = tuple(QualityLevel(r * 1000) for r in
                       (700, 1200, 1500, 2000, 2500, 3000))
        stream = StreamSpec(ladder, duration_s=600.0, fast_start_s=30.0)
        client = StreamingClient(12_000_000, 700e3, 16e6,
                                 content_duration_s=600.0)
        bw = BandwidthTrace(((0.0, 3.2e6), (150.0, 0.5e6), (250.0, 3.2e6)))
        sim = SimulatedSession(stream, client, bw, session_length_s=500.0,
                               adaptive=True)
        built = []
        report = ShapingController.report

        def building_report(ctl, rep):
            send = report(ctl, rep)
            st = ctl.shaper.state
            built.append({
                "time_s": rep.end_s, "phase": st.phase.value, "t_s": st.t_s,
                "t_min_s": st.t_min_s, "t_max_s": st.t_max_s,
                "t_old_s": st.t_old_s, "bs_opt_bytes": st.bs_opt_bytes,
                "runway_s": (ctl.content_sent_s
                             - client.playback_position_s),
            })
            return send

        monkeypatch.setattr(ShapingController, "report", building_report)
        res = sim.run()
        # a point follows its report, so none is in Fast Start
        assert {p["phase"] for p in built} == {
            "SEARCHING", "STEADY", "LOW_BANDWIDTH"}
        assert repr(res.trajectory) == repr(built)
        assert res.fs_end_s == built[0]["time_s"]
        # each read builds a fresh list
        assert res.trajectory is not res.trajectory


def _outputs(scenario, step):
    """Every output of ``harness.run(scenario)`` with the steady step on or
    off, as one string (a run that fails gives its error), the number of
    sends the steady step took and the number that ``_deliver`` took by
    the closed form."""
    stepped, closed = [], []
    in_step = []
    take = StreamingClient.take_steady
    steady = SimulatedSession._steady
    kept = session_module._STEADY_STEP
    session_module._STEADY_STEP = step
    StreamingClient.take_steady = lambda client, got: \
        (closed if not in_step else stepped).append(got) or take(client, got)

    def counted_steady(sim, send):
        in_step.append(True)
        try:
            return steady(sim, send)
        finally:
            in_step.pop()

    SimulatedSession._steady = counted_steady
    try:
        res = harness.run(scenario)
    except ConfigError as exc:
        return f"ConfigError: {exc}", 0, 0
    finally:
        session_module._STEADY_STEP = kept
        StreamingClient.take_steady = take
        SimulatedSession._steady = steady
    s = res.session
    ledgers = [(ledger.total_messages, sorted(
        (a.value, b.value, n) for (a, b), n in
        ledger.transition_counts.items()))
        for ledger in (res.signaling, res.signaling_baseline)]
    return repr((
        s.shaper.burst_records, s.stall_log, s.activity_spans,
        s.trajectory_points, s.decision_log, s.quality_switches,
        s.zwa_bursts, s.fs_end_s, s.content_sent_bytes, s.content_sent_s,
        s.shaper.state, res.energy_mj, res.energy_baseline_mj, ledgers,
        res.state_trace.segments, res.baseline_trace.segments)), \
        len(stepped), len(closed)


class TestSteadyStep:
    """The steady step and the closed-form branch of ``_deliver`` change no
    output: each run is repr-equal with them on and with every send on the
    per-send path."""

    @settings(max_examples=100, deadline=None)
    @given(scenario=scenarios())
    def test_drawn_scenarios_are_the_same_either_way(self, scenario):
        on, stepped, closed = _outputs(scenario, True)
        event("stepped" if stepped else "not stepped")
        event("closed form" if closed else "no closed form")
        assert on == _outputs(scenario, False)[0]

    def test_a_two_hour_stream_is_the_same_and_steps_each_steady_burst(
            self):
        # a flat link: after the search every period is one plain piece
        scenario = Scenario(
            "two-hours", get_profile("hspa-default"),
            StreamSpec.single(1e6, math.inf, 20.0), 2.5e6,
            BandwidthTrace.flat(6e6), 7200.0)
        on, stepped, closed = _outputs(scenario, True)
        off, none, no_closed = _outputs(scenario, False)
        assert on == off and none == no_closed == 0
        # every STEADY burst but none of the search's
        assert stepped == on.count("'STEADY')") == 355
        # and each of the search's probes, one fluid piece apiece
        assert closed == on.count("'SEARCHING')") == 5


_DELIVER = SimulatedSession._deliver


def _reference(sim, send):
    """``_deliver`` on a copy of ``sim`` with the closed form off: the
    copy's report from ``deliver`` and ``_observe``, or the error."""
    twin = copy.copy(sim)
    twin.client = copy.deepcopy(sim.client)
    twin.activity_spans = list(sim.activity_spans)
    kept = session_module._STEADY_STEP
    session_module._STEADY_STEP = False
    try:
        return twin, _DELIVER(twin, send)
    except Exception as exc:
        return twin, exc
    finally:
        session_module._STEADY_STEP = kept


def _deliver_as_reference(sim, send, taken):
    """``_deliver(send)`` on ``sim`` with the closed form on, held equal,
    report, observation, client and session, to ``_reference``; each send
    the closed form takes is added to ``taken``."""
    twin, want = _reference(sim, send)
    take = StreamingClient.take_steady
    kept = session_module._STEADY_STEP
    session_module._STEADY_STEP = True
    StreamingClient.take_steady = lambda client, got: \
        taken.append(got) or take(client, got)
    try:
        got = _DELIVER(sim, send)
    except Exception as exc:
        assert repr(exc) == repr(want)
        raise
    finally:
        session_module._STEADY_STEP = kept
        StreamingClient.take_steady = take
    # a repr shows every field, and each float by its exact digits
    assert repr(got) == repr(want)
    assert repr(vars(sim.client)) == repr(vars(twin.client))
    assert (sim.activity_spans, sim._sends, sim.zwa_bursts) == \
        (twin.activity_spans, twin._sends, twin.zwa_bursts)
    return got


class TestClosedFormDelivery:
    """A burst that ``_deliver`` takes by ``steady_delivery``'s closed form
    gives the report, every observation field (the ACK times, the acked
    bytes and completeness among them) and the client and session state
    that ``deliver`` and ``_observe`` give."""

    @settings(max_examples=300, deadline=None)
    @given(capacity=st.floats(2e5, 2e7), r_s=st.floats(64e3, 4e6),
           fill=st.floats(0.05, 1.0), link=st.floats(0.5, 50.0),
           offered=st.floats(0.2, 10.0), wait=st.floats(0.0, 1.2),
           refill=st.floats(0.0, 1.5), seg=st.sampled_from((536, 1460)),
           content_s=st.sampled_from((math.inf, 60.0, 400.0)),
           sends=st.integers(1, 4))
    def test_drawn_client_states(self, capacity, r_s, fill, link, offered,
                                 wait, refill, seg, content_s, sends):
        # ``TestSteadyDelivery``'s client states and sends, each sent as a
        # burst through the session
        client = StreamingClient(capacity, r_s, link * r_s,
                                 segment_bytes=seg,
                                 content_duration_s=content_s)
        client.deliver(fill * capacity, 4.0 * r_s, 0.0)
        sim = SimulatedSession(StreamSpec.single(r_s, content_s), client,
                               BandwidthTrace.flat(offered * r_s), 1e4)
        taken = []
        for _ in range(sends):
            gap = wait * client.occupancy_bytes * 8.0 / r_s
            send = Send(refill * gap * r_s / 8.0, client.now_s + gap, True)
            try:
                _deliver_as_reference(sim, send, taken)
            except RuntimeError:     # full, with the content played out
                return
        event(f"{len(taken)} of {sends} by the closed form")

    @settings(max_examples=60, deadline=None)
    @given(scenario=scenarios())
    def test_drawn_scenarios(self, scenario):
        taken = []
        SimulatedSession._deliver = lambda sim, send: \
            _deliver_as_reference(sim, send, taken)
        try:
            harness.run(scenario)
        except ConfigError:
            pass
        finally:
            SimulatedSession._deliver = _DELIVER
        event("closed form" if taken else "no closed form")

    def test_a_burst_just_past_a_segment_boundary(self):
        # the final cumulative ACK would be within 1e-9 bytes of the last
        # segment ACK, so it is not sent: the last ACK is the segment's,
        # before the burst ends
        client = StreamingClient(4e6, 500e3, 8e6, startup_threshold_s=0.0)
        sim = SimulatedSession(StreamSpec.single(500e3, math.inf), client,
                               BandwidthTrace.flat(8e6), 1e4)
        taken = []
        rep = _deliver_as_reference(sim, Send(14600 + 5e-10, 0.0, True),
                                    taken)
        assert len(taken) == 1
        assert rep.obs.last_ack_s == 0.0146 < rep.end_s
        assert rep.obs.acked_bytes == 14600.0 and rep.obs.complete

    def _taken(self, monkeypatch, sim):
        """Run ``sim`` with the closed form on; the phase of each send
        that ``_deliver`` took by it."""
        phases, taken = [], []
        take = StreamingClient.take_steady

        def deliver(s, send):
            n = len(taken)
            phase = s.shaper.state.phase
            report = _DELIVER(s, send)
            phases.extend([phase] * (len(taken) - n))
            return report

        monkeypatch.setattr(session_module, "_STEADY_STEP", True)
        monkeypatch.setattr(StreamingClient, "take_steady",
                            lambda client, got: taken.append(got) or
                            take(client, got))
        monkeypatch.setattr(SimulatedSession, "_deliver", deliver)
        sim.run()
        return phases

    def test_a_search_sends_probes_by_it(self, monkeypatch):
        phases = self._taken(monkeypatch, cbr_session())
        assert Phase.SEARCHING in phases

    def test_an_adaptive_session_sends_bursts_by_it(self, monkeypatch):
        phases = self._taken(monkeypatch,
                             TestAdaptiveSession().run_step_up_session())
        assert Phase.STEADY in phases and Phase.SEARCHING in phases

    def test_off_the_closed_form_is_never_asked(self, monkeypatch):
        # with the switch off every burst goes through ``deliver``
        def refuse(*args):
            raise AssertionError("steady_delivery called")

        monkeypatch.setattr(session_module, "_STEADY_STEP", False)
        monkeypatch.setattr(StreamingClient, "steady_delivery", refuse)
        cbr_session().run()
        TestAdaptiveSession().run_step_up()


class TestStallLog:
    @settings(max_examples=150, deadline=None)
    @given(scenario=scenarios())
    def test_stalls_are_sorted_disjoint_and_inside_the_session(
            self, scenario):
        try:
            stalls = harness.run(scenario).stall_log
        except ConfigError:
            return
        horizon = scenario.session_length_s
        edges = [t for stall in stalls for t in stall]
        # each stall ends at or after its start, and the next one starts
        # at or after that end
        assert edges == sorted(edges)
        assert all(start < horizon for start, _ in stalls)
        assert not edges or (edges[0] >= 0.0 and edges[-1] <= horizon)
