"""Shaper tests: search trace, termination cases, fluctuation, quality."""

import copy
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from burststream import (BurstObservation, Phase, QualityLevel, Shaper,
                         StreamSpec, initial_quality, select_quality)
from burststream.shaper import Report, ShapingController, render_burst_row

LADDER = tuple(QualityLevel(r * 1000) for r in
               (700, 1200, 1500, 2000, 2500, 3000))
SPEC = StreamSpec(LADDER, duration_s=597.0, fast_start_s=40.0)


def feedback(burst_id, zwa=False, sent_at_zwa=None, size=1_000_000):
    obs = BurstObservation(burst_id, size, 0.0, 0.0)
    obs.complete = not zwa
    obs.acked_bytes = size
    if zwa:
        obs.zwa_seen = True
        obs.sent_bytes_at_first_zwa = sent_at_zwa
    return obs


def make_shaper(r_s=500e3, granularity=1.0, fast_start_s=20.0):
    return Shaper(StreamSpec.single(r_s, 600.0, fast_start_s), granularity)


class TestFastStart:
    def test_t_max_from_bytes_and_rate(self):
        sh = make_shaper(r_s=500e3)
        t_max = sh.end_fast_start(1_250_000)
        assert t_max == 20.0
        assert sh.state.t_s == 10.0
        assert sh.phase is Phase.SEARCHING

    def test_39_seconds_of_content(self):
        sh = make_shaper(r_s=458e3)
        t_max = sh.end_fast_start(39 * 458e3 / 8)
        assert t_max == pytest.approx(39.0)

    def test_zwa_during_fast_start_skips_search(self):
        sh = make_shaper(r_s=2e6)
        t_opt = sh.fast_start_zwa(7_750_000)
        assert sh.phase is Phase.STEADY
        assert sh.state.bs_opt_bytes == 7_750_000
        assert t_opt == pytest.approx(31.0)


class TestBinarySearch:
    def test_frozen_probe_sequence_without_zwa(self):
        sh = make_shaper(granularity=1.0)
        sh.end_fast_start(40 * 500e3 / 8)  # t_max = 40 s
        probes = [sh.state.t_s]
        k = 0
        while sh.phase is Phase.SEARCHING:
            sh.on_burst_feedback(feedback(k))
            k += 1
            if sh.phase is Phase.SEARCHING:
                probes.append(sh.state.t_s)
        assert probes == [20.0, 30.0, 35.0, 37.5, 38.75, 39.375]
        assert sh.state.t_s == 40.0
        # the last feedback set BS_OPT and ended the search
        assert sh.phase is Phase.STEADY
        assert sh.state.bs_opt_bytes == pytest.approx(40 * 500e3 / 8)
        assert k <= math.ceil(math.log2(40.0))

    def test_probes_strictly_increase(self):
        sh = make_shaper(granularity=0.5)
        sh.end_fast_start(3_000_000)
        prev = 0.0
        k = 0
        while sh.phase is Phase.SEARCHING:
            assert sh.state.t_s > prev
            prev = sh.state.t_s
            sh.on_burst_feedback(feedback(k))
            k += 1
        assert k <= math.ceil(math.log2(48.0 / 0.5))

    def test_zwa_sets_bs_opt_from_sent_bytes(self):
        sh = make_shaper(r_s=2e6)
        sh.end_fast_start(60 * 2e6 / 8)  # t_max = 60
        assert sh.state.t_s == 30.0
        sh.on_burst_feedback(feedback(0, zwa=True, sent_at_zwa=10_000_000))
        assert sh.state.bs_opt_bytes == 10_000_000
        assert sh.phase is Phase.STEADY
        assert sh.state.t_s == pytest.approx(10_000_000 * 8 / 2e6)  # 40 s

    def test_stale_feedback_ignored(self):
        sh = make_shaper()
        sh.end_fast_start(2_000_000)
        sh.on_burst_feedback(feedback(5))
        t_before = sh.state.t_s
        sh.on_burst_feedback(feedback(5, zwa=True, sent_at_zwa=1))
        assert sh.state.t_s == t_before
        assert sh.phase is Phase.SEARCHING

    def test_burst_size_capped_before_and_after(self):
        sh = make_shaper(r_s=1e6)
        sh.end_fast_start(5_000_000)  # t_max = 40 s
        assert sh.next_burst_bytes() <= 40 * 1e6 / 8
        sh.on_burst_feedback(feedback(0, zwa=True, sent_at_zwa=2_000_000))
        assert sh.next_burst_bytes(pending_bytes=9e9) == 2_000_000


class TestLowBandwidth:
    def test_save_update_restore_cycle(self):
        sh = make_shaper(r_s=128e3)
        sh.end_fast_start(14 * 128e3 / 8)  # t_max = 14 s
        k = 0
        while sh.phase is Phase.SEARCHING:
            sh.on_burst_feedback(feedback(k))
            k += 1
        assert sh.state.t_s == pytest.approx(14.0)

        sh.on_bandwidth_change(100e3, runway_s=13.0)
        assert sh.phase is Phase.LOW_BANDWIDTH
        assert sh.state.t_old_s == pytest.approx(14.0)

        # bandwidth between r_s and 2 r_s keeps the fallback going while
        # the shipped-content runway grows
        for runway in (20.0, 31.0, 43.0):
            sh.on_bandwidth_change(200e3, runway_s=runway)
            assert sh.phase is Phase.LOW_BANDWIDTH
            assert sh.state.t_max_s == pytest.approx(runway)

        sh.on_bandwidth_change(300e3, runway_s=43.0)
        assert sh.phase is Phase.SEARCHING
        assert sh.state.t_s == pytest.approx(14.0)
        assert sh.state.t_max_s == pytest.approx(43.0)
        assert sh.state.t_old_s is None

    def test_no_state_change_above_encoding_rate(self):
        sh = make_shaper(r_s=128e3)
        sh.end_fast_start(14 * 128e3 / 8)
        action = sh.on_bandwidth_change(200e3, runway_s=10.0)
        assert action is None
        assert sh.phase is Phase.SEARCHING


class TestQualitySelection:
    def test_initial_pick_is_700k(self):
        assert initial_quality(LADDER) == 0
        assert LADDER[initial_quality(LADDER)].bitrate_bps == 700e3

    def test_upgrade_needs_twice_the_rate_and_jumps(self):
        # 6.2 Mbit/s at 1500 kbit/s: every quality through 3000 is doubly
        # covered, so the switch lands at the top
        new, risk = select_quality(6.2e6, LADDER, current=2)
        assert (new, risk) == (5, False)

    def test_hold_between_thresholds(self):
        new, risk = select_quality(2.6e6, LADDER, current=2)
        assert (new, risk) == (2, False)

    def test_downgrade_to_sustainable(self):
        new, risk = select_quality(1.3e6, LADDER, current=3)
        assert (new, risk) == (1, False)

    def test_floor_flags_stall_risk(self):
        new, risk = select_quality(100e3, LADDER, current=1)
        assert (new, risk) == (0, True)

    def test_exhaustive_upgrade_rule(self):
        for cur in range(len(LADDER)):
            for est_kbps in range(100, 8001, 100):
                est = est_kbps * 1000.0
                new, _ = select_quality(est, LADDER, cur)
                upgraded = new > cur
                if cur + 1 < len(LADDER):
                    should = est >= 2 * LADDER[cur + 1].bitrate_bps and \
                        est >= LADDER[cur].bitrate_bps
                    assert upgraded == should
                else:
                    assert not upgraded


class TestPropagation:
    def test_zwa_limit_applies_to_all_qualities(self):
        sh = Shaper(SPEC)
        sh.propagate_bs_opt(5, 17_000_000, zwa_derived=True)
        per = sh.state.per_quality_bs_opt
        assert set(per) == set(range(len(LADDER)))
        assert all(v == 17_000_000 for v in per.values())

    def test_interval_limit_applies_downward_only(self):
        sh = Shaper(SPEC)
        # quality index 2 (1500 kbit/s) settled at t_max with 39 s worth
        bs = 39 * 1500e3 / 8
        sh.propagate_bs_opt(2, bs, zwa_derived=False)
        per = sh.state.per_quality_bs_opt
        assert set(per) == {0, 1, 2}
        assert per[0] == pytest.approx(39 * 700e3 / 8)
        assert per[2] == pytest.approx(bs)

    def test_upgrade_triggers_reseeded_search(self):
        sh = Shaper(SPEC, granularity_s=1.0)
        sh.end_fast_start(40 * 700e3 / 8)  # at initial quality 700k
        k = 0
        while sh.phase is Phase.SEARCHING:
            sh.on_burst_feedback(feedback(k))
            k += 1
        bs_before = sh.state.bs_opt_bytes
        switched = sh.maybe_switch_quality(6.2e6)
        assert switched == 5
        assert sh.phase is Phase.SEARCHING
        # re-search starts from the interval equivalent to the known bytes
        assert sh.state.t_min_s == pytest.approx(bs_before * 8 / 3000e3)
        assert sh.state.t_s == pytest.approx(sh.state.t_min_s)

    def test_downgrade_reuses_known_limit(self):
        sh = Shaper(SPEC, granularity_s=1.0)
        sh.state.current_quality_index = 2
        sh.end_fast_start(40 * 1500e3 / 8)
        sh.on_burst_feedback(feedback(0, zwa=True, sent_at_zwa=5_000_000))
        assert sh.phase is Phase.STEADY
        switched = sh.maybe_switch_quality(900e3)
        assert switched == 0
        assert sh.phase is Phase.STEADY
        assert sh.state.bs_opt_bytes == 5_000_000


class TestBurstLog:
    def test_row_format(self):
        sh = make_shaper(r_s=700e3)
        sh.end_fast_start(2_000_000)
        sh.log_burst(3, 11.4, 997_500, zwa=False)
        row = sh.burst_log[-1]
        fields = row.split(",")
        assert len(fields) == 7
        assert fields[0] == "3"
        assert fields[1] == "700000"
        assert fields[4] == "0"
        assert fields[6] == "SEARCHING"
        assert Shaper.BURST_LOG_HEADER.count(",") == row.count(",")


def formatted_burst_row(burst_id, r_s_bps, t_s, nbytes, zwa, bs_opt_bytes,
                        phase):
    """The burst-log row as ``Shaper.log_burst`` formatted it when it
    formatted each row at burst time, kept here as the reference."""
    bs_opt = "" if bs_opt_bytes is None else f"{bs_opt_bytes:.0f}"
    return (f"{burst_id},{r_s_bps:.0f},{t_s:.3f},{nbytes:.0f},"
            f"{int(zwa)},{bs_opt},{phase._value_}")


class TestBurstRecords:
    """The burst log is rendered from value records; the rows are the
    ones that formatting at burst time gave."""

    finite = st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False)

    @given(burst_id=st.integers(0, 10**9),
           r_s_bps=st.floats(1.0, 1e9), t_s=finite, nbytes=finite,
           zwa=st.booleans(), bs_opt_bytes=st.none() | finite,
           phase=st.sampled_from(Phase))
    def test_renderer_matches_the_burst_time_format(
            self, burst_id, r_s_bps, t_s, nbytes, zwa, bs_opt_bytes, phase):
        record = (burst_id, r_s_bps, t_s, nbytes, zwa, bs_opt_bytes,
                  phase.value)
        assert render_burst_row(record) == formatted_burst_row(
            burst_id, r_s_bps, t_s, nbytes, zwa, bs_opt_bytes, phase)

    def test_log_burst_records_values_that_render_as_the_row(self):
        sh = make_shaper(r_s=700e3)
        sh.end_fast_start(2_000_000)
        sh.log_burst(3, 11.4, 997_500.4, zwa=True)
        assert sh.burst_records == [
            (3, 700e3, 11.4, 997_500.4, True, None, "SEARCHING")]
        row = sh.burst_log[-1]
        assert row == formatted_burst_row(3, 700e3, 11.4, 997_500.4, True,
                                          None, Phase.SEARCHING)
        # each read renders a fresh list
        assert sh.burst_log == [row]
        assert sh.burst_log is not sh.burst_log


class TestReportSteady:
    """``report_steady`` books a plain STEADY burst as ``report`` does, bit
    for bit, and declines, writing nothing, whatever ``report`` would
    book differently."""

    @staticmethod
    def steady(duration_s=600.0, adaptive=False):
        # a zero window in Fast Start settles at once
        ctl = ShapingController(
            Shaper(StreamSpec((QualityLevel(500e3), QualityLevel(1.2e6)),
                              duration_s, 20.0)), adaptive=adaptive)
        send = ctl.start()
        fs = feedback(0, zwa=True, sent_at_zwa=1e6, size=send.size_bytes)
        ctl.report(Report(fs, 1e6, 0.0, 1.0, 8e6, 1.0))
        assert ctl.shaper.phase is Phase.STEADY
        return ctl

    @staticmethod
    def values(ctl):
        """The controller's and its shaper's state, but for the mark
        against stale feedback, which only ``report`` sets."""
        shaper = {k: v for k, v in vars(ctl.shaper).items()
                  if k != "_last_feedback_id"}
        ours = {k: v for k, v in vars(ctl).items() if k != "shaper"}
        return repr((ours, shaper, vars(ctl.shaper.state)))

    @pytest.mark.parametrize("delivered", [1e6, 1e6 - 0.5])
    def test_books_as_report(self, delivered):
        ctl = self.steady()
        twin = copy.deepcopy(ctl)
        for burst_id, start_s in enumerate((16.0, 32.0, 48.0), start=1):
            obs = feedback(burst_id, size=1e6)
            obs.acked_bytes = delivered
            send = twin.report(Report(obs, delivered, start_s, start_s + 2.0,
                                      4e6, start_s - 10.0))
            booked = ctl.report_steady(burst_id, 1e6, delivered, delivered,
                                       start_s, start_s + 2.0, 4e6,
                                       start_s - 10.0)
            assert repr(booked) == repr((send.size_bytes, send.at_s))
            assert self.values(ctl) == self.values(twin)

    @pytest.mark.parametrize("case", ["low-estimate", "content-end",
                                      "adaptive"])
    def test_declines_what_report_books_otherwise(self, case):
        ctl = self.steady(duration_s=30.0 if case == "content-end" else 600.0,
                          adaptive=case == "adaptive")
        before = self.values(ctl)
        est = 100e3 if case == "low-estimate" else 4e6
        assert ctl.report_steady(1, 1e6, 1e6, 1e6, 16.0, 18.0, est,
                                 6.0) is None
        assert self.values(ctl) == before
