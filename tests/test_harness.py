"""Harness tests: scenario files, paired runs, sweeps, comparisons."""

import math
from dataclasses import replace
from pathlib import Path

import pytest

from burststream import (BackgroundTraffic, BandwidthTrace, ConfigError,
                         QualityLevel, RadioProfile, Scenario, StreamSpec,
                         Technology, compare_configs, compare_table,
                         get_profile, harness, load_profile_file,
                         load_scenario, radio, run, shaper, sweep_surface)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def small_scenario(profile_name="lte-drx-default", background=None,
                   bandwidth=None, buffer_bytes=10_000_000, fs=18.0,
                   session_s=300.0):
    return Scenario(
        name="test",
        profile=get_profile(profile_name),
        stream=StreamSpec.single(128e3, duration_s=600.0, fast_start_s=fs),
        buffer_bytes=buffer_bytes,
        bandwidth=bandwidth or BandwidthTrace.flat(16e6),
        session_length_s=session_s,
        background=background,
    )


class TestScenarioFiles:
    def test_load_shipped_scenario(self):
        sc = load_scenario(SCENARIO_DIR / "lte-audio-18s.ini")
        assert sc.name == "lte-audio-18s"
        assert sc.profile.name == "lte-drx-default"
        assert sc.stream.fast_start_s == 18.0
        assert sc.buffer_bytes == 10_000_000

    def test_bandwidth_trace_parsing(self):
        sc = load_scenario(SCENARIO_DIR / "hspa-audio-fluctuating.ini")
        assert sc.bandwidth.at(0.0) == 3e6
        assert sc.bandwidth.at(70.0) == 120e3
        assert sc.bandwidth.at(100.0) == 200e3
        assert sc.bandwidth.at(200.0) == 3e6

    def test_background_section(self):
        sc = load_scenario(SCENARIO_DIR / "wifi-video-bg.ini")
        assert sc.background is not None
        assert sc.background.period_s == 60.0

    @pytest.mark.parametrize("period_s, nbytes, phase_s, key", [
        (0.0, 1000.0, 0.0, "period_s"), (-5.0, 1000.0, 0.0, "period_s"),
        (float("inf"), 1000.0, 0.0, "period_s"),
        (float("nan"), 1000.0, 0.0, "period_s"),
        (60.0, -1.0, 0.0, "bytes"), (60.0, float("inf"), 0.0, "bytes"),
        (60.0, float("nan"), 0.0, "bytes"), (60.0, 1000.0, -1.0, "phase_s")])
    def test_background_rejects_what_never_ends(self, period_s, nbytes,
                                                phase_s, key):
        # a period of 0 made ``spans`` loop until memory ran out
        with pytest.raises(ValueError, match=key):
            BackgroundTraffic(period_s, nbytes, phase_s)

    def test_a_period_implying_too_many_spans_names_it(self):
        # ``period_s = 1e-308`` passed its rule, and ``spans`` then grew
        # until memory ran out
        with pytest.raises(ValueError, match="period_s") as err:
            small_scenario(background=BackgroundTraffic(1e-308, 1000.0))
        assert err.value.field == "period_s"
        limit = harness.MAX_BACKGROUND_SPANS
        with pytest.raises(ValueError, match="period_s"):
            small_scenario(background=BackgroundTraffic(
                300.0 / limit * 0.999, 1000.0))
        small_scenario(background=BackgroundTraffic(300.0 / limit * 1.001,
                                                    1000.0))

    @pytest.mark.parametrize("buffer_bytes", [1e300, 1e308, 1.5e12])
    def test_a_buffer_whose_tolerance_tops_a_segment_names_it(
            self, buffer_bytes):
        # 1e-9 of a 1e300-byte buffer took in the whole Fast Start, and
        # the run failed later on "fast start sent_bytes"
        with pytest.raises(ValueError, match="one segment") as err:
            small_scenario(buffer_bytes=buffer_bytes)
        assert err.value.field == "buffer_bytes"

    def test_the_largest_buffer_runs(self):
        assert run(small_scenario(buffer_bytes=1.4e12)).stall_log == []

    def test_missing_profile_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario]\nname=x\nprofile=no-such\nsession_s=10\n"
                       "fast_start_s=5\n[stream]\nbitrate_bps=1\n"
                       "duration_s=10\n[client]\nbuffer_bytes=1\n")
        with pytest.raises(ConfigError):
            load_scenario(bad)

    def test_session_longer_than_content_rejected(self):
        with pytest.raises(ConfigError):
            Scenario("x", get_profile("wifi-ref"),
                     StreamSpec.single(1e6, duration_s=10.0,
                                       fast_start_s=5.0),
                     1e6, BandwidthTrace.flat(1e7), session_length_s=60.0)


class TestRun:
    def test_shaping_saves_radio_energy(self):
        result = run(small_scenario())
        assert result.energy_mj < result.energy_baseline_mj
        assert 0 < result.savings_pct < 100
        assert result.stall_log == []
        assert result.session.shaper.state.t_s == pytest.approx(18.0)

    def test_zero_length_bandwidth_step_changes_nothing(self):
        flat = run(small_scenario(
            bandwidth=BandwidthTrace(((0.0, 16e6),))))
        blip = run(small_scenario(
            bandwidth=BandwidthTrace(((0.0, 16e6), (50.0, 16e6)))))
        assert flat.energy_mj == blip.energy_mj
        assert flat.burst_log == blip.burst_log

    def test_background_traffic_strictly_costs_energy(self):
        base = run(small_scenario())
        bg = run(small_scenario(
            background=BackgroundTraffic(period_s=60, bytes=50_000,
                                         phase_s=30)))
        assert bg.energy_mj > base.energy_mj

    def test_determinism_byte_identical(self):
        a = run(small_scenario())
        b = run(small_scenario())
        assert a.state_trace.to_csv() == b.state_trace.to_csv()
        assert a.signaling.to_csv() == b.signaling.to_csv()
        assert a.burst_log == b.burst_log

    def test_run_builds_no_state_segment(self, monkeypatch):
        # the replay reads the trace's columns; segments are built only
        # when a caller reads ``StateTrace.segments``
        def refuse(*args):
            raise AssertionError("StateSegment built")
        monkeypatch.setattr(radio, "StateSegment", refuse)
        result = run(small_scenario(
            background=BackgroundTraffic(period_s=60, bytes=50_000,
                                         phase_s=30)))
        assert result.energy_mj > 0
        with pytest.raises(AssertionError, match="StateSegment built"):
            result.state_trace.segments[0]

    def test_baseline_moves_same_content(self):
        result = run(small_scenario())
        base_bytes = result.baseline_trace.segments
        total = sum(s.rate_bps * s.duration_s / 8 for s in base_bytes
                    if s.active and s.rate_bps)
        assert total == pytest.approx(result.session.content_sent_bytes,
                                      rel=1e-6)


class TestBuildSession:
    def test_adaptive_client_drains_at_the_shapers_starting_rate(self):
        ladder = tuple(QualityLevel(r) for r in (500e3, 800e3, 1.5e6))
        sc = Scenario(
            name="adaptive", profile=get_profile("hspa-default"),
            stream=StreamSpec(ladder, duration_s=600.0, fast_start_s=20.0),
            buffer_bytes=10_000_000, bandwidth=BandwidthTrace.flat(6e6),
            session_length_s=300.0, startup_s=2.0, adaptive=True)
        sim = harness._build_session(sc)
        assert sim.shaper.r_s_bps == 800e3
        assert sim.client.drain_rate_bps == sim.shaper.r_s_bps
        assert sim.client.startup_bytes == 2.0 * 800e3 / 8.0


class TestLoopedContent:
    """A ``loop_content`` scenario streams its content over and over: the
    session runs past the content's end as an endless stream would."""

    @staticmethod
    def scenario(duration_s):
        return Scenario(
            name="looped", profile=get_profile("lte-drx-default"),
            stream=StreamSpec.single(128e3, duration_s=duration_s,
                                     fast_start_s=18.0),
            buffer_bytes=10_000_000, bandwidth=BandwidthTrace.flat(16e6),
            session_length_s=120.0)

    def test_looped_scenario_streams_past_the_content(self, tmp_path):
        path = tmp_path / "looped.ini"
        path.write_text(
            "[scenario]\nprofile = lte-drx-default\nsession_s = 120\n"
            "fast_start_s = 18\nloop_content = true\n"
            "[stream]\nbitrate_bps = 128000\nduration_s = 30\n"
            "[client]\nbuffer_bytes = 10000000\n"
            "[bandwidth]\ntrace = 0:16000000\n")
        looped = load_scenario(path)
        assert looped.stream.duration_s == math.inf
        res = run(looped)
        s = res.session
        assert s.content_sent_s > 30.0
        assert s.trajectory[-1]["time_s"] > 30.0
        assert not s.stalls_after_fast_start()
        assert res.state_trace.segments[-1].end_s == pytest.approx(120.0)
        # 30 s of looped content ships as a stream that outlasts the
        # session does
        endless = run(self.scenario(1e6))
        assert res.burst_log == endless.burst_log
        assert s.decision_log == endless.session.decision_log
        assert res.energy_mj == endless.energy_mj


class TestRenderOnRead:
    @pytest.mark.parametrize("name", sorted(
        p.name for p in SCENARIO_DIR.glob("*.ini")))
    def test_burst_rows_render_only_when_read(self, monkeypatch, name):
        # the session records values; a row is rendered when the log is
        # read, once per read
        rendered = []
        render = shaper.render_burst_row

        def counting_render(record):
            rendered.append(record)
            return render(record)

        monkeypatch.setattr(shaper, "render_burst_row", counting_render)
        result = run(load_scenario(SCENARIO_DIR / name))
        assert rendered == []
        records = result.session.shaper.burst_records
        assert records
        rows = result.burst_log
        assert rendered == records
        assert rows == [render(record) for record in records]
        assert result.session.shaper.burst_log == rows
        assert len(rendered) == 2 * len(records)


class TestSweep:
    def test_writes_csv(self):
        csv = sweep_surface(get_profile("wifi-ref"), [500e3],
                            [1.0, 2.0, 4.0], [1e6, 2e6])
        lines = csv.splitlines()
        assert lines[0].startswith("technology,")
        assert len(lines) == 1 + 6
        assert lines[1].startswith("WIFI,500000,")


class TestCompare:
    def test_identical_profiles_identical_rows(self):
        p = get_profile("lte-drx-default")
        rows = compare_configs(small_scenario(), [p, p])
        assert rows[0]["energy_mj"] == rows[1]["energy_mj"]
        assert rows[0]["signaling_per_min"] == rows[1]["signaling_per_min"]

    def test_longer_lte_idle_timer_wins_with_drx(self):
        rows = compare_configs(
            small_scenario(), [get_profile("lte-drx-default"),
                               get_profile("lte-drx-longidle")],
            expect_energy_order=["lte-drx-longidle", "lte-drx-default"])
        by = {r["profile"]: r for r in rows}
        assert by["lte-drx-longidle"]["energy_mj"] < \
            by["lte-drx-default"]["energy_mj"]

    def test_expected_order_violation_raises(self):
        with pytest.raises(AssertionError):
            compare_configs(
                small_scenario(), [get_profile("lte-drx-default"),
                                   get_profile("lte-drx-longidle")],
                expect_energy_order=["lte-drx-default",
                                     "lte-drx-longidle"])

    def test_legacy_fd_device_signals_more(self):
        sc = small_scenario(profile_name="hspa-default", fs=39.0,
                            bandwidth=BandwidthTrace.flat(6e6),
                            session_s=600.0)
        rows = compare_configs(sc, [get_profile("hspa-default"),
                                    get_profile("hspa-legacy-fd")])
        by = {r["profile"]: r for r in rows}
        assert by["hspa-legacy-fd"]["signaling_per_min"] > \
            by["hspa-default"]["signaling_per_min"]

    def test_every_scenario_setting_carries_over(self, monkeypatch):
        background = BackgroundTraffic(period_s=40, bytes=30_000, phase_s=5)
        scenario = replace(
            small_scenario(background=background),
            stream=StreamSpec((QualityLevel(128e3), QualityLevel(256e3)),
                              600.0, 18.0),
            adaptive=True)
        ran = []
        real_run = harness.run

        def recording_run(sc, costs=None):
            ran.append(sc)
            return real_run(sc, costs)

        monkeypatch.setattr(harness, "run", recording_run)
        profiles = [get_profile("lte-drx-default"), get_profile("wifi-ref")]
        compare_configs(scenario, profiles)
        assert [sc.profile for sc in ran] == profiles
        for sc in ran:
            assert sc.adaptive and sc.background is background
            assert replace(sc, name=scenario.name,
                           profile=scenario.profile) == scenario

    def test_table_rendering(self):
        rows = compare_configs(small_scenario(),
                               [get_profile("lte-drx-default"),
                                get_profile("lte-drx-longidle")])
        table = compare_table(rows)
        assert table.splitlines()[0].startswith("profile,energy_mj")
        assert len(table.splitlines()) == 3


class TestShippedProfiles:
    def test_network_config_rows_ship_with_quoted_timers(self):
        rows = {
            "hspa-default": dict(t1_s=8.0, t2_s=3.0, t3_s=1740.0,
                                 pch_enabled=True),
            "hspa-aggressive": dict(t1_s=6.0, t2_s=2.0, t3_s=1740.0,
                                    pch_enabled=True),
            "hspa-nopch": dict(t1_s=8.0, t2_s=10.0, pch_enabled=False),
            "lte-nodrx-default": dict(t1_s=10.0, drx=None),
            "lte-drx-default": dict(t1_s=10.0),
            "lte-drx-longidle": dict(t1_s=20.0),
        }
        for name, expected in rows.items():
            profile = get_profile(name)
            for attr, value in expected.items():
                assert getattr(profile, attr) == value, (name, attr)
        for name in ("lte-drx-default", "lte-drx-longidle"):
            drx = get_profile(name).drx
            assert (drx.idle_ms, drx.cycle_ms, drx.on_ms) == (750, 640, 20)

    def test_a_profile_file_sets_only_its_keys(self, tmp_path):
        path = tmp_path / "bare.ini"
        path.write_text("[profile]\ntechnology = wifi\nt1_s = 0.2\n")
        assert load_profile_file(path) == RadioProfile(Technology.WIFI, 0.2)

    def test_wifi_reference_timer_and_powers(self):
        p = get_profile("wifi-ref")
        assert (p.t1_s, p.p_tail_mw) == (0.2, 435.0)
        from burststream import delta_power_rx
        assert delta_power_rx(20e6, p) == pytest.approx(760.0, rel=1e-9)


def dip_scenario(dip):
    """500 kbit/s over a 4 Mbit/s link, with or without a 250 kbit/s dip
    from 60 to 130 s."""
    steps = ((0.0, 4e6), (60.0, 250e3), (130.0, 4e6)) if dip \
        else ((0.0, 4e6),)
    return Scenario(
        name="dip", profile=get_profile("hspa-default"),
        stream=StreamSpec.single(500e3, duration_s=300.0, fast_start_s=30.0),
        buffer_bytes=10_000_000, bandwidth=BandwidthTrace(steps),
        session_length_s=300.0)


class TestRecoveryAfterADip:
    def test_without_the_dip_the_search_settles_at_t_max(self):
        res = run(dip_scenario(False))
        assert res.session.shaper.state.t_s == pytest.approx(30.0)
        assert len(res.session.trajectory) == 11

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="known defect: on recovery from a "
                       "low-bandwidth episode on_bandwidth_change restores "
                       "t_old with t_max set to the drained runway, and the "
                       "search settles at that runway (2.2 s here) for the "
                       "rest of the session")
    def test_recovery_resumes_the_saved_search(self):
        s = run(dip_scenario(True)).session
        rows = s.trajectory
        restored = next(cur for prev, cur in zip(rows, rows[1:])
                        if prev["phase"] == "LOW_BANDWIDTH"
                        and cur["phase"] == "SEARCHING")
        saved = next(row["t_old_s"] for row in rows
                     if row["phase"] == "LOW_BANDWIDTH")
        assert restored["t_s"] == saved
        # the restored interval lies within the search's bound, and the
        # search ends no lower than where the dip interrupted it
        assert restored["t_max_s"] >= restored["t_s"]
        assert s.shaper.state.t_s >= saved
