"""Harness tests: scenario files, paired runs, sweeps, comparisons."""

from pathlib import Path

import pytest

from burststream import (BackgroundTraffic, BandwidthTrace, ConfigError,
                         QualityLevel, Scenario, StreamSpec, compare_configs,
                         compare_table, get_profile, harness, load_scenario,
                         run, sweep_surface)

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


class TestSweep:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "surface.csv"
        csv = sweep_surface(get_profile("wifi-ref"), [500e3],
                            [1.0, 2.0, 4.0], [1e6, 2e6], out_path=out)
        assert out.read_text() == csv
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

    def test_wifi_reference_timer_and_powers(self):
        p = get_profile("wifi-ref")
        assert (p.t1_s, p.p_tail_mw) == (0.2, 435.0)
        from burststream import delta_power_rx
        assert delta_power_rx(20e6, p) == pytest.approx(760.0, rel=1e-9)
