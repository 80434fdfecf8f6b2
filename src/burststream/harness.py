"""Scenario runner: shaped vs baseline sessions, sweeps, config comparisons.

A scenario is a flat INI file naming a radio profile, a stream, a client,
a bandwidth trace, and optional periodic background traffic. ``run`` plays
the session twice: once shaped through the full feedback loop, once as the
baseline a non-shaping server would produce (content paced continuously at
the encoding rate), and reports the radio-energy saving between the two.
Savings cover the radio component only; both runs move the same content.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .client import StreamingClient
from .energy import RadioProfile, power_surface, surface_to_csv
from .profiles import ConfigError, get_profile
from .radio import (ActivityTrace, SignalingCostTable, SignalingLedger,
                    StateTrace, energy_of, signaling_of, simulate)
from .session import BandwidthTrace, SessionResult, SimulatedSession
from .shaper import QualityLevel, StreamSpec, initial_quality


@dataclass
class BackgroundTraffic:
    period_s: float
    bytes: float
    phase_s: float = 0.0

    def spans(self, horizon_s: float,
              bandwidth: BandwidthTrace) -> List[Tuple[float, float, float]]:
        out = []
        t = self.phase_s
        while t < horizon_s:
            rate = bandwidth.at(t)
            dur = self.bytes * 8.0 / rate if math.isfinite(rate) else 1e-3
            out.append((t, min(t + dur, horizon_s), self.bytes))
            t += self.period_s
        return out


@dataclass
class Scenario:
    name: str
    profile: RadioProfile
    stream: StreamSpec
    buffer_bytes: float
    bandwidth: BandwidthTrace
    session_length_s: float
    granularity_s: float = 1.0
    link_bps: Optional[float] = None
    startup_s: float = 2.0
    loop_content: bool = False
    adaptive: bool = False
    background: Optional[BackgroundTraffic] = None

    def __post_init__(self) -> None:
        if not self.loop_content and \
                self.session_length_s > self.stream.duration_s + 1e-9:
            raise ConfigError("session length exceeds stream duration "
                              "without looping enabled")


def load_scenario(path: Union[str, Path]) -> Scenario:
    cp = configparser.ConfigParser()
    if not cp.read(str(path)):
        raise ConfigError(f"scenario file not found: {path}")
    try:
        sc = cp["scenario"]
        stream_sec = cp["stream"]
        client_sec = cp["client"]
    except KeyError as missing:
        raise ConfigError(f"scenario file lacks section {missing}")
    profile = get_profile(sc.get("profile"))

    if stream_sec.get("qualities_bps"):
        ladder = tuple(QualityLevel(float(v)) for v in
                       stream_sec.get("qualities_bps").split(","))
    else:
        ladder = (QualityLevel(stream_sec.getfloat("bitrate_bps")),)
    stream = StreamSpec(ladder, stream_sec.getfloat("duration_s"),
                        sc.getfloat("fast_start_s", 20.0))

    steps: List[Tuple[float, float]] = []
    if cp.has_section("bandwidth") and cp["bandwidth"].get("trace"):
        for item in cp["bandwidth"].get("trace").split(","):
            t, bps = item.strip().split(":")
            steps.append((float(t), float(bps)))
    if not steps:
        default = profile.r_btc_bps or math.inf
        steps = [(0.0, default)]
    bandwidth = BandwidthTrace(tuple(steps))

    background = None
    if cp.has_section("background"):
        bg = cp["background"]
        background = BackgroundTraffic(bg.getfloat("period_s"),
                                       bg.getfloat("bytes"),
                                       bg.getfloat("phase_s", 0.0))
    return Scenario(
        name=sc.get("name", Path(path).stem),
        profile=profile,
        stream=stream,
        buffer_bytes=client_sec.getfloat("buffer_bytes"),
        bandwidth=bandwidth,
        session_length_s=sc.getfloat("session_s"),
        granularity_s=sc.getfloat("granularity_s", 1.0),
        link_bps=client_sec.getfloat("link_bps", fallback=None),
        startup_s=client_sec.getfloat("startup_s", 2.0),
        loop_content=sc.getboolean("loop_content", False),
        adaptive=sc.getboolean("adaptive", False),
        background=background,
    )


@dataclass
class RunResult:
    scenario_name: str
    energy_mj: float
    energy_baseline_mj: float
    savings_pct: float
    stall_log: List[List[float]]
    signaling: SignalingLedger
    signaling_baseline: SignalingLedger
    burst_log: List[str]
    session: SessionResult
    state_trace: StateTrace
    baseline_trace: StateTrace

    def summary(self) -> str:
        t_opt = self.session.shaper.state.t_s
        return (f"{self.scenario_name}: shaped={self.energy_mj:.1f}mJ "
                f"baseline={self.energy_baseline_mj:.1f}mJ "
                f"savings={self.savings_pct:.1f}% "
                f"T={t_opt if t_opt is None else round(t_opt, 3)}s "
                f"stalls={len(self.stall_log)} "
                f"signaling/min={self.signaling.per_minute:.2f}")


def _build_session(scenario: Scenario) -> SimulatedSession:
    ladder = scenario.stream.qualities
    client = StreamingClient(
        scenario.buffer_bytes,
        ladder[initial_quality(ladder)].bitrate_bps,  # the shaper's start
        scenario.link_bps if scenario.link_bps else math.inf,
        startup_threshold_s=scenario.startup_s,
        content_duration_s=(None if scenario.loop_content
                            else scenario.stream.duration_s))
    return SimulatedSession(
        scenario.stream, client, scenario.bandwidth,
        session_length_s=scenario.session_length_s,
        granularity_s=scenario.granularity_s,
        loop_content=scenario.loop_content,
        adaptive=scenario.adaptive)


def run(scenario: Scenario,
        costs: Optional[SignalingCostTable] = None) -> RunResult:
    costs = costs or SignalingCostTable.default()
    sim = _build_session(scenario)
    session = sim.run()

    horizon = scenario.session_length_s
    spans = list(session.activity_spans)
    if scenario.background:
        spans.extend(scenario.background.spans(horizon, scenario.bandwidth))
    shaped_trace = simulate(ActivityTrace.from_spans(spans),
                            scenario.profile, horizon_s=horizon)
    r_s = scenario.stream.qualities[0].bitrate_bps
    shaped_energy = energy_of(shaped_trace, scenario.profile,
                              rx_rate_bps=r_s)

    # baseline: same content paced continuously at the encoding rate
    base_dur = min(session.content_sent_bytes * 8.0 / r_s, horizon)
    base_spans = [(0.0, base_dur, session.content_sent_bytes)]
    if scenario.background:
        base_spans.extend(scenario.background.spans(horizon,
                                                    scenario.bandwidth))
    baseline_trace = simulate(ActivityTrace.from_spans(base_spans),
                              scenario.profile, horizon_s=horizon)
    baseline_energy = energy_of(baseline_trace, scenario.profile,
                                rx_rate_bps=r_s)

    savings = (1.0 - shaped_energy / baseline_energy) * 100.0 \
        if baseline_energy > 0 else 0.0
    return RunResult(
        scenario.name, shaped_energy, baseline_energy, savings,
        session.stall_log, signaling_of(shaped_trace, costs),
        signaling_of(baseline_trace, costs), session.burst_rows, session,
        shaped_trace, baseline_trace)


def sweep_surface(profile: RadioProfile, r_s_list: Sequence[float],
                  t_list: Sequence[float], b_list: Sequence[float],
                  out_path: Optional[Union[str, Path]] = None) -> str:
    rows = power_surface(profile, r_s_list, t_list, b_list)
    csv = surface_to_csv(profile, rows)
    if out_path is not None:
        Path(out_path).write_text(csv)
    return csv


def compare_configs(scenario: Scenario, profiles: Sequence[RadioProfile],
                    costs: Optional[SignalingCostTable] = None,
                    expect_energy_order: Optional[Sequence[str]] = None,
                    ) -> List[Dict]:
    """Run the same scenario under several radio configurations.

    ``expect_energy_order`` optionally names profiles in non-decreasing
    shaped-energy order; violations raise AssertionError so scripted
    comparisons exit nonzero.
    """
    if len(profiles) < 2:
        raise ConfigError("compare_configs needs at least two profiles")
    rows = []
    for profile in profiles:
        sc = Scenario(
            name=f"{scenario.name}/{profile.name or profile.technology.value}",
            profile=profile, stream=scenario.stream,
            buffer_bytes=scenario.buffer_bytes, bandwidth=scenario.bandwidth,
            session_length_s=scenario.session_length_s,
            granularity_s=scenario.granularity_s, link_bps=scenario.link_bps,
            startup_s=scenario.startup_s, loop_content=scenario.loop_content,
            adaptive=scenario.adaptive, background=scenario.background)
        result = run(sc, costs)
        rows.append({
            "profile": profile.name or profile.technology.value,
            "energy_mj": result.energy_mj,
            "energy_baseline_mj": result.energy_baseline_mj,
            "savings_pct": result.savings_pct,
            "signaling_per_min": result.signaling.per_minute,
            "transitions_per_min": result.signaling.transition_total /
                (scenario.session_length_s / 60.0),
            "t_opt_s": result.session.shaper.state.t_s,
            "result": result,
        })
    if expect_energy_order:
        by_name = {r["profile"]: r["energy_mj"] for r in rows}
        for a, b in zip(expect_energy_order, expect_energy_order[1:]):
            assert by_name[a] <= by_name[b], \
                f"expected energy({a}) <= energy({b}), got " \
                f"{by_name[a]:.1f} > {by_name[b]:.1f}"
    return rows


def compare_table(rows: List[Dict]) -> str:
    lines = ["profile,energy_mj,savings_pct,signaling_per_min,"
             "transitions_per_min,t_opt_s"]
    for r in rows:
        lines.append(f"{r['profile']},{r['energy_mj']:.3f},"
                     f"{r['savings_pct']:.2f},{r['signaling_per_min']:.3f},"
                     f"{r['transitions_per_min']:.3f},{r['t_opt_s']:.3f}")
    return "\n".join(lines) + "\n"
