"""Scenario runner: shaped vs baseline sessions, sweeps, config comparisons.

A scenario is a flat INI file naming a radio profile, a stream, a client,
a bandwidth trace, and optional periodic background traffic. ``run`` plays
the session twice: once shaped through the full feedback loop, once as the
baseline a non-shaping server would produce (content paced continuously at
the encoding rate), and reports the radio-energy saving between the two.
Savings cover the radio component only; both runs move the same content.
Every replayed span carries its bytes, so each active radio segment is
priced at its own receive rate.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .client import StreamingClient, tolerance
from .energy import RadioProfile, power_surface, surface_to_csv
from .errors import FieldError, finite_at_least, positive, positive_finite
from .profiles import (ConfigError, _read_ini, config_value, get_profile,
                       rejected_as_config)
from .radio import (ActivityTrace, SignalingCostTable, SignalingLedger,
                    StateTrace, energy_of, signaling_of, simulate)
from .session import BandwidthTrace, SessionResult, SimulatedSession
from .shaper import QualityLevel, StreamSpec, initial_quality


@dataclass
class BackgroundTraffic:
    period_s: float
    bytes: float
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        # a period of 0 would never end ``spans``
        positive_finite("period_s", self.period_s)
        finite_at_least("bytes", self.bytes)
        finite_at_least("phase_s", self.phase_s)

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


# the most background spans, session_s / period_s, a run may hold in memory
MAX_BACKGROUND_SPANS = 100_000


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
    adaptive: bool = False
    background: Optional[BackgroundTraffic] = None

    def __post_init__(self) -> None:
        # an endless session never ends ``run`` and a NaN one prices as
        # NaN; the client's buffer rule holds at load
        for name in ("session_length_s", "granularity_s"):
            positive_finite(name, getattr(self, name))
        tolerance("buffer_bytes", self.buffer_bytes)
        if self.background and not self.session_length_s / \
                self.background.period_s <= MAX_BACKGROUND_SPANS:
            raise FieldError("period_s", f">= session_s / "
                                         f"{MAX_BACKGROUND_SPANS}")
        finite_at_least("startup_s", self.startup_s)
        if self.link_bps is not None:
            positive("link_bps", self.link_bps)
        if self.session_length_s > self.stream.duration_s + 1e-9:
            raise ConfigError("session length exceeds stream duration "
                              "without looping enabled")


def load_scenario(path: Union[str, Path]) -> Scenario:
    """The scenario a file describes; any fault in the file is a
    ConfigError that names the file and the key."""
    return _read_ini(Path(path),
                     lambda cp: _scenario_from_parser(cp, Path(path).stem))


# the INI key each checked StreamSpec and Scenario field is read from
_SCENARIO_KEYS = {"session_length_s": "[scenario] session_s",
                  "granularity_s": "[scenario] granularity_s",
                  "fast_start_s": "[scenario] fast_start_s",
                  "duration_s": "[stream] duration_s",
                  "buffer_bytes": "[client] buffer_bytes",
                  "startup_s": "[client] startup_s",
                  "link_bps": "[client] link_bps",
                  "period_s": "[background] period_s"}


def _scenario_from_parser(cp: configparser.ConfigParser,
                          default_name: str) -> Scenario:
    try:
        sc = cp["scenario"]
        stream_sec = cp["stream"]
        client_sec = cp["client"]
    except KeyError as missing:
        raise ConfigError(f"scenario file lacks section {missing}")
    profile = get_profile(config_value(sc, "profile", convert=str))

    if stream_sec.get("qualities_bps"):
        key = "qualities_bps"
        rates = config_value(stream_sec, key, convert=lambda text: [
            float(v) for v in text.split(",")])
    else:
        key = "bitrate_bps"
        rates = [config_value(stream_sec, key)]
    with rejected_as_config(f"[stream] {key}", _SCENARIO_KEYS):
        stream = StreamSpec(tuple(map(QualityLevel, rates)),
                            config_value(stream_sec, "duration_s"),
                            config_value(sc, "fast_start_s", 20.0))
    if config_value(sc, "loop_content", False, bool):
        # looped content is a stream without end
        stream = replace(stream, duration_s=math.inf)

    steps: List[Tuple[float, float]] = []
    with rejected_as_config("[bandwidth] trace"):
        if cp.has_section("bandwidth") and cp["bandwidth"].get("trace"):
            for item in cp["bandwidth"].get("trace").split(","):
                t, colon, bps = item.partition(":")
                if not colon:
                    raise ValueError(f"{item.strip()!r} is not time_s:bps")
                steps.append((float(t), float(bps)))
        if not steps:
            default = profile.r_btc_bps or math.inf
            steps = [(0.0, default)]
        bandwidth = BandwidthTrace(tuple(steps))

    background = None
    if cp.has_section("background"):
        bg = cp["background"]
        with rejected_as_config("[background]"):
            background = BackgroundTraffic(config_value(bg, "period_s"),
                                           config_value(bg, "bytes"),
                                           config_value(bg, "phase_s", 0.0))
    with rejected_as_config("[scenario]", _SCENARIO_KEYS):
        return Scenario(
            name=sc.get("name", default_name),
            profile=profile,
            stream=stream,
            buffer_bytes=config_value(client_sec, "buffer_bytes"),
            bandwidth=bandwidth,
            session_length_s=config_value(sc, "session_s"),
            granularity_s=config_value(sc, "granularity_s", 1.0),
            link_bps=config_value(client_sec, "link_bps", None),
            startup_s=config_value(client_sec, "startup_s", 2.0),
            adaptive=config_value(sc, "adaptive", False, bool),
            background=background,
        )


@dataclass
class RunResult:
    """A scenario's shaped and baseline runs. ``burst_log`` is the shaped
    session's ``shaper.burst_log``."""

    scenario_name: str
    energy_mj: float
    energy_baseline_mj: float
    savings_pct: float
    stall_log: List[List[float]]
    signaling: SignalingLedger
    signaling_baseline: SignalingLedger
    session: SessionResult
    state_trace: StateTrace
    baseline_trace: StateTrace

    @property
    def burst_log(self) -> List[str]:
        """The shaped run's burst log, one CSV row per burst."""
        return self.session.shaper.burst_log

    def summary(self) -> str:
        t_opt = self.session.shaper.state.t_s
        return (f"{self.scenario_name}: shaped={self.energy_mj:.1f}mJ "
                f"baseline={self.energy_baseline_mj:.1f}mJ "
                f"savings={self.savings_pct:.1f}% "
                f"T={t_opt if t_opt is None else round(t_opt, 3)}s "
                f"stalls={len(self.stall_log)} "
                f"signaling/min={self.signaling.per_minute:.2f}")


def _build_session(scenario: Scenario) -> SimulatedSession:
    stream = scenario.stream
    ladder = stream.qualities
    client = StreamingClient(
        scenario.buffer_bytes,
        ladder[initial_quality(ladder)].bitrate_bps,  # the shaper's start
        scenario.link_bps if scenario.link_bps else math.inf,
        startup_threshold_s=scenario.startup_s,
        content_duration_s=stream.duration_s)
    return SimulatedSession(
        stream, client, scenario.bandwidth,
        session_length_s=scenario.session_length_s,
        granularity_s=scenario.granularity_s,
        adaptive=scenario.adaptive)


# the key of each rate a delivery can find too low to end: the client's link
# rate, or the offered rate it was given, which the bandwidth trace sets
_RATE_KEYS = {"link_rate_bps": "[client] link_bps",
              "at_rate_bps": "[bandwidth] trace"}


def _rate_key(scenario: Scenario, field: str) -> str:
    """The key that set the rate ``field`` of a delivery in ``scenario``;
    a scenario without a trace offers its profile's rate."""
    if field == "at_rate_bps" and scenario.bandwidth.steps == (
            (0.0, scenario.profile.r_btc_bps),):
        return "[profile] r_btc_bps"
    return _RATE_KEYS[field]


# the cost table of a run given none, built and checked once
_DEFAULT_COSTS = SignalingCostTable.default()


def run(scenario: Scenario,
        costs: Optional[SignalingCostTable] = None) -> RunResult:
    costs = costs or _DEFAULT_COSTS
    sim = _build_session(scenario)
    try:
        session = sim.run()
    except FieldError as exc:
        if exc.field not in _RATE_KEYS:
            raise
        raise ConfigError(f"{scenario.name}: {_rate_key(scenario, exc.field)}"
                          f" rate must be {exc.rule}") from None

    horizon = scenario.session_length_s
    background = scenario.background.spans(horizon, scenario.bandwidth) \
        if scenario.background else []

    def replay(spans):
        trace = simulate(ActivityTrace.from_spans(spans + background),
                         scenario.profile, horizon_s=horizon)
        return (trace, energy_of(trace, scenario.profile),
                signaling_of(trace, costs))

    shaped_trace, shaped_energy, shaped_ledger = \
        replay(session.activity_spans)
    # baseline: same content paced continuously at the encoding rate
    r_s = scenario.stream.qualities[0].bitrate_bps
    base_dur = min(session.content_sent_bytes * 8.0 / r_s, horizon)
    baseline_trace, baseline_energy, baseline_ledger = \
        replay([(0.0, base_dur, session.content_sent_bytes)])

    savings = (1.0 - shaped_energy / baseline_energy) * 100.0 \
        if baseline_energy > 0 else 0.0
    return RunResult(
        scenario.name, shaped_energy, baseline_energy, savings,
        session.stall_log, shaped_ledger, baseline_ledger, session,
        shaped_trace, baseline_trace)


def sweep_surface(profile: RadioProfile, r_s_list: Sequence[float],
                  t_list: Sequence[float], b_list: Sequence[float]) -> str:
    """The power surface over the grid as one CSV string. To write a large
    surface without holding its CSV, pass ``power_surface``'s result to
    ``energy.write_surface_csv``, as ``burststream sweep`` does."""
    return surface_to_csv(profile,
                          power_surface(profile, r_s_list, t_list, b_list))


def compare_configs(scenario: Scenario, profiles: Sequence[RadioProfile],
                    costs: Optional[SignalingCostTable] = None,
                    expect_energy_order: Optional[Sequence[str]] = None,
                    ) -> List[Dict]:
    """Run the same scenario under several radio configurations.

    ``expect_energy_order`` optionally names profiles in non-decreasing
    shaped-energy order; a name that is not among ``profiles`` is a
    ConfigError before any run, and a violation raises AssertionError so
    scripted comparisons exit nonzero.
    """
    if len(profiles) < 2:
        raise ConfigError("compare_configs needs at least two profiles")
    names = [profile.name or profile.technology.value
             for profile in profiles]
    unknown = [n for n in expect_energy_order or () if n not in names]
    if unknown:
        raise ConfigError(f"expected energy order names "
                          f"{', '.join(unknown)}, not among the compared "
                          f"profiles {', '.join(names)}")
    rows = []
    for name, profile in zip(names, profiles):
        result = run(replace(scenario, profile=profile,
                             name=f"{scenario.name}/{name}"), costs)
        rows.append({
            "profile": name,
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
            # raised, not asserted: ``python -O`` drops assert statements
            if not by_name[a] <= by_name[b]:
                raise AssertionError(
                    f"expected energy({a}) <= energy({b}), got "
                    f"{by_name[a]:.1f} > {by_name[b]:.1f}")
    return rows


def compare_table(rows: List[Dict]) -> str:
    lines = ["profile,energy_mj,savings_pct,signaling_per_min,"
             "transitions_per_min,t_opt_s"]
    for r in rows:
        lines.append(f"{r['profile']},{r['energy_mj']:.3f},"
                     f"{r['savings_pct']:.2f},{r['signaling_per_min']:.3f},"
                     f"{r['transitions_per_min']:.3f},{r['t_opt_s']:.3f}")
    return "\n".join(lines) + "\n"
