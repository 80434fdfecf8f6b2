"""Simulated end-to-end streaming sessions.

``SimulatedSession`` is the simulated transport of the shaping loop: it
performs each send a ``ShapingController`` asks for against the fluid
client, feeds the ACKs through the traffic profiler, and reports back, on
one simulated clock up to the session horizon. Also provides the isolated
probe search and the linear-sweep oracle used to validate the search
against a client of known buffer size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .client import StreamingClient
from .profiler import TrafficProfiler
from .shaper import (TYPICAL_MOBILE_BPS, Phase, Report, Send, Shaper,
                     ShapingController, StreamSpec)


@dataclass(frozen=True)
class BandwidthTrace:
    """Piecewise-constant end-to-end bandwidth, as (time_s, bps) steps."""

    steps: Tuple[Tuple[float, float], ...] = ((0.0, math.inf),)

    def __post_init__(self) -> None:
        times = [t for t, _ in self.steps]
        if times != sorted(times):
            raise ValueError("bandwidth trace times must be increasing")
        if any(bps <= 0 for _, bps in self.steps):
            raise ValueError("bandwidth must be > 0")

    def at(self, t: float) -> float:
        current = self.steps[0][1]
        for st, bps in self.steps:
            if st <= t + 1e-12:
                current = bps
            else:
                break
        return current

    @classmethod
    def flat(cls, bps: float) -> "BandwidthTrace":
        return cls(((0.0, bps),))


@dataclass
class SessionResult:
    activity_spans: List[Tuple[float, float, float]]
    burst_rows: List[str]
    stall_log: List[List[float]]
    fs_end_s: float
    content_sent_bytes: float
    content_sent_s: float
    trajectory: List[Dict]
    decision_log: List[str]
    quality_switches: List[Tuple[float, int]]
    zwa_bursts: int
    shaper: Shaper

    def stalls_after_fast_start(self) -> List[List[float]]:
        return [s for s in self.stall_log if s[0] > self.fs_end_s + 1e-9]


class SimulatedSession:
    """One shaped streaming session: a ``ShapingController`` driving the
    simulated client on the simulated clock until the session horizon."""

    def __init__(self, stream: StreamSpec, client: StreamingClient,
                 bandwidth: BandwidthTrace,
                 session_length_s: float,
                 granularity_s: float = 1.0,
                 loop_content: bool = False,
                 adaptive: bool = False,
                 low_bw_chunk_s: float = 1.0,
                 bandwidth_hint_bps: float = TYPICAL_MOBILE_BPS):
        self.stream = stream
        self.client = client
        self.bandwidth = bandwidth
        self.session_length_s = session_length_s
        self.shaper = Shaper(stream, granularity_s, bandwidth_hint_bps)
        self.controller = ShapingController(self.shaper, low_bw_chunk_s,
                                            adaptive, loop_content)
        self.profiler = TrafficProfiler()
        self.activity_spans: List[Tuple[float, float, float]] = []
        self.trajectory: List[Dict] = []
        self.quality_switches: List[Tuple[float, int]] = []
        self.zwa_bursts = 0

    def _deliver(self, send: Send) -> Report:
        """Perform one send through the profiler and the fluid client."""
        size, send_at = send.size_bytes, send.at_s
        self.profiler.begin_burst(size, self.client.total_delivered_bytes,
                                  send_at)
        res = self.client.deliver(size, self.bandwidth.at(send_at), send_at,
                                  abort_on_zwa=send.abort_on_zwa)
        for ack in res.feedback:
            self.profiler.ingest(ack)
        obs = self.profiler.finish_burst()
        delivered = res.delivered_bytes
        if res.end_s > send_at and delivered > 0:
            self.activity_spans.append((send_at, res.end_s, delivered))
        if obs.zwa_seen:
            self.zwa_bursts += 1
        wall = res.end_s - send_at
        est = delivered * 8.0 / wall if wall > 0 and delivered > 0 else None
        return Report(obs, delivered, send_at, res.end_s, est,
                      self.client.playback_position_s)

    def run(self) -> SessionResult:
        ctl, shaper, st = self.controller, self.shaper, self.shaper.state
        send = ctl.start()
        while True:       # the Fast Start always goes out
            report = self._deliver(send)
            quality = st.current_quality_index
            send = ctl.report(report)
            now = report.end_s
            if st.current_quality_index != quality:
                self.quality_switches.append((now, st.current_quality_index))
                self.client.set_drain_rate(shaper.r_s_bps)
            self.trajectory.append({
                "time_s": now, "phase": st.phase.value, "t_s": st.t_s,
                "t_min_s": st.t_min_s, "t_max_s": st.t_max_s,
                "t_old_s": st.t_old_s, "bs_opt_bytes": st.bs_opt_bytes,
                "runway_s": (ctl.content_sent_s
                             - self.client.playback_position_s),
            })
            if send is None or send.at_s >= self.session_length_s - 1e-9:
                break
        self.client.finalize(max(now, self.session_length_s))
        fs_end = self.trajectory[0]["time_s"]      # the Fast Start's end
        return SessionResult(
            self.activity_spans, shaper.burst_log, self.client.stall_log,
            fs_end, ctl.content_sent_bytes,
            ctl.content_sent_s, self.trajectory, shaper.decision_log,
            self.quality_switches, self.zwa_bursts, shaper)


# -- search validation utilities ---------------------------------------------

@dataclass
class ProbeSearchResult:
    bs_opt_bytes: float
    probes: List[float]
    rounds: int
    zwa_terminated: bool
    shaper: Shaper


def probe_search(capacity_bytes: float, r_s_bps: float, t_max_s: float,
                 link_bps: float, granularity_s: float = 1.0,
                 segment_bytes: int = 1460) -> ProbeSearchResult:
    """Run the interval search with each probe isolated against a fresh,
    empty client, so a probe's zero window reflects the buffer size alone."""
    stream = StreamSpec.single(r_s_bps, duration_s=math.inf,
                               fast_start_s=t_max_s)
    shaper = Shaper(stream, granularity_s)
    shaper.end_fast_start(t_max_s * r_s_bps / 8.0)
    probes: List[float] = []
    rounds = 0
    zwa = False
    while shaper.phase is Phase.SEARCHING:
        t = shaper.state.t_s
        probes.append(t)
        client = StreamingClient(capacity_bytes, r_s_bps, link_bps,
                                 segment_bytes=segment_bytes)
        profiler = TrafficProfiler()
        size = t * r_s_bps / 8.0
        profiler.begin_burst(size, 0.0, 0.0, burst_id=rounds)
        res = client.deliver(size, link_bps, 0.0, abort_on_zwa=True)
        for ack in res.feedback:
            profiler.ingest(ack)
        obs = profiler.finish_burst()
        rounds += 1
        zwa = zwa or obs.zwa_seen
        shaper.on_burst_feedback(obs)
    return ProbeSearchResult(shaper.state.bs_opt_bytes, probes, rounds, zwa,
                             shaper)


def linear_sweep_oracle(capacity_bytes: float, r_s_bps: float, t_max_s: float,
                        link_bps: float,
                        granularity_s: float = 1.0) -> float:
    """Independent of the search: step burst sizes linearly on fresh clients
    and report the largest that draws no zero window (capped at t_max)."""
    step = granularity_s * r_s_bps / 8.0
    cap_bytes = t_max_s * r_s_bps / 8.0
    best = 0.0
    size = step
    while size <= cap_bytes + 1e-9:
        client = StreamingClient(capacity_bytes, r_s_bps, link_bps)
        res = client.deliver(min(size, cap_bytes), link_bps, 0.0,
                             abort_on_zwa=True)
        if res.zwa_episodes > 0:
            return best if best > 0 else res.bytes_at_first_zwa or 0.0
        best = min(size, cap_bytes)
        size += step
    return best
