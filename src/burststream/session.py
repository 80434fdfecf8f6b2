"""Simulated end-to-end streaming sessions.

Wires the simulated client, the ACK profiler, and the shaper on one
simulated clock: Fast Start, interval search, steady bursting, the
continuous-send fallback under low bandwidth, and optional quality
adaptation. Also provides the isolated probe search and the linear-sweep
oracle used to validate the search against a client of known buffer size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .client import StreamingClient
from .profiler import BurstObservation, TrafficProfiler
from .shaper import Phase, Shaper, StreamSpec


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
    """One shaped streaming session against the simulated client."""

    def __init__(self, stream: StreamSpec, client: StreamingClient,
                 bandwidth: BandwidthTrace,
                 session_length_s: float,
                 granularity_s: float = 1.0,
                 loop_content: bool = False,
                 adaptive: bool = False,
                 low_bw_chunk_s: float = 1.0,
                 bandwidth_hint_bps: float = 2_000_000):
        self.stream = stream
        self.client = client
        self.bandwidth = bandwidth
        self.session_length_s = session_length_s
        self.loop_content = loop_content
        self.adaptive = adaptive
        self.low_bw_chunk_s = low_bw_chunk_s
        self.shaper = Shaper(stream, granularity_s, bandwidth_hint_bps)
        self.profiler = TrafficProfiler()
        self.content_sent_s = 0.0
        self.content_sent_bytes = 0.0
        self.activity_spans: List[Tuple[float, float, float]] = []
        self.trajectory: List[Dict] = []
        self.quality_switches: List[Tuple[float, int]] = []
        self.zwa_bursts = 0
        self._pending_bytes = 0.0

    # -- bookkeeping -------------------------------------------------------

    def _remaining_bytes(self) -> float:
        if self.loop_content:
            return math.inf
        left_s = self.stream.duration_s - self.content_sent_s
        return max(left_s, 0.0) * self.shaper.r_s_bps / 8.0

    def _runway_s(self) -> float:
        return self.content_sent_s - self.client.playback_position_s

    def _snapshot(self, now: float) -> None:
        st = self.shaper.state
        self.trajectory.append({
            "time_s": now, "phase": st.phase.value, "t_s": st.t_s,
            "t_min_s": st.t_min_s, "t_max_s": st.t_max_s,
            "t_old_s": st.t_old_s, "bs_opt_bytes": st.bs_opt_bytes,
            "runway_s": self._runway_s(),
        })

    def _deliver(self, size: float, send_at: float,
                 abort_on_zwa: bool) -> Tuple[BurstObservation, float, float]:
        """Send one registered burst; returns (observation, end, est_bps)."""
        self.profiler.begin_burst(size, self.client.total_delivered_bytes,
                                  send_at)
        res = self.client.deliver(size, self.bandwidth.at(send_at), send_at,
                                  abort_on_zwa=abort_on_zwa)
        for ack in res.feedback:
            self.profiler.ingest(ack)
        obs = self.profiler.finish_burst()
        delivered = res.delivered_bytes
        self.content_sent_bytes += delivered
        self.content_sent_s += delivered * 8.0 / self.shaper.r_s_bps
        self.shaper.record_sent(delivered)
        self._pending_bytes = max(size - delivered, 0.0)
        if res.end_s > send_at and delivered > 0:
            self.activity_spans.append((send_at, res.end_s, delivered))
        if obs.zwa_seen:
            self.zwa_bursts += 1
        wall = res.end_s - send_at
        est = delivered * 8.0 / wall if wall > 0 and delivered > 0 else None
        return obs, res.end_s, est

    # -- main loop -----------------------------------------------------------

    def run(self) -> SessionResult:
        shaper, client = self.shaper, self.client
        horizon = self.session_length_s

        fs_bytes = min(self.stream.fast_start_s * shaper.r_s_bps / 8.0,
                       self._remaining_bytes())
        obs, now, est = self._deliver(fs_bytes, 0.0, abort_on_zwa=True)
        fs_end = now
        if obs.zwa_seen:
            shaper.fast_start_zwa(obs.sent_bytes_at_first_zwa)
        else:
            shaper.end_fast_start(obs.acked_bytes)
        shaper.on_bandwidth_change(est, self._runway_s())
        self._snapshot(now)

        last_burst_start = 0.0
        while now < horizon - 1e-9:
            if shaper.phase is Phase.LOW_BANDWIDTH:
                size = min(self.low_bw_chunk_s * shaper.r_s_bps / 8.0
                           + self._pending_bytes, self._remaining_bytes())
                if size <= 0:
                    break
                obs, now, est = self._deliver(size, now, abort_on_zwa=False)
                action = shaper.on_bandwidth_change(est, self._runway_s())
                self._snapshot(now)
                if action and action[0] == "restore":
                    last_burst_start = now
            else:
                t = shaper.state.t_s
                send_at = max(last_burst_start + t, now)
                if send_at >= horizon - 1e-9:
                    now = horizon
                    break
                size = min(shaper.next_burst_bytes(self._pending_bytes),
                           self._remaining_bytes())
                if size <= 1e-9:
                    break
                obs, now, est = self._deliver(size, send_at,
                                              abort_on_zwa=True)
                shaper.log_burst(obs.burst_id, t, obs.acked_bytes,
                                 obs.zwa_seen)
                shaper.on_burst_feedback(obs)
                if self.adaptive:
                    new_q = shaper.maybe_switch_quality(est)
                    if new_q is not None:
                        self.quality_switches.append((now, new_q))
                        client.set_drain_rate(shaper.r_s_bps)
                shaper.on_bandwidth_change(est, self._runway_s())
                self._snapshot(now)
                last_burst_start = send_at

        client.finalize(max(now, horizon))
        return SessionResult(
            self.activity_spans, shaper.burst_log, client.stall_log, fs_end,
            self.content_sent_bytes, self.content_sent_s, self.trajectory,
            shaper.decision_log, self.quality_switches, self.zwa_bursts,
            shaper)


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
