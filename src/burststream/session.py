"""Simulated end-to-end streaming sessions.

``SimulatedSession`` is the simulated transport of the shaping loop: it
performs each send a ``ShapingController`` asks for against the fluid
client, reads the burst's observation off the delivery's closed form or
its breakpoint ACK summary, and reports back, on one simulated clock up
to the session horizon. Also provides the isolated probe search and the
linear-sweep oracle used to validate the search against a client of
known buffer size.

Most bursts are one fluid piece: ``StreamingClient.steady_delivery``
works such a delivery out in closed form, by ``deliver``'s float
operations in its order, with its last cumulative ACK and its first and
last ACK times. ``_deliver`` asks it first for every burst, in every
phase (Fast Start, the search's probes, steady bursts), and builds the
observation and report from its numbers; ``deliver`` and its ACK summary
serve any other send, and ``ShapingController.report`` books both alike.

The steady state is periodic: equal bursts at equal intervals into a
client whose buffer refills to about the same level. Once a send of a
non-adaptive session comes back STEADY, each following period that is
one unpinned fluid piece, draws no zero window, opens no stall, leaves
content to send and reads an estimate of at least the encoding rate is
taken in one step: ``steady_delivery`` and
``ShapingController.report_steady`` compute it without the observation,
report or send objects. Both routes give the same outputs bit for bit as
the per-send path. The first period that fails any of the step's tests,
all made before any state is written, goes to ``_deliver``.
``_STEADY_STEP = False`` turns off the step and the closed-form branch
alike, so that every send goes through ``deliver``, the reference both
are held to.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .client import SegmentAcks, StreamingClient
from .errors import finite_at_least, positive
from .profiler import BurstObservation
from .shaper import (Phase, Report, Send, Shaper, ShapingController,
                     StreamSpec)


@dataclass(frozen=True)
class BandwidthTrace:
    """Piecewise-constant end-to-end bandwidth, as (time_s, bps) steps."""

    steps: Tuple[Tuple[float, float], ...] = ((0.0, math.inf),)

    def __post_init__(self) -> None:
        times = [t for t, _ in self.steps]
        # each time is finite and none is before the one before it; the
        # first is taken from itself, which NaN or infinity makes NaN
        for before, t in zip(times[:1] + times, times):
            finite_at_least("time_s increment", t - before)
        for _, bps in self.steps:
            positive("bps", bps)
        object.__setattr__(self, "_times", times)

    def at(self, t: float) -> float:
        """The rate of the last step at or before ``t`` (within 1e-12 s);
        before the first step, the first step's rate."""
        i = bisect_right(self._times, t + 1e-12)
        return self.steps[i - 1 if i else 0][1]

    @classmethod
    def flat(cls, bps: float) -> "BandwidthTrace":
        return cls(((0.0, bps),))


# whether ``SimulatedSession`` takes plain STEADY periods in one step and
# any other one-piece burst by its closed form (see the module docstring);
# False runs every send on the per-send path
_STEADY_STEP = True

# read as a module constant on the per-send path, not off the Enum class
_STEADY = Phase.STEADY

# the keys of a trajectory point, in the order of its value tuple
TRAJECTORY_KEYS = ("time_s", "phase", "t_s", "t_min_s", "t_max_s", "t_old_s",
                   "bs_opt_bytes", "runway_s")


@dataclass
class SessionResult:
    """One simulated session's outcome.

    The run records values only: one tuple per report in
    ``trajectory_points`` (``TRAJECTORY_KEYS`` order, the phase as its
    string value) and one ``BurstRecord`` per burst in the shaper.
    ``trajectory`` renders the points when read, as a fresh list of dicts
    on each read; ``shaper.burst_log`` renders the burst rows.
    """

    activity_spans: List[Tuple[float, float, float]]
    stall_log: List[List[float]]
    fs_end_s: float
    content_sent_bytes: float
    content_sent_s: float
    trajectory_points: List[Tuple]
    decision_log: List[str]
    quality_switches: List[Tuple[float, int]]
    zwa_bursts: int
    shaper: Shaper

    @property
    def trajectory(self) -> List[Dict]:
        """The shaper's state after each report, one dict per report."""
        return [dict(zip(TRAJECTORY_KEYS, point))
                for point in self.trajectory_points]

    def stalls_after_fast_start(self) -> List[List[float]]:
        return [s for s in self.stall_log if s[0] > self.fs_end_s + 1e-9]


class SimulatedSession:
    """One shaped streaming session: a ``ShapingController`` driving the
    simulated client on the simulated clock until the session horizon."""

    def __init__(self, stream: StreamSpec, client: StreamingClient,
                 bandwidth: BandwidthTrace,
                 session_length_s: float,
                 granularity_s: float = 1.0,
                 adaptive: bool = False,
                 low_bw_chunk_s: float = 1.0):
        self.stream = stream
        self.client = client
        self.bandwidth = bandwidth
        self.session_length_s = session_length_s
        self.shaper = Shaper(stream, granularity_s)
        self.controller = ShapingController(self.shaper, low_bw_chunk_s,
                                            adaptive)
        self.activity_spans: List[Tuple[float, float, float]] = []
        self.trajectory_points: List[Tuple] = []
        self.quality_switches: List[Tuple[float, int]] = []
        self.zwa_bursts = self._sends = 0

    def _deliver(self, send: Send) -> Report:
        """Perform one send against the fluid client: a burst that
        ``StreamingClient.steady_delivery`` takes as one fluid piece by its
        closed form, any other send by ``deliver``."""
        size, send_at = send.size_bytes, send.at_s
        client = self.client
        start_byte = client.total_delivered_bytes
        rate = self.bandwidth.at(send_at)
        if _STEADY_STEP and send.abort_on_zwa:
            got = client.steady_delivery(size, rate, send_at)
            if got is not None and got[0] > send_at:
                client.take_steady(got)
                end, delivered = got[0], got[1]
                acked, complete = _acked(size, start_byte, got[2])
                obs = BurstObservation(self._sends, size, start_byte,
                                       send_at, got[7], got[8], acked,
                                       complete)
                self._sends += 1
                self.activity_spans.append((send_at, end, delivered))
                return Report(obs, delivered, send_at, end,
                              delivered * 8.0 / (end - send_at), got[3])
        res = client.deliver(size, rate, send_at,
                             abort_on_zwa=send.abort_on_zwa)
        obs = _observe(res.acks, self._sends, size, start_byte, send_at)
        self._sends += 1
        delivered = res.delivered_bytes
        if res.end_s > send_at and delivered > 0:
            self.activity_spans.append((send_at, res.end_s, delivered))
        if obs.zwa_seen:
            self.zwa_bursts += 1
        wall = res.end_s - send_at
        est = delivered * 8.0 / wall if wall > 0 and delivered > 0 else None
        return Report(obs, delivered, send_at, res.end_s, est,
                      client.playback_position_s)

    def run(self) -> SessionResult:
        ctl, shaper, st = self.controller, self.shaper, self.shaper.state
        points = self.trajectory_points
        horizon = self.session_length_s - 1e-9
        send = ctl.start()
        while True:       # the Fast Start always goes out
            report = self._deliver(send)
            quality = st.current_quality_index
            send = ctl.report(report)
            now = report.end_s
            if st.current_quality_index != quality:
                self.quality_switches.append((now, st.current_quality_index))
                self.client.set_drain_rate(shaper.r_s_bps)
            # in TRAJECTORY_KEYS order; ``_value_`` is the member's value,
            # read without the property
            points.append((now, st.phase._value_, st.t_s, st.t_min_s,
                           st.t_max_s, st.t_old_s, st.bs_opt_bytes,
                           ctl.runway_s))
            if send is None or send.at_s >= horizon:
                break
            if _STEADY_STEP and st.phase is _STEADY and not ctl.adaptive:
                send = self._steady(send)
                now = points[-1][0]
                if send.at_s >= horizon:
                    break
        self.client.finalize(max(now, self.session_length_s))
        fs_end = points[0][0]      # the Fast Start's end
        # the last delivery may run past the horizon and close a stall
        # there: each stall ends at the horizon at the latest, and one that
        # starts there is not the session's
        end_s = self.session_length_s
        stalls = [[start, min(end, end_s)]
                  for start, end in self.client.stall_log if start < end_s]
        return SessionResult(
            self.activity_spans, stalls, fs_end,
            ctl.content_sent_bytes, ctl.content_sent_s, points,
            shaper.decision_log, self.quality_switches, self.zwa_bursts,
            shaper)

    def _steady(self, send: Send) -> Send:
        """Take ``send`` and the sends after it, each as ``_deliver``,
        ``ShapingController.report`` and ``run`` do, while each is a STEADY
        burst whose delivery ``StreamingClient.steady_delivery`` takes as
        one fluid piece and whose report ``report_steady`` books; return
        the first send that is not, or that is due at the horizon."""
        client, ctl, st = self.client, self.controller, self.shaper.state
        spans, points = self.activity_spans, self.trajectory_points
        rate_at, horizon = self.bandwidth.at, self.session_length_s - 1e-9
        size, at = send.size_bytes, send.at_s
        while True:
            got = client.steady_delivery(size, rate_at(at), at)
            if got is None or not got[0] > at:
                break
            end, delivered = got[0], got[1]
            acked = _acked(size, client.total_delivered_bytes, got[2])[0]
            booked = ctl.report_steady(self._sends, size, delivered, acked,
                                       at, end, delivered * 8.0 / (end - at),
                                       got[3])
            if booked is None:
                break
            client.take_steady(got)
            self._sends += 1
            spans.append((at, end, delivered))
            points.append((end, "STEADY", st.t_s, st.t_min_s, st.t_max_s,
                           st.t_old_s, st.bs_opt_bytes, ctl.runway_s))
            size, at = booked
            if at >= horizon:
                break
        return Send(size, at, True)


def _acked(size: float, start_byte: float,
           cum: float) -> Tuple[float, bool]:
    """The bytes of the burst of ``size`` bytes from ``start_byte`` that a
    last cumulative ACK of ``cum`` bytes acknowledges, and whether they are
    the whole burst (within 1e-9 bytes)."""
    end = start_byte + size
    return (end if end < cum else cum) - start_byte, cum >= end - 1e-9


def _observe(acks: SegmentAcks, burst_id: int, size: float,
             start_byte: float, send_at: float) -> BurstObservation:
    """The burst of ``size`` bytes from ``start_byte`` as its delivery's ACK
    summary shows it: what a ``TrafficProfiler`` fed every ACK observes."""
    cum = acks.last_ack_bytes
    if cum is None:
        return BurstObservation(burst_id, size, start_byte, send_at)
    acked, complete = _acked(size, start_byte, cum)
    zwa_s = acks.zwa_ack_s
    return BurstObservation(
        burst_id, size, start_byte, send_at, acks.first_ack_s,
        acks.last_ack_s, acked, complete, zwa_s is not None, zwa_s,
        None if zwa_s is None else acks.zwa_ack_bytes - start_byte)


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
        size = t * r_s_bps / 8.0
        res = client.deliver(size, link_bps, 0.0, abort_on_zwa=True)
        obs = _observe(res.acks, rounds, size, 0.0, 0.0)
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
