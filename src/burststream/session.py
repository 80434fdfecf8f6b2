"""Simulated end-to-end streaming sessions.

``SimulatedSession`` is the simulated transport of the shaping loop: it
performs each send a ``ShapingController`` asks for against the fluid
client, reads the burst's observation off the delivery, and reports back,
on one simulated clock up to the session horizon. Also provides the
isolated probe search and the linear-sweep oracle used to validate the
search against a client of known buffer size.

``run`` is the one send loop. A burst of one fluid piece, aborted on a
zero window or not, is taken by the closed form ``steady_delivery``, any
other send by ``deliver``: both compute a piece by the same client rules,
so they leave the same values bit for bit. A STEADY period of a
non-adaptive session that the closed form takes and
``ShapingController.report_steady`` books (an estimate of at least the
encoding rate, content left) is stepped, with no observation, report or
send object. Any other send goes to ``_deliver``, with the closed form's
result if it was asked, so each send asks it once. Both routes record
the same span, estimate and trajectory point. ``_STEADY_STEP = False``
turns off the step and the closed form, so that every send goes through
``deliver``, the reference both are held to.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .client import SegmentAcks, StreamingClient
from .errors import finite_at_least, positive
from .profiler import BurstObservation
from .shaper import (_STEADY, Phase, Report, Send, Shaper,
                     ShapingController, StreamSpec)


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


# whether ``SimulatedSession`` steps plain STEADY periods and takes any
# other one-piece burst by its closed form; False: every send by ``deliver``
_STEADY_STEP = True

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

    def _deliver(self, send: Send,
                 piece: Union[tuple, bool, None] = True) -> Report:
        """Perform one send: by ``take_steady`` if the closed form, which
        gave ``piece`` (True: not asked yet), takes it, else ``deliver``."""
        size, send_at = send.size_bytes, send.at_s
        client, rate = self.client, self.bandwidth.at(send_at)
        start_byte = client.total_delivered_bytes
        if not _STEADY_STEP:
            piece = None
        elif piece is True:
            piece = client.steady_delivery(size, rate, send_at)
        if piece is not None:          # the closed form
            client.take_steady(piece)
            end, delivered = piece[0], piece[1]
            acked, complete = _acked(size, start_byte, piece[2])
            obs = BurstObservation(self._sends, size, start_byte, send_at,
                                   piece[7], piece[8], acked, complete)
        else:
            got = client.deliver(size, rate, send_at,
                                 abort_on_zwa=send.abort_on_zwa)
            end, delivered = got.end_s, got.delivered_bytes
            obs = _observe(got.acks, self._sends, size, start_byte, send_at)
            if obs.zwa_seen:
                self.zwa_bursts += 1
        self._sends += 1
        return Report(obs, delivered, send_at, end,
                      _estimate(send_at, end, delivered),
                      client.playback_position_s)

    def run(self) -> SessionResult:
        """Perform, report and record each send, stepping a plain STEADY
        period (see the module docstring), up to the horizon."""
        ctl, shaper, st = self.controller, self.shaper, self.shaper.state
        client, rate_at = self.client, self.bandwidth.at
        spans, points = self.activity_spans, self.trajectory_points
        horizon = self.session_length_s - 1e-9
        send = ctl.start()
        while True:       # the Fast Start always goes out
            size, at = send[0], send[1]    # a Send or report_steady's pair
            piece, booked = True, None
            if _STEADY_STEP and st.phase is _STEADY and not ctl.adaptive:
                piece = client.steady_delivery(size, rate_at(at), at)
                if piece is not None:
                    end, delivered = piece[0], piece[1]
                    est = _estimate(at, end, delivered)
                    if est is not None:
                        booked = ctl.report_steady(
                            self._sends, size, delivered,
                            _acked(size, client.total_delivered_bytes,
                                   piece[2])[0],
                            at, end, est, piece[3])
            if booked is not None:
                client.take_steady(piece)
                self._sends += 1
                send = booked       # (size_bytes, at_s), not a Send
            else:
                if not isinstance(send, Send):   # a burst the step declined
                    send = Send(size, at, True)
                report = self._deliver(send, piece)
                quality = st.current_quality_index
                send = ctl.report(report)
                _, delivered, _, end, est, _ = report
                if st.current_quality_index != quality:
                    self.quality_switches.append(
                        (end, st.current_quality_index))
                    client.set_drain_rate(shaper.r_s_bps)
            if est is not None:
                spans.append((at, end, delivered))
            # in TRAJECTORY_KEYS order; ``_value_`` skips the property
            points.append((end, st.phase._value_, st.t_s, st.t_min_s,
                           st.t_max_s, st.t_old_s, st.bs_opt_bytes,
                           ctl.runway_s))
            if send is None or send[1] >= horizon:
                break
        client.finalize(max(end, self.session_length_s))
        # the last delivery may run past the horizon and close a stall
        # there: each stall ends at the horizon at the latest, and one that
        # starts there is not the session's
        end_s = self.session_length_s
        stalls = [[start, min(end, end_s)]
                  for start, end in client.stall_log if start < end_s]
        return SessionResult(   # the first point is at the Fast Start's end
            spans, stalls, points[0][0],
            ctl.content_sent_bytes, ctl.content_sent_s, points,
            shaper.decision_log, self.quality_switches, self.zwa_bursts,
            shaper)


def _estimate(start_s: float, end_s: float,
              delivered: float) -> Optional[float]:
    """The bit rate of ``delivered`` bytes from ``start_s`` to ``end_s``;
    None, and no activity span, if that took no time or moved nothing."""
    wall = end_s - start_s
    return delivered * 8.0 / wall if wall > 0 and delivered > 0 else None


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
