"""Deterministic simulated streaming client with TCP-style flow control.

The player buffer and the TCP receive buffer are modeled as one combined
byte capacity. Delivered bytes fill it at the offered rate; playback drains
it at the encoding rate once a startup threshold of content is buffered.
When the buffer pins at capacity the client advertises a zero window and the
remaining bytes can only enter as fast as playback frees space.

Occupancy evolves as a piecewise-linear fluid with breakpoints computed in
closed form, so runs are exact and independent of any step size. A delivery
records its fluid pieces and its explicit ACKs (each zero-window pin and the
final cumulative ACK). From these it offers two views of the ACK stream:
``DeliveryResult.feedback``, the breakpoint ACKs the profiler needs, and
``DeliveryResult.acks``, the exact per-segment stream, expanded only when
read. Both views come from one segment-ACK formula.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple, \
    Union


class DeliveryOrderError(ValueError):
    """A delivery was scheduled before the client's current clock."""


@dataclass(frozen=True)
class AckEvent:
    time_s: float
    cum_ack_bytes: float
    advertised_window_bytes: float


class FluidPiece(NamedTuple):
    """One closed-form stretch of a delivery.

    From ``t0``, with ``cum0`` bytes delivered so far and ``occ0`` bytes
    buffered, bytes enter at ``fill`` byte/s and occupancy moves at ``net``
    byte/s (0 while pinned) until ``moved`` bytes have entered.
    """

    t0: float
    cum0: float
    occ0: float
    fill: float
    net: float
    moved: float


class SegmentAcks(Sequence):
    """The per-segment ACK stream of one delivery, expanded on demand.

    ``parts`` holds, in time order, the delivery's fluid pieces and its
    explicit ACKs. A piece stands for one ACK per segment boundary it
    crosses; its length is counted from the piece without building them.
    """

    def __init__(self, parts: List[Union[FluidPiece, AckEvent]],
                 segment_bytes: int, capacity_bytes: float):
        self.parts = parts
        self.segment_bytes = segment_bytes
        self.capacity_bytes = capacity_bytes

    def _segments(self, piece: FluidPiece) -> range:
        """Indices of the segments whose last byte enters during ``piece``."""
        seg = self.segment_bytes
        return range(math.floor(piece.cum0 / seg) + 1,
                     math.floor((piece.cum0 + piece.moved) / seg) + 1)

    def _segment_acks(self, piece: FluidPiece,
                      ks: Iterable[int]) -> List[AckEvent]:
        """The ACKs of segments ``ks`` of ``piece``, at the instant each
        segment's last byte enters the buffer."""
        seg, cap = self.segment_bytes, self.capacity_bytes
        t0, cum0, occ0, fill, net, _ = piece
        out = []
        for k in ks:
            dt = (k * seg - cum0) / fill
            occ = min(max(occ0 + net * dt, 0.0), cap)
            out.append(AckEvent(t0 + dt, float(k * seg), max(cap - occ, 0.0)))
        return out

    def _part_len(self, part: Union[FluidPiece, AckEvent]) -> int:
        return 1 if isinstance(part, AckEvent) else len(self._segments(part))

    def __len__(self) -> int:
        return sum(self._part_len(part) for part in self.parts)

    def __iter__(self) -> Iterator[AckEvent]:
        for part in self.parts:
            if isinstance(part, AckEvent):
                yield part
            else:
                yield from self._segment_acks(part, self._segments(part))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        if i < 0:
            i += len(self)
        if i >= 0:
            for part in self.parts:
                n = self._part_len(part)
                if i < n:
                    if isinstance(part, AckEvent):
                        return part
                    return self._segment_acks(
                        part, (self._segments(part)[i],))[0]
                i -= n
        raise IndexError("ack index out of range")

    def feedback(self) -> List[AckEvent]:
        """The breakpoint ACKs: the explicit ACKs and, of each piece, the
        first and last segment ACK plus the first zero-window one.

        Fed to a ``TrafficProfiler`` registered at the delivery's first
        byte, they yield the same observation as the whole stream: it keeps
        the first and the last ACK, the highest cumulative ACK, and the
        first zero-window ACK. Within a piece the window is monotone, so
        that ACK is the piece's first one or found by bisection.
        """
        out: List[AckEvent] = []
        for part in self.parts:
            if isinstance(part, AckEvent):
                out.append(part)
                continue
            ks = self._segments(part)
            if not ks:
                continue
            first, last = self._segment_acks(part, (ks[0], ks[-1]))
            out.append(first)
            if first.advertised_window_bytes > 0 >= \
                    last.advertised_window_bytes:
                lo, hi = 1, len(ks) - 1   # ks[hi] is zero-window, ks[0] not
                while lo < hi:
                    mid = (lo + hi) // 2
                    ack, = self._segment_acks(part, (ks[mid],))
                    if ack.advertised_window_bytes <= 0:
                        hi = mid
                    else:
                        lo = mid + 1
                if lo < len(ks) - 1:
                    out.extend(self._segment_acks(part, (ks[lo],)))
            if len(ks) > 1:
                out.append(last)
        return out


@dataclass
class DeliveryResult:
    """Outcome of one ``StreamingClient.deliver`` call.

    ``acks`` is the exact per-segment ACK stream, one ACK per segment
    boundary crossed plus the explicit pin and final ACKs; it is a lazy
    view whose length is counted without expanding it. ``feedback`` is
    the short breakpoint subset that gives a profiler the same burst
    observation.
    """

    acks: SegmentAcks
    delivered_bytes: float
    start_s: float
    end_s: float
    zwa_episodes: int
    first_zwa_time_s: Optional[float] = None
    bytes_at_first_zwa: Optional[float] = None
    aborted: bool = False

    @property
    def feedback(self) -> List[AckEvent]:
        return self.acks.feedback()


# Stall intervals shorter than this are fluid-boundary artifacts, not stalls.
STALL_EPSILON_S = 1e-9


class StreamingClient:
    """Playback buffer + receive buffer with advertised-window flow control."""

    def __init__(self, capacity_bytes: float, drain_rate_bps: float,
                 link_rate_bps: float = math.inf,
                 startup_threshold_s: float = 2.0,
                 segment_bytes: int = 1460,
                 content_duration_s: Optional[float] = None):
        if capacity_bytes <= 0 or drain_rate_bps <= 0:
            raise ValueError("capacity and drain rate must be > 0")
        self.capacity_bytes = float(capacity_bytes)
        self.drain_rate_bps = float(drain_rate_bps)
        self.link_rate_bps = float(link_rate_bps)
        self.segment_bytes = int(segment_bytes)
        self.content_duration_s = (math.inf if content_duration_s is None
                                   else float(content_duration_s))
        self.startup_bytes = min(startup_threshold_s * self.drain_bytes_per_s,
                                 self.capacity_bytes)
        self.resume_bytes = self.startup_bytes
        self._eps = max(1e-6, 1e-9 * self.capacity_bytes)

        self.now_s = 0.0
        self.occupancy_bytes = 0.0
        self.playback_started = self.startup_bytes <= 0.0
        self.playback_position_s = 0.0
        self.total_delivered_bytes = 0.0
        self.total_drained_bytes = 0.0
        self.stall_log: List[List[float]] = []  # [start, end or None]
        self._stalled = False

    # -- derived state -------------------------------------------------

    def set_drain_rate(self, drain_rate_bps: float) -> None:
        """Playback byte rate follows the quality being played; buffered
        content of the previous quality is approximated at the new rate."""
        if drain_rate_bps <= 0:
            raise ValueError("drain rate must be > 0")
        self.drain_rate_bps = float(drain_rate_bps)

    @property
    def advertised_window_bytes(self) -> float:
        return self.capacity_bytes - self.occupancy_bytes

    @property
    def drain_bytes_per_s(self) -> float:
        return self.drain_rate_bps / 8.0

    @property
    def playback_complete(self) -> bool:
        return self.playback_position_s >= self.content_duration_s - 1e-12

    def _draining(self) -> bool:
        return (self.playback_started and not self._stalled
                and not self.playback_complete and self.occupancy_bytes > 0)

    # -- clock ----------------------------------------------------------

    def advance(self, to_s: float) -> List[Tuple[str, float]]:
        """Advance the clock, draining the buffer; returns emitted events."""
        if to_s < self.now_s - 1e-12:
            raise DeliveryOrderError("cannot advance backwards")
        events: List[Tuple[str, float]] = []
        while to_s > self.now_s + 1e-15:
            if not self._draining():
                self.now_s = to_s
                break
            dt = to_s - self.now_s
            dt_empty = self.occupancy_bytes / self.drain_bytes_per_s
            dt_done = self.content_duration_s - self.playback_position_s
            step = min(dt, dt_empty, dt_done)
            self._drain(step)
            self.now_s += step
            if self.playback_complete:
                events.append(("playback_complete", self.now_s))
            elif self.occupancy_bytes <= self._eps and step >= dt_empty - 1e-15:
                self.occupancy_bytes = 0.0
                self._open_stall(self.now_s)
                events.append(("stall_start", self.now_s))
        return events

    def _drain(self, dt: float) -> None:
        taken = dt * self.drain_bytes_per_s
        self.occupancy_bytes = max(self.occupancy_bytes - taken, 0.0)
        self.total_drained_bytes += taken
        self.playback_position_s += dt

    def _open_stall(self, t: float) -> None:
        if not self._stalled:
            self._stalled = True
            self.stall_log.append([t, None])

    def _close_stall(self, t: float) -> None:
        if self._stalled:
            self._stalled = False
            start = self.stall_log[-1][0]
            if t - start > STALL_EPSILON_S:
                self.stall_log[-1][1] = t
            else:
                self.stall_log.pop()

    def finalize(self, at_s: Optional[float] = None) -> None:
        """Advance to ``at_s`` and close any open stall interval there."""
        if at_s is not None:
            self.advance(at_s)
        if self._stalled:
            self._close_stall(self.now_s)

    def stalls_after(self, t: float) -> List[List[float]]:
        return [s for s in self.stall_log if s[0] > t + 1e-9]

    # -- delivery --------------------------------------------------------

    def deliver(self, total_bytes: float, at_rate_bps: float, start_s: float,
                *, abort_on_zwa: bool = False) -> DeliveryResult:
        """Deliver a burst into the buffer starting at ``start_s``.

        Fills at min(at_rate_bps, link rate) while window remains; pins at
        capacity with a zero-window advertisement, after which bytes enter
        at the drain rate. With ``abort_on_zwa`` the remainder is dropped at
        the first pin and reported via ``delivered_bytes``.
        """
        if start_s < self.now_s - 1e-12:
            raise DeliveryOrderError(
                f"delivery at {start_s} predates client clock {self.now_s}")
        if total_bytes < 0:
            raise ValueError("cannot deliver negative bytes")
        self.advance(start_s)
        rate = min(at_rate_bps, self.link_rate_bps) / 8.0  # bytes/s
        if rate <= 0 or not math.isfinite(rate):
            raise ValueError("delivery requires a positive finite rate")

        parts: List[Union[FluidPiece, AckEvent]] = []
        remaining = float(total_bytes)
        delivered = 0.0
        zwa_episodes = 0
        first_zwa_t: Optional[float] = None
        bytes_at_zwa: Optional[float] = None
        aborted = False
        start_clock = self.now_s
        eps = self._eps

        while remaining > eps:
            # normalize threshold flags so no breakpoint sits at dt == 0
            if not self.playback_started and \
                    self.occupancy_bytes >= self.startup_bytes - eps:
                self.playback_started = True
            if self._stalled and self.occupancy_bytes >= \
                    min(self.resume_bytes, self.capacity_bytes) - eps:
                self._close_stall(self.now_s)

            pinned = self.occupancy_bytes >= self.capacity_bytes - eps
            can_play = self.playback_started and not self.playback_complete
            if pinned:
                if not can_play:
                    raise RuntimeError("delivery cannot progress: buffer "
                                       "full and playback finished")
                self.occupancy_bytes = self.capacity_bytes
                piece_drains = True
                fill = self.drain_bytes_per_s  # enters as playback frees space
                net = 0.0
            else:
                # supply below the encoding rate on an empty buffer: the
                # player cannot keep running, a stall opens immediately
                if can_play and not self._stalled and \
                        self.occupancy_bytes <= eps and \
                        rate < self.drain_bytes_per_s:
                    self.occupancy_bytes = max(self.occupancy_bytes, 0.0)
                    self._open_stall(self.now_s)
                piece_drains = can_play and not self._stalled
                fill = rate
                net = fill - (self.drain_bytes_per_s if piece_drains else 0.0)

            # closed-form time to the next breakpoint
            steps = [remaining / fill]
            if not pinned and net > 1e-15:
                steps.append((self.capacity_bytes - self.occupancy_bytes)
                             / net)
            if not self.playback_started:
                steps.append((self.startup_bytes - self.occupancy_bytes)
                             / fill)
            if self._stalled:
                steps.append((self.resume_bytes - self.occupancy_bytes)
                             / fill)
            if piece_drains:
                steps.append(self.content_duration_s -
                             self.playback_position_s)
                if net < -1e-15:
                    steps.append(self.occupancy_bytes / -net)
            dt = max(0.0, min(steps))

            t0 = self.now_s
            cum0 = self.total_delivered_bytes
            occ0 = self.occupancy_bytes
            moved = fill * dt
            if piece_drains:
                self._drain(dt)
            self.occupancy_bytes = (self.capacity_bytes if pinned
                                    else min(max(occ0 + net * dt, 0.0),
                                             self.capacity_bytes))
            self.total_delivered_bytes += moved
            delivered += moved
            remaining -= moved
            self.now_s = t0 + dt

            if moved > 0:
                parts.append(FluidPiece(t0, cum0, occ0, fill,
                                        0.0 if pinned else net, moved))

            # breakpoint bookkeeping, in priority order
            if not self.playback_started and \
                    self.occupancy_bytes >= self.startup_bytes - eps:
                self.playback_started = True
            if self._stalled and self.occupancy_bytes >= \
                    min(self.resume_bytes, self.capacity_bytes) - eps:
                self._close_stall(self.now_s)
            if piece_drains and not pinned and net < -1e-15 \
                    and self.occupancy_bytes <= eps:
                self.occupancy_bytes = 0.0
                self._open_stall(self.now_s)
            if not pinned and \
                    self.occupancy_bytes >= self.capacity_bytes - eps:
                self.occupancy_bytes = self.capacity_bytes
                zwa_episodes += 1
                if first_zwa_t is None:
                    first_zwa_t = self.now_s
                    bytes_at_zwa = delivered
                parts.append(AckEvent(self.now_s, self.total_delivered_bytes,
                                      0.0))
                if abort_on_zwa:
                    aborted = True
                    break
            if dt <= 0 and moved <= 0:
                raise RuntimeError("fluid delivery made no progress")

        # final cumulative ACK so the profiler sees the burst end
        acks = SegmentAcks(parts, self.segment_bytes, self.capacity_bytes)
        if delivered > 0:
            if not acks or acks[-1].cum_ack_bytes < \
                    self.total_delivered_bytes - 1e-9:
                parts.append(AckEvent(self.now_s, self.total_delivered_bytes,
                                      self.advertised_window_bytes))
        return DeliveryResult(acks, delivered, start_clock, self.now_s,
                              zwa_episodes, first_zwa_t, bytes_at_zwa,
                              aborted)
