"""Deterministic simulated streaming client with TCP-style flow control.

The player buffer and the TCP receive buffer are modeled as one combined
byte capacity. Delivered bytes fill it at the offered rate; playback drains
it at the encoding rate once a startup threshold of content is buffered.
When the buffer pins at capacity the client advertises a zero window and the
remaining bytes can only enter as fast as playback frees space.

Occupancy evolves as a piecewise-linear fluid with breakpoints computed in
closed form, so runs are exact and independent of any step size. A delivery
stands for one ACK per segment boundary it crosses plus its explicit ACKs
(each zero-window pin and the final cumulative ACK). ``DeliveryResult.acks``
keeps of that stream its count and its breakpoint summary, which is all a
burst observation needs: the summary evaluates the one segment-ACK formula
for each fluid piece's first and last segment (and bisects for a
zero-window onset inside a piece), so a delivery's observation costs a few
floats, not one object per segment. The per-segment stream itself is
expanded only by the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

from .errors import FieldError, finite_at_least, positive, positive_finite


class DeliveryOrderError(ValueError):
    """A delivery was scheduled before the client's current clock."""


class FeedError(ValueError):
    """ACK stream violated ordering (cumulative ack went backwards)."""


def _clamp(x: float, hi: float) -> float:
    """``min(max(x, 0.0), hi)``, NaN and -0.0 included; the builtins cost
    more than the comparisons on this path."""
    if 0.0 > x:
        x = 0.0
    return hi if hi < x else x


def _nonneg(x: float) -> float:
    """``max(x, 0.0)``, NaN and -0.0 included."""
    return 0.0 if 0.0 > x else x


class AckEvent(NamedTuple):
    """One ACK: its arrival time, the cumulative bytes it acknowledges and
    the window it advertises."""

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


class SegmentAcks:
    """The per-segment ACK stream of one delivery, as its count and its
    breakpoint summary.

    A delivery adds, in time order, its fluid pieces and its explicit ACKs.
    A piece stands for one ACK per segment boundary it crosses, given by
    ``_ack``; it adds that many to ``count`` and an explicit ACK adds one,
    and ``len`` is the count. Each part also updates the summary: the first
    and last ACK's times, the last cumulative ACK, and the time and
    cumulative ACK of the first zero-window ACK (None until one comes)."""

    __slots__ = ("segment_bytes", "capacity_bytes", "count", "first_ack_s",
                 "last_ack_s", "last_ack_bytes", "zwa_ack_s", "zwa_ack_bytes")

    def __init__(self, segment_bytes: int, capacity_bytes: float):
        self.segment_bytes = segment_bytes
        self.capacity_bytes = capacity_bytes
        self.count = 0
        self.first_ack_s = self.last_ack_s = self.last_ack_bytes = None
        self.zwa_ack_s = self.zwa_ack_bytes = None

    def _ack(self, piece: FluidPiece, k: int) -> AckEvent:
        """The ACK of segment ``k`` of ``piece``, sent as the segment's last
        byte enters the buffer: the one segment-ACK formula."""
        seg, cap = self.segment_bytes, self.capacity_bytes
        t0, cum0, occ0, fill, net, _ = piece
        dt = (k * seg - cum0) / fill
        occ = _clamp(occ0 + net * dt, cap)
        return AckEvent(t0 + dt, float(k * seg), _nonneg(cap - occ))

    def add_piece(self, piece: FluidPiece) -> None:
        """Count the ACKs of ``piece``, one for each segment ``k0..k1``
        whose last byte enters during it, and fold in its first and last
        segment ACK, by ``_ack``'s formula inline, and, unless a zero window
        came before, its first zero-window ACK: a piece's window is
        monotone, so that is its first ACK or is found by bisection."""
        seg, cap = self.segment_bytes, self.capacity_bytes
        t0, cum0, occ0, fill, net, moved = piece
        k0 = math.floor(cum0 / seg) + 1
        k1 = math.floor((cum0 + moved) / seg)
        if k1 < k0:
            return
        self.count += k1 - k0 + 1
        dt0 = (k0 * seg - cum0) / fill
        dt1 = (k1 * seg - cum0) / fill
        if self.first_ack_s is None:
            self.first_ack_s = t0 + dt0
        self.last_ack_s, self.last_ack_bytes = t0 + dt1, float(k1 * seg)
        if self.zwa_ack_s is not None:
            return
        lo = k0
        if _nonneg(cap - _clamp(occ0 + net * dt0, cap)) > 0:
            if _nonneg(cap - _clamp(occ0 + net * dt1, cap)) > 0:
                return
            lo, hi = k0 + 1, k1   # segment hi is zero-window, k0 not
            while lo < hi:
                mid = (lo + hi) // 2
                if self._ack(piece, mid).advertised_window_bytes <= 0:
                    hi = mid
                else:
                    lo = mid + 1
        self.zwa_ack_s, self.zwa_ack_bytes, _ = self._ack(piece, lo)

    def add_ack(self, ack: AckEvent) -> None:
        """Count the explicit ``ack`` and fold it in; a cumulative ACK
        more than 1e-9 bytes below the last one is a FeedError, and is
        neither counted nor folded in."""
        time_s, cum, window = ack
        last = self.last_ack_bytes
        if last is not None and cum < last - 1e-9:
            raise FeedError("cumulative ack regressed")
        self.count += 1
        if self.first_ack_s is None:
            self.first_ack_s = time_s
        self.last_ack_s, self.last_ack_bytes = time_s, cum
        if window <= 0 and self.zwa_ack_s is None:
            self.zwa_ack_s, self.zwa_ack_bytes = time_s, cum

    def __len__(self) -> int:
        return self.count


@dataclass(slots=True)
class DeliveryResult:
    """Outcome of one ``StreamingClient.deliver`` call.

    ``acks`` stands for the exact per-segment ACK stream, one ACK per
    segment boundary crossed plus the explicit pin and final ACKs: its
    ``len`` is that stream's length, and it carries the stream's
    breakpoint summary, from which a burst observation is read.
    """

    acks: SegmentAcks
    delivered_bytes: float
    start_s: float
    end_s: float
    zwa_episodes: int
    first_zwa_time_s: Optional[float] = None
    bytes_at_first_zwa: Optional[float] = None
    aborted: bool = False


# Stall intervals shorter than this are fluid-boundary artifacts, not stalls.
STALL_EPSILON_S = 1e-9


class StreamingClient:
    """Playback buffer + receive buffer with advertised-window flow control."""

    def __init__(self, capacity_bytes: float, drain_rate_bps: float,
                 link_rate_bps: float = math.inf,
                 startup_threshold_s: float = 2.0,
                 segment_bytes: int = 1460,
                 content_duration_s: Optional[float] = None):
        positive_finite("capacity_bytes", capacity_bytes)
        positive_finite("drain_rate_bps", drain_rate_bps)
        positive("link_rate_bps", link_rate_bps)
        finite_at_least("startup_threshold_s", startup_threshold_s)
        finite_at_least("segment_bytes", segment_bytes, 1)
        if segment_bytes % 1:
            raise FieldError("segment_bytes", "a whole number")
        if content_duration_s is not None:    # None is endless content
            positive("content_duration_s", content_duration_s)
        self.capacity_bytes = float(capacity_bytes)
        self.drain_rate_bps = float(drain_rate_bps)
        self.link_rate_bps = float(link_rate_bps)
        self.segment_bytes = int(segment_bytes)
        self.content_duration_s = (math.inf if content_duration_s is None
                                   else float(content_duration_s))
        self.startup_bytes = min(startup_threshold_s * self.drain_bytes_per_s,
                                 self.capacity_bytes)
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
        positive_finite("drain_rate_bps", drain_rate_bps)
        self.drain_rate_bps = float(drain_rate_bps)

    @property
    def advertised_window_bytes(self) -> float:
        return self.capacity_bytes - self.occupancy_bytes

    @property
    def drain_bytes_per_s(self) -> float:
        return self.drain_rate_bps / 8.0

    # -- clock ----------------------------------------------------------

    def advance(self, to_s: float) -> None:
        """Advance the clock, draining the buffer and opening a stall
        when it runs dry."""
        if to_s < self.now_s - 1e-12:
            raise DeliveryOrderError("cannot advance backwards")
        drain = self.drain_rate_bps / 8.0
        complete_at = self.content_duration_s - 1e-12
        while to_s > self.now_s + 1e-15:
            occ = self.occupancy_bytes
            # drains only while playing, not stalled or complete, non-empty
            if not self.playback_started or self._stalled or \
                    self.playback_position_s >= complete_at or not occ > 0:
                self.now_s = to_s
                break
            dt = to_s - self.now_s
            dt_empty = occ / drain
            dt_done = self.content_duration_s - self.playback_position_s
            step = dt    # min(dt, dt_empty, dt_done)
            if dt_empty < step:
                step = dt_empty
            if dt_done < step:
                step = dt_done
            self._drain(step)
            self.now_s += step
            if not self.playback_position_s >= complete_at and \
                    self.occupancy_bytes <= self._eps and \
                    step >= dt_empty - 1e-15:
                self.occupancy_bytes = 0.0
                self._open_stall(self.now_s)

    def _drain(self, dt: float) -> None:
        taken = dt * self.drain_bytes_per_s
        self.occupancy_bytes = _nonneg(self.occupancy_bytes - taken)
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
        finite_at_least("total_bytes", total_bytes)
        self.advance(start_s)
        rate = min(at_rate_bps, self.link_rate_bps) / 8.0  # bytes/s
        positive_finite("delivery rate", rate)
        if not total_bytes / rate < math.inf:     # an endless delivery
            field = ("link_rate_bps" if self.link_rate_bps <= at_rate_bps
                     else "at_rate_bps")
            raise FieldError(field, f"high enough to deliver {total_bytes:g}"
                                    f" bytes in a finite time")

        acks = SegmentAcks(self.segment_bytes, self.capacity_bytes)
        remaining = float(total_bytes)
        delivered = 0.0
        zwa_episodes = 0
        first_zwa_t: Optional[float] = None
        bytes_at_zwa: Optional[float] = None
        aborted = False
        eps = self._eps
        capacity = self.capacity_bytes
        drain = self.drain_rate_bps / 8.0
        startup = self.startup_bytes
        resume_at = startup - eps
        content_s = self.content_duration_s
        complete_at = content_s - 1e-12
        # the clock, occupancy, cumulative bytes, playback position and
        # startup flag live in locals during the loop and are written back
        # however it ends; the stall flag stays on self
        start_clock = now = self.now_s
        occ = self.occupancy_bytes
        cum = self.total_delivered_bytes
        pos = self.playback_position_s
        started = self.playback_started
        try:
            while remaining > eps:
                # normalize threshold flags so no breakpoint sits at dt == 0
                if not started and occ >= startup - eps:
                    started = True
                if self._stalled and occ >= resume_at:
                    self._close_stall(now)

                pinned = occ >= capacity - eps
                can_play = started and not pos >= complete_at
                if pinned:
                    if not can_play:
                        raise RuntimeError("delivery cannot progress: buffer "
                                           "full and playback finished")
                    occ = capacity
                    piece_drains = True
                    fill = drain  # enters as playback frees space
                    net = 0.0
                else:
                    # supply below the encoding rate on an empty buffer: the
                    # player cannot keep running, a stall opens immediately
                    if can_play and not self._stalled and occ <= eps and \
                            rate < drain:
                        occ = max(occ, 0.0)
                        self._open_stall(now)
                    piece_drains = can_play and not self._stalled
                    fill = rate
                    net = fill - (drain if piece_drains else 0.0)

                # closed-form time to the next breakpoint: the running
                # minimum of the candidate steps, then at least 0.0, as
                # max(0.0, min(steps)) gives it
                dt = remaining / fill
                if not pinned and net > 1e-15:
                    step = (capacity - occ) / net
                    if step < dt:
                        dt = step
                if not started:
                    step = (startup - occ) / fill
                    if step < dt:
                        dt = step
                if self._stalled:
                    step = (startup - occ) / fill
                    if step < dt:
                        dt = step
                if piece_drains:
                    step = content_s - pos
                    if step < dt:
                        dt = step
                    if net < -1e-15:
                        step = occ / -net
                        if step < dt:
                            dt = step
                if not dt > 0.0:
                    dt = 0.0

                t0, cum0, occ0 = now, cum, occ
                moved = fill * dt
                if piece_drains:    # _drain(dt); occupancy is set below
                    self.total_drained_bytes += dt * drain
                    pos += dt
                occ = capacity if pinned else _clamp(occ0 + net * dt, capacity)
                cum += moved
                delivered += moved
                remaining -= moved
                now = t0 + dt

                if moved > 0:
                    acks.add_piece(FluidPiece(t0, cum0, occ0, fill,
                                              0.0 if pinned else net, moved))

                # breakpoint bookkeeping, in priority order
                if not started and occ >= startup - eps:
                    started = True
                if self._stalled and occ >= resume_at:
                    self._close_stall(now)
                if piece_drains and not pinned and net < -1e-15 \
                        and occ <= eps:
                    occ = 0.0
                    self._open_stall(now)
                if not pinned and occ >= capacity - eps:
                    occ = capacity
                    zwa_episodes += 1
                    if first_zwa_t is None:
                        first_zwa_t = now
                        bytes_at_zwa = delivered
                    acks.add_ack(AckEvent(now, cum, 0.0))
                    if abort_on_zwa:
                        aborted = True
                        break
                if dt <= 0 and moved <= 0:
                    raise RuntimeError("fluid delivery made no progress")
        finally:
            self.now_s, self.occupancy_bytes = now, occ
            self.total_delivered_bytes, self.playback_position_s = cum, pos
            self.playback_started = started

        # a final cumulative ACK marks the burst's end
        last = acks.last_ack_bytes
        if delivered > 0 and (last is None or last < cum - 1e-9):
            acks.add_ack(AckEvent(now, cum, capacity - occ))
        return DeliveryResult(acks, delivered, start_clock, now,
                              zwa_episodes, first_zwa_t, bytes_at_zwa,
                              aborted)

    def steady_delivery(self, total_bytes: float, at_rate_bps: float,
                        start_s: float) -> Optional[tuple]:
        """``deliver(total_bytes, at_rate_bps, start_s, abort_on_zwa=True)``
        worked out without writing anything, for any burst that is one
        fluid piece, in whatever phase it is sent: at most one drain step
        to ``start_s``, then one unpinned piece that neither stalls, pins,
        draws a zero window at its first or last segment ACK, nor reaches
        the end of the content.

        Returns ``(end_s, delivered_bytes, last_ack_bytes, position_s,
        occupancy_bytes, delivered_total_bytes, drained_total_bytes,
        first_ack_s, last_ack_s)``, the values ``deliver`` would leave
        (``last_ack_bytes``, ``first_ack_s`` and ``last_ack_s`` are its ACK
        summary's, the times by ``SegmentAcks._ack``'s segment-ACK
        formula), for ``take_steady`` to write; None for any other
        delivery, which ``deliver`` alone computes. Each value comes from
        ``advance`` and ``deliver``'s float operations in their order."""
        now, occ = self.now_s, self.occupancy_bytes
        pos, drained = self.playback_position_s, self.total_drained_bytes
        if not self.playback_started or self._stalled or \
                start_s < now - 1e-12:
            return None
        eps, capacity = self._eps, self.capacity_bytes
        drain = self.drain_rate_bps / 8.0
        content_s = self.content_duration_s
        complete_at = content_s - 1e-12
        if start_s > now + 1e-15:              # ``advance``: one step
            if pos >= complete_at or not occ > 0:
                return None
            dt = start_s - now
            dt_empty = occ / drain
            if dt_empty < dt or content_s - pos < dt:
                return None
            taken = dt * drain
            occ = _nonneg(occ - taken)
            drained += taken
            pos += dt
            now += dt
            if not pos >= complete_at and occ <= eps and \
                    dt >= dt_empty - 1e-15:
                return None                     # a stall opens
            if start_s > now + 1e-15:
                return None                     # a second step
        rate = min(at_rate_bps, self.link_rate_bps) / 8.0
        if not (0 < rate < math.inf and total_bytes / rate < math.inf and
                total_bytes > eps):
            return None
        # ``deliver``'s first piece, which must be its last
        if occ >= capacity - eps or pos >= complete_at or \
                occ <= eps and rate < drain:
            return None                         # pinned, done or stalling
        net = rate - drain
        dt = total_bytes / rate
        if net > 1e-15 and (capacity - occ) / net < dt or \
                content_s - pos < dt or \
                net < -1e-15 and occ / -net < dt or not dt > 0.0:
            return None
        cum0, occ0 = self.total_delivered_bytes, occ
        moved = rate * dt
        drained += dt * drain
        pos += dt
        occ = _clamp(occ0 + net * dt, capacity)
        cum = cum0 + moved
        end = now + dt
        if not moved > 0 or total_bytes - moved > eps or \
                net < -1e-15 and occ <= eps or occ >= capacity - eps:
            return None       # no progress, a second piece, a stall or a pin
        # ``SegmentAcks.add_piece``'s window test and ACK times at the first
        # and last segment, then the final cumulative ACK, which comes at
        # ``end``: a segment's window,
        # ``_nonneg(capacity - _clamp(x, capacity))`` for the occupancy
        # ``x``, is > 0 exactly when ``x < capacity``
        seg = self.segment_bytes
        k0 = math.floor(cum0 / seg) + 1
        k1 = math.floor(cum / seg)
        last, first_s, last_s = cum, end, end
        if k1 >= k0:
            dt0 = (k0 * seg - cum0) / rate
            dt1 = (k1 * seg - cum0) / rate
            if not (occ0 + net * dt0 < capacity and
                    occ0 + net * dt1 < capacity):
                return None                     # a zero window
            first_s = now + dt0
            if not float(k1 * seg) < cum - 1e-9:
                last, last_s = float(k1 * seg), now + dt1
        return end, moved, last, pos, occ, cum, drained, first_s, last_s

    def take_steady(self, delivery: tuple) -> None:
        """Write the state a ``steady_delivery`` result leaves, for any
        one-piece burst it took."""
        (self.now_s, _, _, self.playback_position_s, self.occupancy_bytes,
         self.total_delivered_bytes, self.total_drained_bytes, _, _) = delivery
