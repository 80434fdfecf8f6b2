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
keeps of that stream its count and its breakpoint summary, all a burst
observation needs: the ACKs at each piece's first and last segment, and a
bisection for a zero-window onset inside a piece. Only the tests' oracle
expands the per-segment stream.

A burst that is one fluid piece may be taken by its closed form,
``steady_delivery`` and ``take_steady``, any burst by ``deliver``'s fluid
loop. Both use the same three rules: the drain step (``_drain_step``,
also ``advance``'s), a piece's length, which tells whether it is the last
(``_piece_dt``), and the ACKs at its first and last segment
(``_segment_ends``).
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


def _segment_ends(seg: int, cap: float, t0: float, cum0: float, occ0: float,
                  fill: float, net: float, moved: float) -> Optional[tuple]:
    """``(k0, k1, t0_ack, t1_ack, open0, open1)``: the first and last
    segment whose last byte enters during the fluid piece ``(t0, cum0,
    occ0, fill, net, moved)``, their ACK times by ``SegmentAcks._ack``'s
    formula and whether each ACK's window is open, that is, occupancy
    below ``cap``; None if no segment ends in the piece."""
    k0 = math.floor(cum0 / seg) + 1
    k1 = math.floor((cum0 + moved) / seg)
    if k1 < k0:
        return None
    dt0 = (k0 * seg - cum0) / fill
    dt1 = (k1 * seg - cum0) / fill
    return (k0, k1, t0 + dt0, t0 + dt1, occ0 + net * dt0 < cap,
            occ0 + net * dt1 < cap)


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
        segment ACK, by ``_segment_ends``, and, unless a zero window came
        before, its first zero-window ACK: a piece's window is monotone,
        so that is its first ACK or is found by bisection."""
        ends = _segment_ends(self.segment_bytes, self.capacity_bytes, *piece)
        if ends is None:
            return
        k0, k1, first_s, last_s, open0, open1 = ends
        self.count += k1 - k0 + 1
        if self.first_ack_s is None:
            self.first_ack_s = first_s
        self.last_ack_s = last_s
        self.last_ack_bytes = float(k1 * self.segment_bytes)
        if self.zwa_ack_s is not None:
            return
        lo = k0
        if open0:
            if open1:
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


def tolerance(field: str, capacity_bytes: float,
              segment_bytes: int = 1460) -> float:
    """The byte tolerance of a buffer of ``capacity_bytes``, > 0 and finite,
    kept below one segment: a larger one took in a whole Fast Start."""
    positive_finite(field, capacity_bytes)
    eps = max(1e-6, 1e-9 * capacity_bytes)
    if not eps < segment_bytes:
        raise FieldError(field, f"< {segment_bytes * 1e9:g}, so that its "
                                f"tolerance stays below one segment")
    return eps


# Stall intervals shorter than this are fluid-boundary artifacts, not stalls.
STALL_EPSILON_S = 1e-9


class StreamingClient:
    """Playback buffer + receive buffer with advertised-window flow control."""

    def __init__(self, capacity_bytes: float, drain_rate_bps: float,
                 link_rate_bps: float = math.inf,
                 startup_threshold_s: float = 2.0,
                 segment_bytes: int = 1460,
                 content_duration_s: Optional[float] = None):
        positive_finite("drain_rate_bps", drain_rate_bps)
        positive("link_rate_bps", link_rate_bps)
        finite_at_least("startup_threshold_s", startup_threshold_s)
        finite_at_least("segment_bytes", segment_bytes, 1)
        if segment_bytes % 1:
            raise FieldError("segment_bytes", "a whole number")
        if content_duration_s is not None:    # None is endless content
            positive("content_duration_s", content_duration_s)
        self._eps = tolerance("capacity_bytes", capacity_bytes,
                              segment_bytes)
        self.capacity_bytes = float(capacity_bytes)
        self.drain_rate_bps = float(drain_rate_bps)
        self.link_rate_bps = float(link_rate_bps)
        self.segment_bytes = int(segment_bytes)
        self.content_duration_s = (math.inf if content_duration_s is None
                                   else float(content_duration_s))
        self.startup_bytes = min(startup_threshold_s * self.drain_bytes_per_s,
                                 self.capacity_bytes)

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
            raise DeliveryOrderError(
                f"{to_s} s predates the client's clock, {self.now_s} s")
        while to_s > self.now_s + 1e-15:
            (self.now_s, taken, self.occupancy_bytes,
             self.playback_position_s, stalls) = self._drain_step(
                self.now_s, to_s, self.occupancy_bytes,
                self.playback_position_s)
            self.total_drained_bytes += taken
            if stalls:
                self.occupancy_bytes = 0.0
                self._open_stall(self.now_s)

    def _drain_step(self, now: float, to_s: float, occ: float,
                    pos: float) -> tuple:
        """``advance``'s one step from ``now`` toward ``to_s`` with ``occ``
        bytes buffered at playback position ``pos``: ``(now, taken, occ,
        pos, stalls)`` after it, with the bytes it drains and whether a
        stall opens at its end. Playback that does not drain (not started,
        stalled, complete or empty) takes the whole step and drains 0."""
        content_s = self.content_duration_s
        complete_at = content_s - 1e-12
        if not self.playback_started or self._stalled or \
                pos >= complete_at or not occ > 0:
            return to_s, 0.0, occ, pos, False
        drain = self.drain_rate_bps / 8.0
        dt_empty = occ / drain
        dt_done = content_s - pos
        step = to_s - now     # min(to_s - now, dt_empty, dt_done)
        if dt_empty < step:
            step = dt_empty
        if dt_done < step:
            step = dt_done
        taken = step * drain
        occ = _nonneg(occ - taken)
        pos += step
        return now + step, taken, occ, pos, (not pos >= complete_at and
                                             occ <= self._eps and
                                             step >= dt_empty - 1e-15)

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
        complete_at = self.content_duration_s - 1e-12
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

                dt = self._piece_dt(remaining, fill, net, occ, pos, started,
                                    piece_drains)
                t0, cum0, occ0 = now, cum, occ
                moved = fill * dt
                if piece_drains:    # occupancy is set below
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

    def _piece_dt(self, remaining: float, fill: float, net: float,
                  occ: float, pos: float, started: bool,
                  drains: bool) -> float:
        """The length of a fluid piece that fills at ``fill`` byte/s while
        occupancy moves at ``net`` from ``occ`` at playback position
        ``pos``: the least step to deliver ``remaining`` bytes, to fill the
        buffer, to reach the startup threshold (not ``started``, or
        stalled) and, if the piece ``drains``, to the content's end or an
        empty buffer; at least 0.0. The piece that delivers the rest is a
        delivery's last."""
        dt = remaining / fill
        if net > 1e-15:
            step = (self.capacity_bytes - occ) / net
            if step < dt:
                dt = step
        if not started or self._stalled:
            step = (self.startup_bytes - occ) / fill
            if step < dt:
                dt = step
        if drains:
            step = self.content_duration_s - pos
            if step < dt:
                dt = step
            if net < -1e-15:
                step = occ / -net
                if step < dt:
                    dt = step
        return dt if dt > 0.0 else 0.0

    def steady_delivery(self, total_bytes: float, at_rate_bps: float,
                        start_s: float) -> Optional[tuple]:
        """``deliver(total_bytes, at_rate_bps, start_s)`` under either
        ``abort_on_zwa``, worked out without writing anything, for a burst
        that is one fluid piece while playback runs: at most one
        ``_drain_step``, then one piece of ``_piece_dt``'s length that
        neither stalls nor pins, so the flag cannot act, and draws no zero
        window at its first or last segment ACK (``_segment_ends``).

        Returns ``(end_s, delivered_bytes, last_ack_bytes, position_s,
        occupancy_bytes, delivered_total_bytes, drained_total_bytes,
        first_ack_s, last_ack_s)``, the values ``deliver`` would leave, for
        ``take_steady`` to write; None for any other delivery."""
        now, occ = self.now_s, self.occupancy_bytes
        pos, drained = self.playback_position_s, self.total_drained_bytes
        if not self.playback_started or self._stalled or \
                start_s < now - 1e-12:
            return None
        if start_s > now + 1e-15:              # ``advance``
            now, taken, occ, pos, stalls = self._drain_step(now, start_s,
                                                            occ, pos)
            drained += taken
            if stalls or start_s > now + 1e-15:
                return None                     # a stall or a second step
        eps, capacity = self._eps, self.capacity_bytes
        drain = self.drain_rate_bps / 8.0
        rate = min(at_rate_bps, self.link_rate_bps) / 8.0
        if not (0 < rate < math.inf and total_bytes / rate < math.inf and
                total_bytes > eps) or occ >= capacity - eps or \
                pos >= self.content_duration_s - 1e-12 or \
                occ <= eps and rate < drain:
            return None       # no finite burst, or pinned, done or stalling
        net = rate - drain
        dt = self._piece_dt(total_bytes, rate, net, occ, pos, True, True)
        moved = rate * dt
        if not moved > 0 or total_bytes - moved > eps:
            return None                         # no progress, a second piece
        cum0, occ0 = self.total_delivered_bytes, occ
        drained += dt * drain
        pos += dt
        occ = _clamp(occ0 + net * dt, capacity)
        cum = cum0 + moved
        end = now + dt
        if net < -1e-15 and occ <= eps or occ >= capacity - eps:
            return None                         # a stall or a pin
        # the last ACK is the final cumulative ACK at ``end``, or the last
        # segment's if that is within 1e-9 bytes of it
        seg = self.segment_bytes
        last, first_s, last_s = cum, end, end
        ends = _segment_ends(seg, capacity, now, cum0, occ0, rate, net, moved)
        if ends is not None:
            _, k1, first_s, k1_s, open0, open1 = ends
            if not (open0 and open1):
                return None                     # a zero window
            if not float(k1 * seg) < cum - 1e-9:
                last, last_s = float(k1 * seg), k1_s
        return end, moved, last, pos, occ, cum, drained, first_s, last_s

    def take_steady(self, delivery: tuple) -> None:
        """Write the state a ``steady_delivery`` result leaves."""
        (self.now_s, _, _, self.playback_position_s, self.occupancy_bytes,
         self.total_delivered_bytes, self.total_drained_bytes, _, _) = delivery
