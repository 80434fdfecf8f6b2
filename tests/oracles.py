"""Reference implementations the library is held equal to.

``reference_simulate`` is the radio replay as it was written before
``radio.simulate`` emitted each gap's tail inline: a closure appends one
tail segment at a time, ``_emit_hspa_gap`` walks the demotion schedule
that ``_hspa_cascade`` builds for the gap, and ``_emit_lte_gap`` emits the
LTE head, the partial DRX cycles and IDLE through it, handing each run of
whole DRX cycles to a second closure. Every segment is priced as it is
appended. The tests patch ``_emit_lte_gap`` here to plug in other LTE
emitters.

``walk_state_trace`` is the per-segment walk that ``StateTrace`` checked
its columns with: the first fault in segment order raises, and the RRC
transitions are counted one segment at a time.

``RecordingAcks`` is a ``client.SegmentAcks`` that also keeps each fluid
piece and explicit ACK it is given; the tests patch it into
``burststream.client`` so that every delivery records its parts, and
``ack_stream`` expands them into the per-segment ACK stream that the
count and the breakpoint summary are held to.
"""

import math
from typing import Callable, Dict, List, Optional, Tuple, Union

from burststream.client import AckEvent, FluidPiece, SegmentAcks
from burststream.energy import FastDormancy, RadioProfile, Technology, power_rx
from burststream.errors import finite_at_least
from burststream.radio import ActivityTrace, RadioState, StateTrace


class RecordingAcks(SegmentAcks):
    """``SegmentAcks`` that keeps, in time order, each part it counts."""

    __slots__ = ("parts",)

    def __init__(self, segment_bytes: int, capacity_bytes: float):
        super().__init__(segment_bytes, capacity_bytes)
        self.parts: List[Union[FluidPiece, AckEvent]] = []

    def add_piece(self, piece: FluidPiece) -> None:
        super().add_piece(piece)
        self.parts.append(piece)

    def add_ack(self, ack: AckEvent) -> None:
        super().add_ack(ack)          # a regressed ACK raises, unkept
        self.parts.append(ack)


def ack_stream(acks: RecordingAcks) -> List[AckEvent]:
    """The per-segment ACK stream of the recorded parts: each explicit ACK,
    and for each piece the ACK of each segment whose last byte enters
    during it, by ``SegmentAcks._ack``."""
    seg = acks.segment_bytes
    stream: List[AckEvent] = []
    for part in acks.parts:
        if isinstance(part, AckEvent):
            stream.append(part)
        else:
            stream.extend(acks._ack(part, k) for k in range(
                math.floor(part.cum0 / seg) + 1,
                math.floor((part.cum0 + part.moved) / seg) + 1))
    return stream


ACTIVE_STATE = {
    Technology.HSPA: RadioState.DCH,
    Technology.LTE: RadioState.CONNECTED,
    Technology.WIFI: RadioState.CONNECTED,
}

ALLOWED_STATES = {
    Technology.HSPA: {RadioState.DCH, RadioState.FACH, RadioState.PCH,
                      RadioState.IDLE},
    Technology.LTE: {RadioState.CONNECTED, RadioState.CONN_DRX_ON,
                     RadioState.CONN_DRX_OFF, RadioState.IDLE},
    Technology.WIFI: {RadioState.CONNECTED, RadioState.IDLE},
}


def walk_state_trace(start_s, end_s, state, horizon_s, technology,
                     ) -> Dict[Tuple[RadioState, RadioState], int]:
    """The transition counts of a trace's columns, walked one segment at a
    time; ValueError at the first segment that breaks a rule."""
    allowed = ALLOWED_STATES[technology]
    drx = (RadioState.CONN_DRX_ON, RadioState.CONN_DRX_OFF)
    counts: Dict[Tuple[RadioState, RadioState], int] = {}
    prev = RadioState.IDLE
    t = 0.0
    for start, end, s in zip(start_s, end_s, state):
        # each rule compares under ``not``, which a NaN time fails
        if not abs(start - t) <= 1e-9:
            raise ValueError("state trace must be contiguous from 0")
        if not end >= start:
            raise ValueError("segment ends before it starts")
        if s not in allowed:
            raise ValueError(f"state {s} invalid for {technology}")
        t = end
        cur = RadioState.CONNECTED if s in drx else s
        if cur is not prev:
            counts[(prev, cur)] = counts.get((prev, cur), 0) + 1
        prev = cur
    if not abs(t - horizon_s) <= 1e-9:
        raise ValueError("state trace must cover the horizon")
    return counts


def _hspa_cascade(t_end: float, profile: RadioProfile,
                  ) -> List[Tuple[float, RadioState]]:
    """Demotion schedule after activity ends at ``t_end`` (absolute times)."""
    t1, t2, t3 = profile.t1_s, profile.t2_s, profile.t3_s
    steps: List[Tuple[float, RadioState]] = [(t_end + t1, RadioState.FACH)]
    if profile.pch_enabled:
        steps.append((t_end + t1 + t2, RadioState.PCH))
        if t3 > 0:
            steps.append((t_end + t1 + t2 + t3, RadioState.IDLE))
    else:
        steps.append((t_end + t1 + t2, RadioState.IDLE))

    fd = profile.fast_dormancy
    if fd is not FastDormancy.NONE and profile.legacy_fd_timeout_s > 0:
        t_fd = t_end + profile.legacy_fd_timeout_s
        # Dormancy fires only while still in an active state (DCH/FACH).
        before = [(t, s) for (t, s) in steps
                  if t <= t_fd and s in (RadioState.PCH, RadioState.IDLE)]
        if not before:
            kept = [(t, s) for (t, s) in steps if t < t_fd]
            if fd is FastDormancy.LEGACY or not profile.pch_enabled:
                steps = kept + [(t_fd, RadioState.IDLE)]
            else:
                steps = kept + [(t_fd, RadioState.PCH)]
                if t3 > 0:
                    steps.append((t_fd + t3, RadioState.IDLE))
    return steps


def _lte_phase_at(dt: float, profile: RadioProfile) -> RadioState:
    """State ``dt`` seconds after the last activity (LTE/Wi-Fi tail)."""
    rrc_idle = profile.t1_s
    if dt >= rrc_idle:
        return RadioState.IDLE
    drx = profile.drx
    if drx is None or dt < drx.idle_s:
        return RadioState.CONNECTED
    phase = (dt - drx.idle_s) % drx.cycle_s
    return RadioState.CONN_DRX_ON if phase < drx.on_s else RadioState.CONN_DRX_OFF


def _next_drx_on(dt: float, profile: RadioProfile) -> float:
    """Offset of the next DRX on-window start at or after ``dt``."""
    drx = profile.drx
    base = drx.idle_s
    if dt <= base:
        return base
    k = int((dt - base) / drx.cycle_s)
    candidate = base + k * drx.cycle_s
    if candidate < dt - 1e-12:
        candidate += drx.cycle_s
    return candidate


# receives one tail segment: (start_s, end_s, state)
TailSink = Callable[[float, float, RadioState], None]
# receives a run of whole DRX cycles: (start_s, edges), where ``edges`` holds
# each cycle's ON end and then its OFF end, and the first ON starts at start_s
CycleSink = Callable[[float, List[float]], None]


def _emit_lte_gap(out: TailSink, out_cycles: CycleSink, g0: float,
                  g1: float, t_end: float, profile: RadioProfile) -> None:
    """Emit tail segments for the gap [g0, g1) after activity at t_end.

    The per-cycle loop emits the partial DRX cycles at the gap's two ends;
    each run of whole cycles between them goes to ``out_cycles`` at once,
    with every boundary computed as the loop computes it.
    """
    eps = 1e-12
    rrc_abs = t_end + profile.t1_s
    drx = profile.drx
    t = g0
    drx_start = t_end + drx.idle_s if drx is not None else rrc_abs
    head = min(drx_start, rrc_abs, g1)
    if t < head - eps:
        out(t, head, RadioState.CONNECTED)
        t = head
    if drx is not None:
        cycle, on = drx.cycle_s, drx.on_s
        limit = min(g1, rrc_abs)
        stop = limit - eps
        # cycles 0..whole-1 end before the stop. They go out in one run only
        # where rounding cannot empty a segment or reorder its boundaries:
        # each ON and OFF window is wider than eps plus a bound on the
        # rounding of the times involved.
        whole = 0
        if min(on, cycle - on) > \
                eps + 1e-14 * (abs(drx_start) + abs(limit) + cycle):
            whole = max(int((stop - drx_start) / cycle), 0)
            while whole > 0 and \
                    drx_start + (whole - 1) * cycle + cycle >= stop:
                whole -= 1
            while drx_start + whole * cycle + cycle < stop:
                whole += 1
        k = max(int((t - drx_start) / cycle), 0)
        while t < stop:
            cycle_start = drx_start + k * cycle
            on_end = cycle_start + on
            cycle_end = cycle_start + cycle
            if t < on_end - eps and k < whole:
                # the loop would emit each of cycles k..whole-1 as one ON
                # and one OFF segment, computed as below
                starts = [drx_start + j * cycle for j in range(k, whole)]
                edges = [0.0] * (2 * len(starts))
                edges[0::2] = [cs + on for cs in starts]
                edges[1::2] = [cs + cycle for cs in starts]
                out_cycles(t, edges)
                t, k = edges[-1], whole
                continue
            if t < on_end - eps:
                nxt = min(on_end, limit)
                out(t, nxt, RadioState.CONN_DRX_ON)
            elif t < cycle_end - eps:
                nxt = min(cycle_end, limit)
                out(t, nxt, RadioState.CONN_DRX_OFF)
            else:
                k += 1
                continue
            t = nxt
            if t >= cycle_end - eps:
                k += 1
    if g1 > rrc_abs + eps and t < g1 - eps:
        out(max(t, rrc_abs), g1, RadioState.IDLE)
        t = g1


def _emit_hspa_gap(out: TailSink, g0: float, g1: float, t_end: float,
                   profile: RadioProfile) -> None:
    state = RadioState.DCH
    t = g0
    for step_t, step_state in _hspa_cascade(t_end, profile):
        if step_t >= g1:
            break
        if step_t > t:
            out(t, step_t, state)
            t = step_t
        state = step_state
    if t < g1:
        out(t, g1, state)


def reference_simulate(trace: ActivityTrace, profile: RadioProfile,
                       horizon_s: Optional[float] = None) -> StateTrace:
    """``radio.simulate`` as a closure per tail segment and an emitter call
    per gap; the same columns, float for float."""
    spans = trace.spans()
    if horizon_s is None:
        horizon_s = spans[-1][1] if spans else 0.0
    finite_at_least("horizon_s", horizon_s)
    spans = [(s, min(e, horizon_s), b) for (s, e, b) in spans
             if s < horizon_s]

    is_hspa = profile.technology is Technology.HSPA
    active_state = ACTIVE_STATE[profile.technology]
    tail_power = {
        RadioState.DCH: profile.p1_mw,
        RadioState.CONNECTED: profile.p1_mw,
        RadioState.FACH: profile.p2_mw,
        RadioState.CONN_DRX_ON: profile.p_tail_mw,
        RadioState.CONN_DRX_OFF: profile.p_drx_off_mw,
        RadioState.PCH: profile.p_pch_mw,
        RadioState.IDLE: profile.p_idle_mw,
    }
    starts: List[float] = []
    ends: List[float] = []
    states: List[RadioState] = []
    powers: List[float] = []
    rates: List[Optional[float]] = []
    add_start, add_end, add_state = starts.append, ends.append, states.append
    add_power, add_rate = powers.append, rates.append

    def tail(s: float, e: float, state: RadioState) -> None:
        """Append the tail segment [s, e) at its state's power, unless it
        is empty."""
        if e > s:
            add_start(s)
            add_end(e)
            add_state(state)
            add_power(tail_power[state])
            add_rate(None)

    drx_states = [RadioState.CONN_DRX_ON, RadioState.CONN_DRX_OFF]
    drx_powers = [tail_power[state] for state in drx_states]

    def drx_cycles(s: float, edges: List[float]) -> None:
        """Append a run of whole DRX cycles: ON then OFF for each cycle,
        each segment starting where the one before it ends."""
        add_start(s)
        starts.extend(edges[:-1])
        ends.extend(edges)
        cycles = len(edges) // 2
        states.extend(drx_states * cycles)
        powers.extend(drx_powers * cycles)
        rates.extend([None] * len(edges))

    def emit_gap(g0: float, g1: float, t_end: float) -> None:
        if is_hspa:
            _emit_hspa_gap(tail, g0, g1, t_end, profile)
        else:
            _emit_lte_gap(tail, drx_cycles, g0, g1, t_end, profile)

    t = 0.0
    last_end: Optional[float] = None
    i = 0
    while i < len(spans):
        start, end, nbytes = spans[i]
        i += 1
        eff_start = start
        if last_end is None:
            tail(t, start, RadioState.IDLE)
        else:
            if not is_hspa and profile.drx is not None:
                dt = start - last_end
                if _lte_phase_at(dt, profile) is RadioState.CONN_DRX_OFF:
                    eff_start = last_end + min(_next_drx_on(dt, profile),
                                               profile.t1_s)
            if eff_start > t:
                emit_gap(t, min(eff_start, horizon_s), last_end)
        if eff_start >= horizon_s:
            t = horizon_s
            break
        eff_end = min(eff_start + (end - start), horizon_s)
        # deferred delivery may now overlap following spans: absorb them
        while i < len(spans) and spans[i][0] < eff_end + 1e-12:
            _, nend, nb = spans[i]
            i += 1
            eff_end = min(max(eff_end, nend), horizon_s)
            nbytes = nbytes + nb
        if eff_end > eff_start:
            rate = nbytes * 8.0 / (eff_end - eff_start)
            add_start(eff_start)
            add_end(eff_end)
            add_state(active_state)
            add_power(power_rx(rate, profile))
            add_rate(rate)
        t = eff_end
        last_end = eff_end
    if t < horizon_s:
        if last_end is None:
            tail(t, horizon_s, RadioState.IDLE)
        else:
            emit_gap(t, horizon_s, last_end)
    if not starts:
        return StateTrace([0.0], [horizon_s], [RadioState.IDLE],
                          [profile.p_idle_mw], [None], horizon_s,
                          profile.technology)
    return StateTrace(starts, ends, states, powers, rates, horizon_s,
                      profile.technology)
