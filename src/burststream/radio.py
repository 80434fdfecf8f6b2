"""Event-driven RRC/PSM state machine simulation with signaling accounting.

Replays a packet-activity timeline against the state machine of one access
technology and produces a contiguous state trace, the energy integral over
it, and a ledger of state transitions weighted by a configurable signaling
cost table.

State sets per technology:
  HSPA   DCH -> FACH -> PCH -> IDLE, driven by the T1/T2/T3 inactivity
         timers; fast dormancy short-circuits the cascade.
  LTE    CONNECTED -> (DRX on/off cycling) -> IDLE, driven by the DRX
         inactivity timer and the RRC inactivity timer.
  WIFI   CONNECTED (PSM tail) -> IDLE (sleep), one timer.

Simulation is deterministic: identical inputs produce identical traces.
A timer expiring exactly when activity arrives resolves in favor of the
activity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .energy import FastDormancy, RadioProfile, Technology, power_rx


class RadioState(enum.Enum):
    DCH = "DCH"
    FACH = "FACH"
    PCH = "PCH"
    IDLE = "IDLE"
    CONNECTED = "CONNECTED"
    CONN_DRX_ON = "CONN_DRX_ON"
    CONN_DRX_OFF = "CONN_DRX_OFF"


_ACTIVE_STATE = {
    Technology.HSPA: RadioState.DCH,
    Technology.LTE: RadioState.CONNECTED,
    Technology.WIFI: RadioState.CONNECTED,
}

_ALLOWED_STATES = {
    Technology.HSPA: {RadioState.DCH, RadioState.FACH, RadioState.PCH,
                      RadioState.IDLE},
    Technology.LTE: {RadioState.CONNECTED, RadioState.CONN_DRX_ON,
                     RadioState.CONN_DRX_OFF, RadioState.IDLE},
    Technology.WIFI: {RadioState.CONNECTED, RadioState.IDLE},
}


class EventKind(enum.Enum):
    RX_START = "RX_START"
    RX_END = "RX_END"
    TX_START = "TX_START"
    TX_END = "TX_END"


class TraceError(ValueError):
    """Malformed activity trace (ordering or pairing violation)."""


class SignalingConfigError(KeyError):
    """A transition occurred that the cost table does not price."""


@dataclass(frozen=True)
class ActivityEvent:
    time_s: float
    kind: EventKind
    bytes: Optional[int] = None


def _merge_spans(spans: Iterable[Tuple[float, float, Optional[int]]],
                ) -> List[Tuple[float, float, Optional[int]]]:
    """Sort (start_s, end_s, bytes) spans and join those that overlap or
    touch (within 1e-12 s); byte counts add up, and one unknown (None)
    count makes the joined count unknown."""
    merged: List[Tuple[float, float, Optional[int]]] = []
    for start, end, nbytes in sorted(spans):
        if merged and start <= merged[-1][1] + 1e-12:
            prev_start, prev_end, prev_bytes = merged[-1]
            total = None if prev_bytes is None or nbytes is None \
                else prev_bytes + nbytes
            merged[-1] = (prev_start, max(prev_end, end), total)
        else:
            merged.append((start, end, nbytes))
    return merged


@dataclass
class ActivityTrace:
    """Ordered RX/TX start/end events; START/END pair up per direction."""

    events: List[ActivityEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        last_t = -1e30
        open_dir = {"RX": False, "TX": False}
        for ev in self.events:
            if ev.time_s < last_t - 1e-12:
                raise TraceError("event times must be non-decreasing")
            last_t = max(last_t, ev.time_s)
            direction = "RX" if ev.kind in (EventKind.RX_START,
                                            EventKind.RX_END) else "TX"
            starting = ev.kind in (EventKind.RX_START, EventKind.TX_START)
            if starting and open_dir[direction]:
                raise TraceError(f"nested {direction} span at t={ev.time_s}")
            if not starting and not open_dir[direction]:
                raise TraceError(f"unmatched {direction} end at t={ev.time_s}")
            open_dir[direction] = starting
        if open_dir["RX"] or open_dir["TX"]:
            raise TraceError("trace ends with an open span")

    @classmethod
    def from_spans(cls, spans: Iterable[Tuple[float, float, Optional[int]]],
                   kind: str = "RX") -> "ActivityTrace":
        """Build a trace from (start_s, end_s, bytes) activity spans.

        Overlapping or touching spans merge into one activity interval with
        their byte counts summed.
        """
        start_kind = EventKind.RX_START if kind == "RX" else EventKind.TX_START
        end_kind = EventKind.RX_END if kind == "RX" else EventKind.TX_END
        spans = list(spans)
        if any(end < start for start, end, _ in spans):
            raise TraceError("span end before start")
        events: List[ActivityEvent] = []
        for start, end, nbytes in _merge_spans(spans):
            events.append(ActivityEvent(start, start_kind, nbytes))
            events.append(ActivityEvent(end, end_kind))
        return cls(events)

    def spans(self) -> List[Tuple[float, float, Optional[int]]]:
        """Merged activity intervals (union of RX and TX), with byte totals."""
        raw: List[Tuple[float, float, Optional[int]]] = []
        open_start: Dict[str, float] = {}
        open_bytes: Dict[str, Optional[int]] = {}
        for ev in self.events:
            direction = "RX" if ev.kind in (EventKind.RX_START,
                                            EventKind.RX_END) else "TX"
            if ev.kind in (EventKind.RX_START, EventKind.TX_START):
                open_start[direction] = ev.time_s
                open_bytes[direction] = ev.bytes
            else:
                raw.append((open_start.pop(direction), ev.time_s,
                            open_bytes.pop(direction)))
        return _merge_spans(raw)


@dataclass(frozen=True)
class StateSegment:
    start_s: float
    end_s: float
    state: RadioState
    power_mw: float
    active: bool = False
    rate_bps: Optional[float] = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class StateTrace:
    segments: List[StateSegment]
    horizon_s: float
    technology: Technology

    def __post_init__(self) -> None:
        t = 0.0
        for seg in self.segments:
            if abs(seg.start_s - t) > 1e-9:
                raise ValueError("state trace must be contiguous from 0")
            if seg.end_s < seg.start_s:
                raise ValueError("segment ends before it starts")
            if seg.state not in _ALLOWED_STATES[self.technology]:
                raise ValueError(f"state {seg.state} invalid for "
                                 f"{self.technology}")
            t = seg.end_s
        if abs(t - self.horizon_s) > 1e-9:
            raise ValueError("state trace must cover the horizon")

    def to_csv(self) -> str:
        lines = ["start_s,end_s,state,power_mw"]
        for seg in self.segments:
            lines.append(f"{seg.start_s:.6f},{seg.end_s:.6f},"
                         f"{seg.state.value},{seg.power_mw:.6f}")
        return "\n".join(lines) + "\n"

    def time_in(self, state: RadioState) -> float:
        return sum(s.duration_s for s in self.segments if s.state is state)


@dataclass
class SignalingCostTable:
    """Messages exchanged per state transition.

    The exact per-transition message counts are operator configuration, not
    physics; the defaults only promise the structural property that an RRC
    reconnection (a promotion out of IDLE) costs strictly more than any
    transition inside the connected-mode family.
    """

    costs: Dict[Tuple[RadioState, RadioState], int]

    def __post_init__(self) -> None:
        reconnect = [c for (src, _), c in self.costs.items()
                     if src is RadioState.IDLE]
        intra = [c for (src, _), c in self.costs.items()
                 if src is not RadioState.IDLE]
        if reconnect and intra and min(reconnect) <= max(intra):
            raise ValueError("reconnection must cost more signaling than "
                             "intra-connected transitions")

    def cost(self, src: RadioState, dst: RadioState) -> int:
        try:
            return self.costs[(src, dst)]
        except KeyError:
            raise SignalingConfigError(
                f"no signaling cost configured for {src.value}->{dst.value}")

    @classmethod
    def default(cls) -> "SignalingCostTable":
        s = RadioState
        return cls({
            (s.IDLE, s.DCH): 25,
            (s.IDLE, s.CONNECTED): 15,
            (s.PCH, s.DCH): 6,
            (s.FACH, s.DCH): 4,
            (s.DCH, s.FACH): 2,
            (s.FACH, s.PCH): 2,
            (s.DCH, s.PCH): 3,
            (s.DCH, s.IDLE): 3,
            (s.FACH, s.IDLE): 3,
            (s.PCH, s.IDLE): 2,
            (s.CONNECTED, s.IDLE): 4,
        })


@dataclass
class SignalingLedger:
    """Transition counts of one state trace, weighted by a cost table.

    ``cost_used`` maps each counted transition to the per-transition
    message cost it was weighted with; ``to_csv`` reports it.
    """

    transition_counts: Dict[Tuple[RadioState, RadioState], int]
    total_messages: int
    per_minute: float
    cost_used: Dict[Tuple[RadioState, RadioState], int] = field(
        default_factory=dict)

    @property
    def transition_total(self) -> int:
        return sum(self.transition_counts.values())

    def to_csv(self) -> str:
        lines = ["from,to,count,cost,total"]
        for (src, dst), n in sorted(self.transition_counts.items(),
                                    key=lambda kv: (kv[0][0].value,
                                                    kv[0][1].value)):
            cost = self.cost_used.get((src, dst), 0)
            lines.append(f"{src.value},{dst.value},{n},{cost},{n * cost}")
        return "\n".join(lines) + "\n"


def _collapse(state: RadioState) -> RadioState:
    # DRX cycling stays inside RRC_CONNECTED; it is not an RRC transition.
    if state in (RadioState.CONN_DRX_ON, RadioState.CONN_DRX_OFF):
        return RadioState.CONNECTED
    return state


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


def _emit_lte_gap(out: List[Tuple[float, float, RadioState]], g0: float,
                  g1: float, t_end: float, profile: RadioProfile) -> None:
    """Append tail segments for the gap [g0, g1) after activity at t_end."""
    eps = 1e-12
    rrc_abs = t_end + profile.t1_s
    drx = profile.drx
    t = g0
    drx_start = t_end + drx.idle_s if drx is not None else rrc_abs
    head = min(drx_start, rrc_abs, g1)
    if t < head - eps:
        out.append((t, head, RadioState.CONNECTED))
        t = head
    if drx is not None:
        limit = min(g1, rrc_abs)
        k = max(int((t - drx_start) / drx.cycle_s), 0)
        while t < limit - eps:
            cycle_start = drx_start + k * drx.cycle_s
            on_end = cycle_start + drx.on_s
            cycle_end = cycle_start + drx.cycle_s
            if t < on_end - eps:
                nxt = min(on_end, limit)
                out.append((t, nxt, RadioState.CONN_DRX_ON))
            elif t < cycle_end - eps:
                nxt = min(cycle_end, limit)
                out.append((t, nxt, RadioState.CONN_DRX_OFF))
            else:
                k += 1
                continue
            t = nxt
            if t >= cycle_end - eps:
                k += 1
    if g1 > rrc_abs + eps and t < g1 - eps:
        out.append((max(t, rrc_abs), g1, RadioState.IDLE))
        t = g1


def _emit_hspa_gap(out: List[Tuple[float, float, RadioState]], g0: float,
                   g1: float, t_end: float, profile: RadioProfile) -> None:
    state = RadioState.DCH
    t = g0
    for step_t, step_state in _hspa_cascade(t_end, profile):
        if step_t >= g1:
            break
        if step_t > t:
            out.append((t, step_t, state))
            t = step_t
        state = step_state
    if t < g1:
        out.append((t, g1, state))


def simulate(trace: ActivityTrace, profile: RadioProfile,
             horizon_s: Optional[float] = None,
             rx_rate_bps: Optional[float] = None) -> StateTrace:
    """Replay an activity trace through the profile's state machine.

    Activity promotes the radio to its active state; inactivity timers
    demote it along the technology's cascade. For LTE with DRX, activity
    arriving during a DRX sleep window is deferred to the next on-duration
    (never past the RRC inactivity expiry). ``rx_rate_bps`` sets the power
    of active segments whose trace events carry no byte counts.
    """
    spans = trace.spans()
    if horizon_s is None:
        horizon_s = spans[-1][1] if spans else 0.0
    spans = [(s, min(e, horizon_s), b) for (s, e, b) in spans
             if s < horizon_s]

    is_hspa = profile.technology is Technology.HSPA
    active_state = _ACTIVE_STATE[profile.technology]
    # (start, end, state, active, bytes)
    pieces: List[Tuple[float, float, RadioState, bool, Optional[int]]] = []

    def emit_gap(g0: float, g1: float, t_end: float) -> None:
        tail: List[Tuple[float, float, RadioState]] = []
        if is_hspa:
            _emit_hspa_gap(tail, g0, g1, t_end, profile)
        else:
            _emit_lte_gap(tail, g0, g1, t_end, profile)
        pieces.extend((s, e, st, False, None) for (s, e, st) in tail)

    t = 0.0
    last_end: Optional[float] = None
    i = 0
    while i < len(spans):
        start, end, nbytes = spans[i]
        i += 1
        eff_start = start
        if last_end is None:
            if start > t:
                pieces.append((t, start, RadioState.IDLE, False, None))
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
            nbytes = nbytes + nb if (nbytes is not None and
                                     nb is not None) else None
        if eff_end > eff_start:
            pieces.append((eff_start, eff_end, active_state, True, nbytes))
        t = eff_end
        last_end = eff_end
    if t < horizon_s:
        if last_end is None:
            pieces.append((t, horizon_s, RadioState.IDLE, False, None))
        else:
            emit_gap(t, horizon_s, last_end)

    segments: List[StateSegment] = []
    for (s, e, state, active, nbytes) in pieces:
        if e <= s:
            continue
        rate = None
        if active:
            if nbytes is not None:
                rate = nbytes * 8.0 / (e - s)
            elif rx_rate_bps is not None:
                rate = rx_rate_bps
        power = _segment_power(state, active, rate, profile)
        segments.append(StateSegment(s, e, state, power, active, rate))
    if not segments:
        segments.append(StateSegment(0.0, horizon_s, RadioState.IDLE,
                                     profile.p_idle_mw))
    return StateTrace(segments, horizon_s, profile.technology)


def _segment_power(state: RadioState, active: bool, rate_bps: Optional[float],
                   profile: RadioProfile) -> float:
    if active:
        return power_rx(rate_bps, profile) if rate_bps is not None \
            else power_rx(0.0, profile)
    return {
        RadioState.DCH: profile.p1_mw,
        RadioState.CONNECTED: profile.p1_mw,
        RadioState.FACH: profile.p2_mw,
        RadioState.CONN_DRX_ON: profile.p_tail_mw,
        RadioState.CONN_DRX_OFF: profile.p_drx_off_mw,
        RadioState.PCH: profile.p_pch_mw,
        RadioState.IDLE: profile.p_idle_mw,
    }[state]


def energy_of(state_trace: StateTrace, profile: RadioProfile,
              rx_rate_bps: Optional[float] = None) -> float:
    """Total radio energy over the trace, mJ.

    Active segments integrate the rate-dependent receive power; tail states
    use their configured powers. Each promotion out of IDLE additionally
    charges ``reconnect_setup_s`` seconds at p1 for the reconnection
    signaling exchange.
    """
    total = 0.0
    prev = RadioState.IDLE
    reconnects = 0
    for seg in state_trace.segments:
        if seg.active:
            rate = seg.rate_bps if seg.rate_bps is not None else rx_rate_bps
            if rate is None:
                raise ValueError("active segment has no rate; pass "
                                 "rx_rate_bps")
            total += seg.duration_s * power_rx(rate, profile)
        else:
            total += seg.duration_s * _segment_power(seg.state, False, None,
                                                     profile)
        if prev is RadioState.IDLE and seg.state in (RadioState.DCH,
                                                     RadioState.CONNECTED):
            reconnects += 1
        prev = seg.state
    total += reconnects * profile.reconnect_setup_s * profile.p1_mw
    return total


def tail_states_energy(state_trace: StateTrace, profile: RadioProfile,
                       window: Optional[Tuple[float, float]] = None) -> float:
    """Energy spent in non-active elevated states (DCH/FACH/CONNECTED tail,
    DRX cycling), optionally restricted to a time window. mJ."""
    tail = {RadioState.DCH, RadioState.FACH, RadioState.CONNECTED,
            RadioState.CONN_DRX_ON, RadioState.CONN_DRX_OFF}
    total = 0.0
    for seg in state_trace.segments:
        if seg.active or seg.state not in tail:
            continue
        s, e = seg.start_s, seg.end_s
        if window is not None:
            s, e = max(s, window[0]), min(e, window[1])
            if e <= s:
                continue
        total += (e - s) * _segment_power(seg.state, False, None, profile)
    return total


def signaling_of(state_trace: StateTrace,
                 costs: SignalingCostTable) -> SignalingLedger:
    """Count state transitions in the trace and weight them by the cost table.

    DRX on/off cycling collapses into CONNECTED first, since duty cycling
    happens inside the connected state and exchanges no RRC signaling.
    """
    counts: Dict[Tuple[RadioState, RadioState], int] = {}
    cost_used: Dict[Tuple[RadioState, RadioState], int] = {}
    prev = RadioState.IDLE
    total = 0
    for seg in state_trace.segments:
        cur = _collapse(seg.state)
        if cur is not prev:
            key = (prev, cur)
            counts[key] = counts.get(key, 0) + 1
            c = costs.cost(prev, cur)
            cost_used[key] = c
            total += c
        prev = cur
    minutes = state_trace.horizon_s / 60.0
    return SignalingLedger(counts, total,
                           total / minutes if minutes > 0 else 0.0, cost_used)
