"""RRC/PSM state machine simulation with signaling accounting.

Replays the activity spans of a session, each ``(start_s, end_s, bytes)``,
against the state machine of one access technology and produces a
contiguous state trace in which ``simulate`` prices each segment once. The
trace is stored as columns (start, end, state, power and rate, one entry per
segment); a receive segment is one with a rate, priced from its span's
bytes over its duration. The energy integral, the tail-state energy and the
ledger of state transitions (weighted by a configurable signaling cost
table) are reductions over those columns. ``StateTrace.segments`` is a
read-only view: a tuple of ``StateSegment`` built from the columns each
time it is read.

Inside an LTE gap, the DRX cycles that end before the gap does (or before
the RRC timer expires) are appended to the columns as one run, from list
comprehensions over the cycle starts; a per-cycle loop emits only the
partial cycles at the gap's two ends. Both compute each boundary from the
cycle start the same way, so the run holds the same floats the loop would.

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
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .energy import FastDormancy, RadioProfile, Technology, power_rx
from .errors import FieldError, finite_at_least


class RadioState(enum.Enum):
    # members are singletons compared by identity; hash them by identity in
    # C too, not by Enum's Python-level hash of the name, since the replay
    # looks states up per segment
    __hash__ = object.__hash__

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


class TraceError(FieldError):
    """Malformed activity trace: a span whose times are not finite with
    its start at or before its end, or whose byte count is not a finite
    number >= 0, or byte counts whose sum is not finite."""


class SignalingConfigError(KeyError):
    """A transition occurred that the cost table does not price."""


class ActivityTrace:
    """The merged activity intervals of a session (RX and TX alike), each
    ``(start_s, end_s, bytes)``. ``from_spans`` is the one way to build
    one."""

    @classmethod
    def from_spans(cls, spans: Iterable[Tuple[float, float, float]],
                   ) -> "ActivityTrace":
        """Build a trace from (start_s, end_s, bytes) activity spans.

        Every span has finite times, its start at or before its end, and
        carries its byte count, a finite number >= 0. The spans
        are sorted, and those that overlap or touch (within 1e-12 s) merge
        into one activity interval whose count is the sum of theirs.
        """
        spans = list(spans)
        total = 0.0      # no merged count exceeds it
        try:
            for start, end, nbytes in spans:
                # a NaN or infinite bound makes the length NaN or infinite
                finite_at_least("span end - start", end - start)
                finite_at_least("span bytes", nbytes)
                total += nbytes
            finite_at_least("span bytes in all", total)
        except (FieldError, TypeError) as exc:  # TypeError: None, say
            raise TraceError(getattr(exc, "field", "span"),
                             getattr(exc, "rule", "numbers")) from None
        merged: List[Tuple[float, float, float]] = []
        for start, end, nbytes in sorted(spans):
            if merged and start <= merged[-1][1] + 1e-12:
                prev_start, prev_end, prev_bytes = merged[-1]
                merged[-1] = (prev_start, max(prev_end, end),
                              prev_bytes + nbytes)
            else:
                merged.append((start, end, nbytes))
        trace = cls.__new__(cls)
        trace._spans = merged
        return trace

    def spans(self) -> List[Tuple[float, float, float]]:
        """Merged activity intervals, with byte totals."""
        return list(self._spans)


@dataclass(frozen=True)
class StateSegment:
    start_s: float
    end_s: float
    state: RadioState
    power_mw: float
    rate_bps: Optional[float] = None

    @property
    def active(self) -> bool:
        """A receive segment: one that has a rate."""
        return self.rate_bps is not None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class StateTrace:
    """A contiguous state trace from 0 to ``horizon_s``, one column entry
    per segment: ``start_s[i]``, ``end_s[i]``, ``state[i]``,
    ``power_mw[i]`` and ``rate_bps[i]`` are the fields of ``segments[i]``.
    ``rate_bps[i]`` is the receive rate of a receive segment and None for a
    tail segment. ``transitions`` counts the RRC transitions along the
    trace, which starts from IDLE, in order of first occurrence; DRX on/off
    cycling collapses into CONNECTED first, since duty cycling happens
    inside the connected state and exchanges no RRC signaling.
    """

    start_s: List[float]
    end_s: List[float]
    state: List[RadioState]
    power_mw: List[float]
    rate_bps: List[Optional[float]]
    horizon_s: float
    technology: Technology
    transitions: Dict[Tuple[RadioState, RadioState], int] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.start_s)
        if any(len(col) != n for col in (self.end_s, self.state,
                                         self.power_mw, self.rate_bps)):
            raise ValueError("state trace columns differ in length")
        allowed = _ALLOWED_STATES[self.technology]
        drx = (RadioState.CONN_DRX_ON, RadioState.CONN_DRX_OFF)
        counts: Dict[Tuple[RadioState, RadioState], int] = {}
        prev = RadioState.IDLE
        t = 0.0
        for start, end, state in zip(self.start_s, self.end_s, self.state):
            if abs(start - t) > 1e-9:
                raise ValueError("state trace must be contiguous from 0")
            if end < start:
                raise ValueError("segment ends before it starts")
            if state not in allowed:
                raise ValueError(f"state {state} invalid for "
                                 f"{self.technology}")
            t = end
            cur = RadioState.CONNECTED if state in drx else state
            if cur is not prev:
                counts[(prev, cur)] = counts.get((prev, cur), 0) + 1
            prev = cur
        if abs(t - self.horizon_s) > 1e-9:
            raise ValueError("state trace must cover the horizon")
        self.transitions = counts

    @property
    def segments(self) -> Tuple[StateSegment, ...]:
        """The segments, built from the columns each time this is read."""
        return tuple(map(StateSegment, self.start_s, self.end_s, self.state,
                         self.power_mw, self.rate_bps))

    def to_csv(self) -> str:
        """One ``start_s,end_s,state,power_mw`` row per segment: the row
        template is repeated once per segment and filled with one ``%``."""
        rows = "%.6f,%.6f,%s,%.6f\n" * len(self.start_s)
        return "start_s,end_s,state,power_mw\n" + rows % tuple(
            chain.from_iterable(zip(self.start_s, self.end_s,
                                    [s.value for s in self.state],
                                    self.power_mw)))

    def time_in(self, state: RadioState) -> float:
        return sum(end - start for start, end, s in
                   zip(self.start_s, self.end_s, self.state) if s is state)


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
_TailSink = Callable[[float, float, RadioState], None]
# receives a run of whole DRX cycles: (start_s, edges), where ``edges`` holds
# each cycle's ON end and then its OFF end, and the first ON starts at start_s
_CycleSink = Callable[[float, List[float]], None]


def _emit_lte_gap(out: _TailSink, out_cycles: _CycleSink, g0: float,
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


def _emit_hspa_gap(out: _TailSink, g0: float, g1: float, t_end: float,
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


def simulate(trace: ActivityTrace, profile: RadioProfile,
             horizon_s: Optional[float] = None) -> StateTrace:
    """Replay an activity trace through the profile's state machine.

    Activity promotes the radio to its active state; inactivity timers
    demote it along the technology's cascade. For LTE with DRX, activity
    arriving during a DRX sleep window is deferred to the next on-duration
    (never past the RRC inactivity expiry).

    Every segment is priced here, once: a receive segment at the receive
    power of its spans' bytes over its duration, a tail segment at its
    state's configured power.
    """
    spans = trace.spans()
    if horizon_s is None:
        horizon_s = spans[-1][1] if spans else 0.0
    spans = [(s, min(e, horizon_s), b) for (s, e, b) in spans
             if s < horizon_s]

    is_hspa = profile.technology is Technology.HSPA
    active_state = _ACTIVE_STATE[profile.technology]
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


def energy_of(state_trace: StateTrace, profile: RadioProfile) -> float:
    """Total radio energy over the trace, mJ.

    Each segment contributes its duration times the power ``simulate``
    priced it at. Each reconnect (a transition out of IDLE) additionally
    charges ``reconnect_setup_s`` seconds at p1 for the signaling exchange.
    """
    tr = state_trace
    total = 0.0
    for start, end, power in zip(tr.start_s, tr.end_s, tr.power_mw):
        total += (end - start) * power
    reconnects = sum(n for (src, _), n in tr.transitions.items()
                     if src is RadioState.IDLE)
    return total + reconnects * profile.reconnect_setup_s * profile.p1_mw


def tail_states_energy(state_trace: StateTrace, profile: RadioProfile,
                       window: Optional[Tuple[float, float]] = None) -> float:
    """Energy spent in non-active elevated states (DCH/FACH/CONNECTED tail,
    DRX cycling), optionally restricted to a time window. mJ.

    Reads each segment's power off the trace; ``profile`` names the
    profile the trace was simulated under.
    """
    tail = {RadioState.DCH, RadioState.FACH, RadioState.CONNECTED,
            RadioState.CONN_DRX_ON, RadioState.CONN_DRX_OFF}
    tr = state_trace
    total = 0.0
    for s, e, state, power, rate in zip(tr.start_s, tr.end_s, tr.state,
                                        tr.power_mw, tr.rate_bps):
        if rate is not None or state not in tail:
            continue
        if window is not None:
            s, e = max(s, window[0]), min(e, window[1])
            if e <= s:
                continue
        total += (e - s) * power
    return total


def signaling_of(state_trace: StateTrace,
                 costs: SignalingCostTable) -> SignalingLedger:
    """Count the trace's RRC transitions (DRX cycling collapsed into
    CONNECTED) and weight them by the cost table."""
    counts = dict(state_trace.transitions)
    cost_used = {key: costs.cost(*key) for key in counts}
    total = sum(n * cost_used[key] for key, n in counts.items())
    minutes = state_trace.horizon_s / 60.0
    return SignalingLedger(counts, total,
                           total / minutes if minutes > 0 else 0.0, cost_used)
