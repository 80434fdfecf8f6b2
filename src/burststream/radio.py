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

``simulate`` is one loop over the merged spans, clipped at the horizon as
it goes, that makes no Python call per segment: each gap's tail (the HSPA
cascade with fast dormancy, the LTE head, the partial DRX cycles and IDLE)
is appended straight to the start, end and state columns, and the power
and rate columns are filled once per trace. Inside an LTE gap, the DRX
cycles that end before the gap does (or before the RRC timer expires) are
appended as one run, from list comprehensions over the cycle starts; the
loop emits only the partial cycles at the gap's two ends. Both compute each
boundary from the cycle start the same way, so the run holds the same
floats a per-cycle loop would.

``StateTrace`` checks its columns with one C-level pass per rule (a list
comparison for contiguity, measuring only the boundaries that differ
against the 1e-9 s tolerance; a sort and a sum of the ends, or
``map(ge, ...)``, for reversed segments; a set for the states), each
comparing under ``not`` so that a NaN time fails it, and raises what a
walk in segment order would. It counts the RRC transitions from the
states as bytes, one per segment.

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
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import ge, ne, not_
from typing import Dict, Iterable, List, Optional, Tuple

from .energy import FastDormancy, RadioProfile, Technology
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


# the members as module constants: each read of a member off the class goes
# through the Enum metaclass, which costs the replay more than the append
_DCH, _FACH, _PCH, _IDLE = (RadioState.DCH, RadioState.FACH, RadioState.PCH,
                            RadioState.IDLE)
_CONNECTED, _DRX_ON, _DRX_OFF = (RadioState.CONNECTED, RadioState.CONN_DRX_ON,
                                 RadioState.CONN_DRX_OFF)

_ACTIVE_STATE = {
    Technology.HSPA: RadioState.DCH,
    Technology.LTE: RadioState.CONNECTED,
    Technology.WIFI: RadioState.CONNECTED,
}

# each state's RRC state as a code below 8, DRX on/off cycling collapsed
# into CONNECTED, since duty cycling happens inside the connected state; a
# pair of RRC states (from, to) is the byte 8 * from + to
_RRC_STATES = (_DCH, _FACH, _PCH, _IDLE, _CONNECTED)
_RRC_CODE = {state: code for code, state in enumerate(_RRC_STATES)}
_RRC_CODE[_DRX_ON] = _RRC_CODE[_DRX_OFF] = _RRC_CODE[_CONNECTED]
_IDLE_BYTE = bytes((_RRC_CODE[_IDLE],))
_PAIR_STATES = {8 * a + b: (src, dst) for a, src in enumerate(_RRC_STATES)
                for b, dst in enumerate(_RRC_STATES)}
_SAME_PAIR = bytes(9 * code for code in range(len(_RRC_STATES)))

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
        start_s, end_s, state = self.start_s, self.end_s, self.state
        n = len(start_s)
        if len(end_s) != n or len(state) != n or \
                len(self.power_mw) != n or len(self.rate_bps) != n:
            raise ValueError("state trace columns differ in length")
        # each rule is one C-level pass; where one fails, the first segment
        # that breaks any rule names the error, as a walk in segment order
        # would find it. Each rule compares under ``not``, which NaN fails.
        # Each segment starts where the one before it ends (the first at 0)
        # within 1e-9 s: only the boundaries that differ are measured (a
        # list compares an element to itself as equal, NaN too, but a NaN
        # start the same as the end before it follows a NaN end, which
        # breaks the next rule first).
        prev_end = [0.0]
        prev_end += end_s
        exact = start_s == prev_end[:-1]
        allowed = _ALLOWED_STATES[self.technology]
        gap = back = alien = n
        reversed_any = True
        if not exact:
            gap = next((i for i in compress(range(n), map(ne, start_s,
                                                          prev_end))
                        if not abs(start_s[i] - prev_end[i]) <= 1e-9), n)
        else:
            # none ends before it starts iff the ends, after the 0, never
            # step down: iff sorting leaves them as they are, which takes
            # one run of float comparisons, and none is NaN, which the
            # sort may leave in place but which makes their sum NaN
            total = sum(end_s)
            reversed_any = total != total or prev_end != sorted(prev_end)
        if reversed_any:
            back = next(compress(range(n), map(not_, map(ge, end_s,
                                                         start_s))), n)
        if not allowed.issuperset(state):
            alien = next(i for i, s in enumerate(state) if s not in allowed)
        first = min(gap, back, alien)
        if first < n:
            if first == gap:
                raise ValueError("state trace must be contiguous from 0")
            if first == back:
                raise ValueError("segment ends before it starts")
            raise ValueError(f"state {state[first]} invalid for "
                             f"{self.technology}")
        if not abs((end_s[-1] if n else 0.0) - self.horizon_s) <= 1e-9:
            raise ValueError("state trace must cover the horizon")
        # each segment's RRC code as one byte; the codes of the segments
        # before them (IDLE before the first), shifted three bits within
        # their bytes, make each byte the segment's (from, to) pair. The
        # pairs of unequal codes are the transitions, counted in order of
        # first occurrence.
        pairs = b""
        if n:
            codes = bytes(map(_RRC_CODE.__getitem__, state))
            before = int.from_bytes(_IDLE_BYTE + codes[:-1], "big")
            pairs = (before << 3 | int.from_bytes(codes, "big")).to_bytes(
                n, "big").translate(None, _SAME_PAIR)
        self.transitions = {_PAIR_STATES[pair]: pairs.count(pair)
                            for pair in dict.fromkeys(pairs)}

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


_INF = float("inf")
_EPS = 1e-12    # the DRX and RRC boundaries' tolerance


def _drx_run(drx_start: float, k: int, whole: int, cycle: float,
             on: float) -> List[float]:
    """The segment ends of the whole DRX cycles k..whole-1: each cycle's ON
    end, then its OFF end, computed from the cycle start as a per-cycle
    loop computes them."""
    cycle_starts = [drx_start + j * cycle for j in range(k, whole)]
    edges = [0.0] * (2 * (whole - k))
    edges[0::2] = [cs + on for cs in cycle_starts]
    edges[1::2] = [cs + cycle for cs in cycle_starts]
    return edges


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

    ``horizon_s``, the last span's end if not given, must be >= 0 and
    finite (a FieldError naming it otherwise).
    """
    spans = trace._spans
    if horizon_s is None:
        horizon_s = spans[-1][1] if spans else 0.0
    finite_at_least("horizon_s", horizon_s)
    # the spans that start before the horizon (only the last of them can
    # end past it, and is cut there), then the horizon itself as a span
    # without bytes, which closes the final gap
    todo = spans[:bisect_left(spans, (horizon_s,))]
    n = len(todo)
    if n and horizon_s < todo[-1][1]:
        todo[-1] = (todo[-1][0], horizon_s, todo[-1][2])
    todo.append((horizon_s, horizon_s, None))

    active_state = _ACTIVE_STATE[profile.technology]
    is_hspa = active_state is _DCH
    t1, t2, t3 = profile.t1_s, profile.t2_s, profile.t3_s
    # the HSPA demotion schedule after activity ends: FACH at T1, then PCH
    # (or IDLE) at T2, then IDLE at T3 when PCH has a timer; fast dormancy
    # cuts in at its timeout while the radio is still in DCH or FACH
    second = _PCH if profile.pch_enabled else _IDLE
    third = profile.pch_enabled and t3 > 0
    fd_timeout = profile.legacy_fd_timeout_s
    dormancy = fd_timeout > 0 and \
        profile.fast_dormancy is not FastDormancy.NONE
    if dormancy:
        fd_state = _IDLE if profile.fast_dormancy is FastDormancy.LEGACY \
            or not profile.pch_enabled else _PCH
        fd_third = fd_state is _PCH and t3 > 0
    drx = profile.drx
    if drx is not None:
        idle, cycle, on = drx.idle_s, drx.cycle_s, drx.on_s
        narrow = min(on, cycle - on)
    defer = not is_hspa and drx is not None
    drx_pair = [_DRX_ON, _DRX_OFF]

    starts: List[float] = []
    ends: List[float] = []
    states: List[RadioState] = []
    add_start, add_end, add_state = starts.append, ends.append, states.append
    active_at: List[int] = []       # the index of each receive segment
    active_rate: List[float] = []   # and its rate
    t = 0.0
    last_end: Optional[float] = None
    i = 0
    while i <= n:
        start, end, nbytes = todo[i]
        i += 1
        eff_start = start
        if last_end is None:
            if start > t:
                add_start(t)
                add_end(start)
                add_state(_IDLE)
        else:
            if defer and nbytes is not None:
                dt = start - last_end
                if not dt >= t1 and not dt < idle and \
                        not (dt - idle) % cycle < on:
                    # arrival in a DRX OFF window waits for the next ON
                    # window, or for the RRC timer if that comes first
                    wake = idle
                    if dt > idle:
                        wake = idle + int((dt - idle) / cycle) * cycle
                        if wake < dt - 1e-12:
                            wake += cycle
                    eff_start = last_end + (t1 if t1 < wake else wake)
            if eff_start > t:
                # the tail of the gap [g, g1) after activity ended at
                # last_end
                g1 = horizon_s if horizon_s < eff_start else eff_start
                g = t
                if is_hspa:
                    x1 = last_end + t1
                    x2 = x1 + t2
                    x3 = x2 + t3 if third else _INF
                    s1, s2 = _FACH, second
                    if dormancy:
                        t_fd = last_end + fd_timeout
                        if not x2 <= t_fd:
                            fd_next = t_fd + t3 if fd_third else _INF
                            if x1 < t_fd:
                                x2, s2, x3 = t_fd, fd_state, fd_next
                            else:
                                x1, s1, x2, s2, x3 = (t_fd, fd_state, fd_next,
                                                      _IDLE, _INF)
                    # the first step at or past g1 ends the cascade
                    state = _DCH
                    if x1 < g1:
                        if x1 > g:
                            add_start(g)
                            add_end(x1)
                            add_state(_DCH)
                            g = x1
                        state = s1
                        if x2 < g1:
                            if x2 > g:
                                add_start(g)
                                add_end(x2)
                                add_state(s1)
                                g = x2
                            state = s2
                            if x3 < g1:
                                if x3 > g:
                                    add_start(g)
                                    add_end(x3)
                                    add_state(s2)
                                    g = x3
                                state = _IDLE
                    if g < g1:
                        add_start(g)
                        add_end(g1)
                        add_state(state)
                else:
                    rrc_abs = last_end + t1
                    drx_start = last_end + idle if drx is not None \
                        else rrc_abs
                    head = drx_start
                    if rrc_abs < head:
                        head = rrc_abs
                    if g1 < head:
                        head = g1
                    if g < head - _EPS:
                        add_start(g)
                        add_end(head)
                        add_state(_CONNECTED)
                        g = head
                    if drx is not None:
                        limit = rrc_abs if rrc_abs < g1 else g1
                        stop = limit - _EPS
                        # cycles 0..whole-1 end before the stop. They go out
                        # in one run only where rounding cannot empty a
                        # segment or reorder its boundaries: each ON and OFF
                        # window is wider than eps plus a bound on the
                        # rounding of the times involved.
                        whole = 0
                        if narrow > _EPS + 1e-14 * (
                                abs(drx_start) + abs(limit) + cycle):
                            whole = int((stop - drx_start) / cycle)
                            if whole < 0:
                                whole = 0
                            while whole > 0 and drx_start + \
                                    (whole - 1) * cycle + cycle >= stop:
                                whole -= 1
                            while drx_start + whole * cycle + cycle < stop:
                                whole += 1
                        k = int((g - drx_start) / cycle)
                        if k < 0:
                            k = 0
                        while g < stop:
                            cycle_start = drx_start + k * cycle
                            on_end = cycle_start + on
                            cycle_end = cycle_start + cycle
                            if g < on_end - _EPS:
                                if k < whole:
                                    # cycles k..whole-1 as one run of ON and
                                    # OFF segments, each starting where the
                                    # one before it ends
                                    edges = _drx_run(drx_start, k, whole,
                                                     cycle, on)
                                    add_start(g)
                                    starts += edges
                                    del starts[-1]
                                    ends += edges
                                    states += drx_pair * (whole - k)
                                    g, k = edges[-1], whole
                                    continue
                                nxt = limit if limit < on_end else on_end
                                add_state(_DRX_ON)
                            elif g < cycle_end - _EPS:
                                nxt = limit if limit < cycle_end else \
                                    cycle_end
                                add_state(_DRX_OFF)
                            else:
                                k += 1
                                continue
                            add_start(g)
                            add_end(nxt)
                            g = nxt
                            if g >= cycle_end - _EPS:
                                k += 1
                    if g1 > rrc_abs + _EPS and g < g1 - _EPS:
                        add_start(rrc_abs if rrc_abs > g else g)
                        add_end(g1)
                        add_state(_IDLE)
        if eff_start >= horizon_s:
            break
        eff_end = eff_start + (end - start)
        if horizon_s < eff_end:
            eff_end = horizon_s
        # deferred delivery may now overlap following spans: absorb them
        while i < n and todo[i][0] < eff_end + 1e-12:
            if todo[i][1] > eff_end:
                eff_end = todo[i][1]
            nbytes = nbytes + todo[i][2]
            i += 1
        if eff_end > eff_start:
            active_at.append(len(states))
            active_rate.append(nbytes * 8.0 / (eff_end - eff_start))
            add_start(eff_start)
            add_end(eff_end)
            add_state(active_state)
        t = last_end = eff_end
    if not starts:
        return StateTrace([0.0], [horizon_s], [_IDLE],
                          [profile.p_idle_mw], [None], horizon_s,
                          profile.technology)
    tail_power = {
        _DCH: profile.p1_mw,
        _CONNECTED: profile.p1_mw,
        _FACH: profile.p2_mw,
        _DRX_ON: profile.p_tail_mw,
        _DRX_OFF: profile.p_drx_off_mw,
        _PCH: profile.p_pch_mw,
        _IDLE: profile.p_idle_mw,
    }
    powers = list(map(tail_power.__getitem__, states))
    rates: List[Optional[float]] = [None] * len(states)
    a, k_coeff, p_tail = profile.a_coeff, profile.k_coeff, profile.p_tail_mw
    for j, rate in zip(active_at, active_rate):
        rates[j] = rate
        # energy.power_rx(rate, profile), for a rate >= 0
        powers[j] = (a + (k_coeff * rate if k_coeff else 0.0)) * p_tail
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
                     if src is _IDLE)
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
