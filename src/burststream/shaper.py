"""Burst shaper: fast-start accounting, interval search, rate adaptation.

The shaper discovers the largest burst a client can absorb purely from
flow-control feedback. Fast Start delivers unshaped content and fixes the
starvation bound ``t_max = L*8/r_s``; a binary search then probes growing
intervals from ``t_max/2`` upward. A zero window ends the search at once,
because the byte count accepted before it *is* the client's buffer size.
Bandwidth collapses below the encoding rate switch the shaper to continuous
sending with save/restore of the search state. ``ShapingController`` runs
that loop without I/O, for the simulated session and the live proxy alike;
the ``Shaper`` methods it calls change the shaper's state and return
nothing else. An endless stream is a ``StreamSpec`` of infinite duration.

Each burst is recorded once, as one tuple of values, a ``BurstRecord``:
by ``Shaper.log_burst``, or, for a plain STEADY burst that a simulated
session takes in one step, by ``ShapingController.report_steady`` with the
same values. The CSV rows of ``Shaper.burst_log`` are rendered from those
records, by ``render_burst_row`` alone, only when they are read, and
``write_burst_log`` writes them to a burst-log file.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from typing import IO, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import positive, positive_finite
from .profiler import BurstObservation

log = logging.getLogger(__name__)


class Phase(enum.Enum):
    FAST_START = "FAST_START"
    SEARCHING = "SEARCHING"
    STEADY = "STEADY"
    LOW_BANDWIDTH = "LOW_BANDWIDTH"


# the members as module constants, which the per-send path reads without
# an attribute lookup on the Enum class
_FAST_START, _SEARCHING, _STEADY, _LOW_BANDWIDTH = (
    Phase.FAST_START, Phase.SEARCHING, Phase.STEADY, Phase.LOW_BANDWIDTH)


@dataclass(frozen=True)
class QualityLevel:
    bitrate_bps: float

    def __post_init__(self) -> None:
        positive_finite("bitrate_bps", self.bitrate_bps)


@dataclass(frozen=True)
class StreamSpec:
    """Content description: quality ladder, duration, fast-start length.
    An endless stream has ``duration_s = math.inf``."""

    qualities: Tuple[QualityLevel, ...]
    duration_s: float
    fast_start_s: float = 20.0

    def __post_init__(self) -> None:
        if not self.qualities:
            raise ValueError("at least one quality level required")
        rates = [q.bitrate_bps for q in self.qualities]
        if any(b >= a for a, b in zip(rates[1:], rates)):
            raise ValueError("qualities must be strictly increasing in "
                             "bitrate")
        positive("duration_s", self.duration_s)
        positive_finite("fast_start_s", self.fast_start_s)

    @classmethod
    def single(cls, bitrate_bps: float, duration_s: float,
               fast_start_s: float = 20.0) -> "StreamSpec":
        return cls((QualityLevel(bitrate_bps),), duration_s, fast_start_s)


@dataclass
class ShaperState:
    phase: Phase = Phase.FAST_START
    t_s: Optional[float] = None
    t_min_s: float = 0.0
    t_max_s: Optional[float] = None
    t_old_s: Optional[float] = None
    bs_opt_bytes: Optional[float] = None
    current_quality_index: int = 0
    per_quality_bs_opt: Dict[int, float] = field(default_factory=dict)


# The burst log -------------------------------------------------------------

# (burst_id, r_s_bps, t_s, nbytes, zwa, bs_opt_bytes or None, phase value):
# the values one burst-log row shows, as they stood when the burst was sent
BurstRecord = Tuple[int, float, float, float, bool, Optional[float], str]


def render_burst_row(record: BurstRecord) -> str:
    """One burst-log CSV row, in ``Shaper.BURST_LOG_HEADER``'s columns."""
    burst_id, r_s_bps, t_s, nbytes, zwa, bs_opt_bytes, phase = record
    bs_opt = "" if bs_opt_bytes is None else f"{bs_opt_bytes:.0f}"
    return (f"{burst_id},{r_s_bps:.0f},{t_s:.3f},{nbytes:.0f},"
            f"{int(zwa)},{bs_opt},{phase}")


def write_burst_log(fp: IO[str], rows: Sequence[str],
                    header: bool = True) -> None:
    """Write burst-log ``rows`` to ``fp``, a line each, after the header
    line unless ``header`` is false (a file that already has it)."""
    if header:
        fp.write(Shaper.BURST_LOG_HEADER + "\n")
    for row in rows:
        fp.write(row + "\n")


# Quality selection ---------------------------------------------------------

TYPICAL_MOBILE_BPS = 2_000_000  # planning figure for the very first pick
SAFETY_FACTOR = 2.0             # demand bandwidth >= 2x encoding rate


def initial_quality(ladder: Sequence[QualityLevel]) -> int:
    """Highest quality whose rate fits within half the typical mobile
    bandwidth."""
    budget = TYPICAL_MOBILE_BPS / SAFETY_FACTOR
    best = 0
    for i, q in enumerate(ladder):
        if q.bitrate_bps <= budget:
            best = i
    return best


def select_quality(est_bps: float, ladder: Sequence[QualityLevel],
                   current: int) -> Tuple[int, bool]:
    """Apply the switching rule; returns (new index, stall_risk).

    Upgrades only when the estimate covers twice the target encoding rate,
    and then to the highest such quality. Downgrades to the highest
    sustainable quality when the estimate falls below the current rate;
    if even the lowest does not fit, stays there and flags the risk.
    """
    if not ladder:
        raise ValueError("empty quality ladder")
    cur_rate = ladder[current].bitrate_bps
    if est_bps >= cur_rate:
        best = current
        for i in range(current + 1, len(ladder)):
            if SAFETY_FACTOR * ladder[i].bitrate_bps <= est_bps:
                best = i
        return best, False
    for i in range(current - 1, -1, -1):
        if ladder[i].bitrate_bps <= est_bps:
            return i, False
    return 0, True


def _burst_bytes(st: ShaperState, r_s: float, pending_bytes: float) -> float:
    """``Shaper.next_burst_bytes`` at encoding rate ``r_s``."""
    size = st.t_s * r_s / 8.0 + pending_bytes
    if st.bs_opt_bytes is not None:
        size = min(size, st.bs_opt_bytes)
    elif st.t_max_s is not None:
        size = min(size, st.t_max_s * r_s / 8.0)
    return size


class Shaper:
    """Per-session traffic shaper state machine; quality switches follow
    ``select_quality``.

    ``decision_log`` holds one string per decision. ``burst_records``
    holds one ``BurstRecord`` per burst; ``burst_log`` renders them when
    read, as a fresh list of strings on each read.
    """

    def __init__(self, stream: StreamSpec, granularity_s: float = 1.0):
        positive_finite("granularity_s", granularity_s)
        self.stream = stream
        self.granularity_s = granularity_s
        self.state = ShaperState(
            current_quality_index=initial_quality(stream.qualities))
        self.decision_log: List[str] = []
        self.burst_records: List[BurstRecord] = []
        self._last_feedback_id: Optional[int] = None

    # -- convenience -----------------------------------------------------

    @property
    def r_s_bps(self) -> float:
        return self.stream.qualities[self.state.current_quality_index].bitrate_bps

    @property
    def phase(self) -> Phase:
        return self.state.phase

    def next_burst_bytes(self, pending_bytes: float = 0.0) -> float:
        """Size of the next burst: interval worth of content plus any
        remainder re-offered after an aborted burst, capped by BS_OPT."""
        if self.state.t_s is None:
            raise RuntimeError("no interval chosen yet")
        return _burst_bytes(self.state, self.r_s_bps, pending_bytes)

    # -- fast start -------------------------------------------------------

    def end_fast_start(self, sent_bytes: float) -> float:
        """Close Fast Start; returns t_max and arms the search at t_max/2."""
        positive_finite("fast start sent_bytes", sent_bytes)
        t_max = sent_bytes * 8.0 / self.r_s_bps
        st = self.state
        st.t_max_s = t_max
        st.t_min_s = 0.0
        st.phase = Phase.SEARCHING
        st.t_s = t_max / 2.0
        self._decide(f"fast_start_end t_max={t_max:.3f} t={st.t_s:.3f}")
        # degenerate bound: nothing left to probe
        if t_max - st.t_s < self.granularity_s:
            self._settle_at_t_max()
        return t_max

    def fast_start_zwa(self, sent_bytes_at_zwa: float) -> float:
        """Zero window during Fast Start: the buffer size is already known,
        skip the search entirely."""
        st = self.state
        self._settle_at_zwa(sent_bytes_at_zwa, "fast_start_zwa")
        if st.t_max_s is None:
            st.t_max_s = st.t_s
        return st.t_s

    # -- search -----------------------------------------------------------

    def on_burst_feedback(self, obs: BurstObservation) -> None:
        """Advance the interval search with one burst's feedback: the next
        interval, or BS_OPT and the STEADY phase once the search
        concludes. A zero window in STEADY lowers BS_OPT."""
        st = self.state
        if self._last_feedback_id is not None and \
                obs.burst_id <= self._last_feedback_id:
            log.warning("stale burst feedback id=%s ignored", obs.burst_id)
            return
        self._last_feedback_id = obs.burst_id

        if st.phase is not _SEARCHING:
            if obs.zwa_seen and st.phase is _STEADY and \
                    obs.sent_bytes_at_first_zwa:
                # client shrank below the settled operating point
                st.bs_opt_bytes = obs.sent_bytes_at_first_zwa
                st.t_s = min(st.t_s or 0.0,
                             st.bs_opt_bytes * 8.0 / self.r_s_bps)
                self._decide(f"steady_zwa bs_opt={st.bs_opt_bytes:.0f}")
            return

        if obs.zwa_seen:
            self._settle_at_zwa(obs.sent_bytes_at_first_zwa, "search_zwa")
            return

        st.t_min_s = st.t_s
        if st.t_max_s - st.t_s < self.granularity_s:
            self._settle_at_t_max()
            return
        st.t_s = (st.t_s + st.t_max_s) / 2.0
        self._decide(f"search_step t={st.t_s:.4f}")

    def _settle_at_zwa(self, bs_opt: float, event: str) -> None:
        """A zero window after ``bs_opt`` bytes: that is the buffer size."""
        st = self.state
        st.bs_opt_bytes = bs_opt
        st.t_s = bs_opt * 8.0 / self.r_s_bps
        st.phase = Phase.STEADY
        self.propagate_bs_opt(st.current_quality_index, bs_opt,
                              zwa_derived=True)
        self._decide(f"{event} bs_opt={bs_opt:.0f} t_opt={st.t_s:.3f}")

    def _settle_at_t_max(self) -> None:
        st = self.state
        st.t_s = st.t_max_s
        st.bs_opt_bytes = st.t_max_s * self.r_s_bps / 8.0
        st.phase = Phase.STEADY
        self.propagate_bs_opt(st.current_quality_index, st.bs_opt_bytes,
                              zwa_derived=False)
        self._decide(f"search_t_max t_opt={st.t_s:.3f} "
                     f"bs_opt={st.bs_opt_bytes:.0f}")

    # -- bandwidth fluctuation ---------------------------------------------

    def on_bandwidth_change(self, est_bps: Optional[float],
                            runway_s: float) -> None:
        """React to a new bandwidth estimate.

        Below the encoding rate: save the current state (t_old) and fall
        back to continuous sending (phase LOW_BANDWIDTH), tracking t_max as
        ``runway_s``, the content runway already shipped to the client. At
        recovery (estimate at least twice the encoding rate) restore
        t = t_old and search again (phase SEARCHING).
        """
        st = self.state
        if est_bps is None:
            return
        if st.phase is _LOW_BANDWIDTH:
            st.t_max_s = max(runway_s, 0.0)
            if est_bps >= SAFETY_FACTOR * self.r_s_bps:
                st.t_s = st.t_old_s
                st.t_min_s = 0.0
                st.t_old_s = None
                st.bs_opt_bytes = None
                st.phase = _SEARCHING
                self._decide(f"bandwidth_recovered t={st.t_s:.3f} "
                             f"t_max={st.t_max_s:.3f}")
        elif est_bps < self.r_s_bps and (st.phase is _SEARCHING or
                                         st.phase is _STEADY):
            st.t_old_s = st.t_s
            st.phase = _LOW_BANDWIDTH
            self._decide(f"bandwidth_low t_old={st.t_old_s:.3f} "
                         f"est={est_bps:.0f}")

    # -- rate adaptation ----------------------------------------------------

    def maybe_switch_quality(self, est_bps: Optional[float]) -> Optional[int]:
        """Apply the selection rule and re-seed the search when upgrading.

        Returns the new quality index when a switch happens, else None.
        """
        if est_bps is None:
            return None
        st = self.state
        new_q, risk = select_quality(est_bps, self.stream.qualities,
                                     st.current_quality_index)
        if risk:
            self._decide(f"quality_floor est={est_bps:.0f}: stall risk")
        if new_q == st.current_quality_index:
            return None
        old_q = st.current_quality_index
        st.current_quality_index = new_q
        cap = st.per_quality_bs_opt.get(new_q)
        if cap is not None:
            st.bs_opt_bytes = cap
            st.t_s = cap * 8.0 / self.r_s_bps
            st.phase = Phase.STEADY
        elif new_q > old_q and st.bs_opt_bytes is not None:
            # equivalent interval for the known byte size seeds a re-search
            seed = st.bs_opt_bytes * 8.0 / self.r_s_bps
            st.t_min_s = seed
            st.t_s = seed
            st.bs_opt_bytes = None
            st.phase = Phase.SEARCHING
        self._decide(f"quality_switch {old_q}->{new_q} "
                     f"rate={self.r_s_bps:.0f}")
        return new_q

    def propagate_bs_opt(self, found_at_quality: int, bs_opt_bytes: float,
                         zwa_derived: bool) -> None:
        """Spread a discovered optimum across the ladder, into
        ``state.per_quality_bs_opt``.

        A zero-window optimum is a byte limit of the client's buffer and
        applies to every quality. A t_max-limited optimum is an interval
        bound: lower qualities inherit the interval (fewer bytes, safe);
        higher qualities must re-search from the equivalent interval.
        """
        st = self.state
        ladder = self.stream.qualities
        if zwa_derived:
            for i in range(len(ladder)):
                st.per_quality_bs_opt[i] = bs_opt_bytes
        else:
            t_opt = bs_opt_bytes * 8.0 / ladder[found_at_quality].bitrate_bps
            for i in range(found_at_quality + 1):
                st.per_quality_bs_opt[i] = t_opt * ladder[i].bitrate_bps / 8.0

    # -- logging ------------------------------------------------------------

    @property
    def burst_log(self) -> List[str]:
        """The burst log's CSV rows, rendered from ``burst_records``."""
        return [render_burst_row(record) for record in self.burst_records]

    def log_burst(self, burst_id: int, t_s: float, nbytes: float,
                  zwa: bool) -> None:
        """Record a burst at the current quality, BS_OPT and phase."""
        st = self.state
        # ``_value_`` is the member's value, read without the property
        self.burst_records.append((burst_id, self.r_s_bps, t_s, nbytes, zwa,
                                   st.bs_opt_bytes, st.phase._value_))

    BURST_LOG_HEADER = "burst_id,quality_bps,T_s,bytes,zwa,bs_opt_bytes,phase"

    def _decide(self, text: str) -> None:
        self.decision_log.append(text)


# The shaping loop, free of I/O -------------------------------------------

class Send(NamedTuple):
    """The next transmission: ``size_bytes`` of content at ``at_s`` on the
    transport's session clock (at once, if ``at_s`` has passed). A burst
    stops at the first zero window; a low-bandwidth chunk does not."""

    size_bytes: float
    at_s: float
    abort_on_zwa: bool


class Report(NamedTuple):
    """What a transport saw of one ``Send``: ``obs`` is its burst feedback,
    ``est_bps`` is None when it has no bandwidth estimate, and
    ``played_s`` is the client's playback position, from which the
    controller derives the runway, ``ShapingController.runway_s``. A
    transport with nothing left to send reports nothing: the stream has
    ended."""

    obs: BurstObservation
    delivered_bytes: float
    start_s: float
    end_s: float
    est_bps: Optional[float]
    played_s: float


class ShapingController:
    """The shaping loop over one ``Shaper``, without I/O.

    Fast Start, the interval search, steady bursting, quality adaptation
    and the continuous-send fallback under low bandwidth. A transport asks
    ``start()`` for the first ``Send``, performs it, and passes what it saw
    to ``report()``, which returns the next ``Send`` or None once the
    content is exhausted. Only the controller drives the shaper, so equal
    report sequences give equal decisions, whatever the transport.
    """

    def __init__(self, shaper: Shaper, low_bw_chunk_s: float = 1.0,
                 adaptive: bool = False):
        self.shaper = shaper
        self.low_bw_chunk_s = low_bw_chunk_s
        self.adaptive = adaptive
        self.content_sent_bytes = 0.0
        self.content_sent_s = 0.0
        self.pending_bytes = 0.0     # offered but not accepted: re-offered
        self.runway_s = 0.0          # content sent less content played
        self._now = 0.0
        self._last_burst_start = 0.0

    def start(self) -> Send:
        return self._next()

    def report(self, rep: Report) -> Optional[Send]:
        sh, obs = self.shaper, rep.obs
        st = sh.state
        phase, r_s = st.phase, sh.r_s_bps
        self.content_sent_bytes += rep.delivered_bytes
        self.content_sent_s += rep.delivered_bytes * 8.0 / r_s
        self.pending_bytes = max(obs.size_bytes - rep.delivered_bytes, 0.0)
        if phase is _FAST_START:
            if obs.zwa_seen:
                sh.fast_start_zwa(obs.sent_bytes_at_first_zwa)
            else:
                sh.end_fast_start(obs.acked_bytes)
        elif phase is not _LOW_BANDWIDTH:
            sh.log_burst(obs.burst_id, st.t_s, obs.acked_bytes, obs.zwa_seen)
            sh.on_burst_feedback(obs)
            if self.adaptive:
                sh.maybe_switch_quality(rep.est_bps)
            self._last_burst_start = rep.start_s
        self.runway_s = self.content_sent_s - rep.played_s
        sh.on_bandwidth_change(rep.est_bps, self.runway_s)
        if phase is _LOW_BANDWIDTH and st.phase is _SEARCHING:
            # the recovered search times its bursts from the chunk's end
            self._last_burst_start = rep.end_s
        self._now = rep.end_s
        return self._next()

    def report_steady(self, burst_id: int, size_bytes: float,
                      delivered_bytes: float, acked_bytes: float,
                      start_s: float, end_s: float, est_bps: float,
                      played_s: float) -> Optional[Tuple[float, float]]:
        """``report`` for a STEADY burst of a non-adaptive session that
        drew no zero window, taking the report's values one by one and
        returning the next send's ``(size_bytes, at_s)``.

        None, with nothing written, when ``report`` would change the
        phase (an estimate below the encoding rate) or return no send (the
        content is exhausted), or the session is adaptive or not STEADY:
        ``report`` then books the burst. Each value comes from ``report``
        and ``_next``'s float operations in their order. Such a burst
        leaves every other part of the shaper's state as it was, except
        ``on_burst_feedback``'s mark against stale feedback: burst ids only
        rise, so the next burst passes that check either way."""
        sh = self.shaper
        st = sh.state
        if self.adaptive or st.phase is not _STEADY:
            return None
        r_s = sh.r_s_bps
        if est_bps < r_s:
            return None
        sent_bytes = self.content_sent_bytes + delivered_bytes
        sent_s = self.content_sent_s + delivered_bytes * 8.0 / r_s
        pending = max(size_bytes - delivered_bytes, 0.0)
        size = min(_burst_bytes(st, r_s, pending), self._left(sent_s, r_s))
        if size <= 1e-9:
            return None
        self.content_sent_bytes, self.content_sent_s = sent_bytes, sent_s
        self.pending_bytes = pending
        sh.burst_records.append((burst_id, r_s, st.t_s, acked_bytes, False,
                                 st.bs_opt_bytes, "STEADY"))
        self._last_burst_start = start_s
        self.runway_s = sent_s - played_s
        self._now = end_s
        return size, max(self._last_burst_start + st.t_s, self._now)

    def _left(self, sent_s: float, r_s: float) -> float:
        """The content bytes left at encoding rate ``r_s`` after ``sent_s``
        seconds of content have been sent."""
        return max(self.shaper.stream.duration_s - sent_s, 0.0) * r_s / 8.0

    def _next(self) -> Optional[Send]:
        sh = self.shaper
        st = sh.state
        phase, r_s = st.phase, sh.r_s_bps
        left = self._left(self.content_sent_s, r_s)
        if phase is _FAST_START:
            return Send(min(sh.stream.fast_start_s * r_s / 8.0, left),
                        self._now, True)
        if phase is _LOW_BANDWIDTH:
            size = min(self.low_bw_chunk_s * r_s / 8.0 + self.pending_bytes,
                       left)
            return Send(size, self._now, False) if size > 0 else None
        # ``Shaper.next_burst_bytes``, without reading the rate again
        size = min(_burst_bytes(st, r_s, self.pending_bytes), left)
        if size <= 1e-9:
            return None
        return Send(size, max(self._last_burst_start + st.t_s, self._now),
                    True)
