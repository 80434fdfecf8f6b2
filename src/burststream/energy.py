"""Closed-form power and energy models for periodic burst delivery.

Average power of a streaming client's wireless interface when content is
delivered in bursts of interval ``T`` instead of continuously at the encoding
rate. Two regimes are modeled: the burst fits the client buffer (power is
non-increasing in ``T``) and the burst overflows it so TCP flow control
drains the excess at the encoding rate (power is non-decreasing in ``T``).
The minimum sits where the burst size matches the available buffer space.
One broadcasting kernel states the model; the scalar functions, the
interval arrays and ``power_surface`` check their own domain and regime
and evaluate it. ``power_surface`` returns a ``Surface``: the grid's axes
and its (r_s, B, T) power array, read as rows only on demand.
``surface_to_csv`` takes a ``Surface`` and formats it from those arrays,
one line template per (B, T) cell filled once per encoding rate;
``write_surface_csv`` writes the same text one encoding rate at a time.

numpy loads with the first call that evaluates the kernel: each such
function imports it when called. ``RadioProfile``, ``DrxConfig``,
``power_rx`` and ``delta_power_rx`` are pure Python, and they are all that
the simulation uses, so a scenario run loads no numpy.

All internal computation uses one canonical unit set: bits, seconds,
milliwatts, millijoules. Byte-valued inputs are converted at the interface.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, Optional, TextIO, Tuple

from .errors import finite_at_least, positive_finite


class Technology(enum.Enum):
    WIFI = "WIFI"
    HSPA = "HSPA"
    LTE = "LTE"


class FastDormancy(enum.Enum):
    NONE = "none"
    LEGACY = "legacy"  # device releases the RRC connection (straight to IDLE)
    REL8 = "rel8"      # device requests demotion to CELL_PCH


class DomainError(ValueError):
    """Input outside the model's domain (e.g. a negative data rate)."""


class BufferExceededError(ValueError):
    """Scenario is in the wrong regime for the requested operation."""


@dataclass(frozen=True)
class DrxConfig:
    """Connected-state DRX cycle: inactivity lead-in, cycle length, on-duration."""

    idle_ms: float
    cycle_ms: float
    on_ms: float

    def __post_init__(self) -> None:
        finite_at_least("idle_ms", self.idle_ms)
        positive_finite("cycle_ms", self.cycle_ms)
        positive_finite("on_ms", self.on_ms)
        if self.on_ms > self.cycle_ms:
            raise ValueError("DRX on-duration cannot exceed the cycle length")

    @property
    def idle_s(self) -> float:
        return self.idle_ms / 1e3

    @property
    def cycle_s(self) -> float:
        return self.cycle_ms / 1e3

    @property
    def on_s(self) -> float:
        return self.on_ms / 1e3


@dataclass(frozen=True)
class RadioProfile:
    """Power and timer parameters of one access technology.

    ``t1_s``/``t2_s`` are the HSPA inactivity timers; for Wi-Fi and LTE set
    ``t2_s = 0`` and use ``t1_s`` as the PSM timer or RRC inactivity timer.
    ``p1_mw``/``p2_mw`` are the tail-state powers matching those timers and
    ``p_tail_mw`` is the average power while the radio is on but not
    receiving. The linear receive model is ``(a_coeff + k_coeff*rate) *
    p_tail_mw`` with ``a_coeff >= 1`` so receive power never drops below the
    tail power.

    Floor powers (``p_idle_mw``, ``p_pch_mw``, ``p_drx_off_mw``) default to
    zero: baseline sleep power is excluded from the model and only adds a
    constant offset. ``reconnect_setup_s`` charges the RRC reconnection
    signaling exchange as that much time at ``p1_mw`` per promotion out of
    IDLE; it defaults to zero and is only set on profiles used for
    connection-churn comparisons.
    """

    technology: Technology
    t1_s: float
    t2_s: float = 0.0
    t3_s: float = 0.0
    p1_mw: float = 0.0
    p2_mw: float = 0.0
    p_tail_mw: float = 0.0
    a_coeff: float = 1.0
    k_coeff: float = 0.0  # per (bit/s), relative to p_tail_mw
    drx: Optional[DrxConfig] = None
    pch_enabled: bool = True
    fast_dormancy: FastDormancy = FastDormancy.NONE
    legacy_fd_timeout_s: float = 0.0
    r_btc_bps: Optional[float] = None  # default bulk transfer capacity
    p_idle_mw: float = 0.0
    p_pch_mw: float = 0.0
    p_drx_off_mw: float = 0.0
    reconnect_setup_s: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        finite_at_least("a_coeff", self.a_coeff, 1.0)
        for field in ("k_coeff", "t1_s", "t2_s", "t3_s", "p1_mw", "p2_mw",
                      "p_tail_mw", "legacy_fd_timeout_s", "p_idle_mw",
                      "p_pch_mw", "p_drx_off_mw", "reconnect_setup_s"):
            finite_at_least(field, getattr(self, field))
        if self.r_btc_bps is not None:
            positive_finite("r_btc_bps", self.r_btc_bps)
        if self.p2_mw > self.p1_mw:
            raise ValueError("p2_mw must not exceed p1_mw")
        if self.drx is not None and self.technology is not Technology.LTE:
            raise ValueError("DRX is only modeled for LTE profiles")


@dataclass(frozen=True)
class BurstScenario:
    """One operating point: encoding rate, bulk rate, buffer space, interval."""

    r_s_bps: float
    r_btc_bps: float
    buffer_b_bytes: float
    interval_t_s: float

    def __post_init__(self) -> None:
        for field in ("r_s_bps", "r_btc_bps", "buffer_b_bytes",
                      "interval_t_s"):
            positive_finite(field, getattr(self, field))
        if self.r_s_bps > self.r_btc_bps:
            raise ValueError("encoding rate must not exceed the bulk "
                             "transfer capacity")

    @property
    def buffer_bits(self) -> float:
        return self.buffer_b_bytes * 8.0

    @property
    def burst_bits(self) -> float:
        return self.r_s_bps * self.interval_t_s

    @property
    def fits_buffer(self) -> bool:
        return self.burst_bits <= self.buffer_bits


def power_rx(rate_bps: float, profile: RadioProfile) -> float:
    """Receive power in mW at ``rate_bps``: (a + k*r) * p_tail. With k = 0
    the power does not depend on the rate, an infinite one included."""
    if rate_bps < 0:
        raise DomainError("receive rate must be >= 0")
    slope = profile.k_coeff * rate_bps if profile.k_coeff else 0.0
    return (profile.a_coeff + slope) * profile.p_tail_mw


def delta_power_rx(rate_bps: float, profile: RadioProfile) -> float:
    """Receive power increase over the tail power, mW."""
    return power_rx(rate_bps, profile) - profile.p_tail_mw


def idle_time(scenario: BurstScenario) -> float:
    """Idle seconds between two consecutive bursts: T * (1 - r_s/r_btc)."""
    return scenario.interval_t_s * (1.0 - scenario.r_s_bps / scenario.r_btc_bps)


def _tail_energy(profile: RadioProfile, t_idle_s):
    """Tail energy (mJ) over idle gaps of ``t_idle_s`` seconds, elementwise."""
    import numpy as np
    return (profile.p1_mw * np.minimum(t_idle_s, profile.t1_s)
            + profile.p2_mw * np.clip(t_idle_s - profile.t1_s, 0.0,
                                      profile.t2_s))


def _power_branches(profile: RadioProfile, r_s_bps, r_btc_bps: float,
                    b_bits, t_s):
    """Average power (mW) of both regimes, ``(fitting, overflow)``, over any
    mix of scalars and arrays. Each caller picks the regime by its own rule,
    since at r_s*T = B both formulas apply.

    Fitting: download at the bulk rate for r_s/r_btc of each interval, then
    the tail over the idle gap T*(1 - r_s/r_btc). Overflow: the part that
    fits the buffer downloads at the bulk rate, the leftover drains at the
    encoding rate, and the tail is a fixed constant.
    The idle gap left once the whole burst has drained is B/r_s - B/r_btc
    regardless of T. The constant is the tail reachable in that gap,
    clipped by the gap's worth of average tail power; with one timer and p1
    equal to the tail power this is exactly the full-timer tail capped at
    the bound, and it keeps the average power continuous at r_s*T = B.
    """
    import numpy as np
    dp_btc = delta_power_rx(r_btc_bps, profile)
    dp_rs = np.reshape([delta_power_rx(r, profile)
                        for r in np.ravel(r_s_bps).tolist()],
                       np.shape(r_s_bps))
    t_idle = t_s * (1.0 - r_s_bps / r_btc_bps)
    fitting = (r_s_bps / r_btc_bps) * dp_btc + \
        _tail_energy(profile, t_idle) / t_s
    boundary_idle = b_bits / r_s_bps - b_bits / r_btc_bps
    e_over = np.minimum(_tail_energy(profile, boundary_idle),
                        profile.p_tail_mw * boundary_idle)
    burst_bits = r_s_bps * t_s
    overflow = (b_bits * dp_btc / (t_s * r_btc_bps)
                + (burst_bits - b_bits) / burst_bits * dp_rs
                + e_over / t_s)
    return fitting, overflow


def _scenario_branches(scenario: BurstScenario, profile: RadioProfile):
    return _power_branches(profile, scenario.r_s_bps, scenario.r_btc_bps,
                           scenario.buffer_bits, scenario.interval_t_s)


def tail_energy_for_idle(profile: RadioProfile, t_idle_s: float) -> float:
    """Tail energy (mJ) spent over an idle gap of ``t_idle_s`` seconds.

    Three cases depending on where the gap ends relative to the two
    inactivity timers: still in the first tail state, in the second, or past
    both (full tail). Continuous in ``t_idle_s`` across the case boundaries.
    """
    if t_idle_s < 0:
        raise DomainError("idle time must be >= 0")
    return float(_tail_energy(profile, t_idle_s))


def tail_energy(scenario: BurstScenario, profile: RadioProfile) -> float:
    """Per-burst tail energy (mJ) when the burst fits the client buffer."""
    if not scenario.fits_buffer:
        raise BufferExceededError(
            "burst exceeds the client buffer; tail energy is the fixed "
            "constant used by avg_power_overflow")
    return tail_energy_for_idle(profile, idle_time(scenario))


def avg_power_fitting(scenario: BurstScenario, profile: RadioProfile) -> float:
    """Average power (mW) when the burst fits: download term plus tail term."""
    if not scenario.fits_buffer:
        raise BufferExceededError("burst exceeds the client buffer; "
                                  "use avg_power_overflow")
    return float(_scenario_branches(scenario, profile)[0])


def avg_power_overflow(scenario: BurstScenario, profile: RadioProfile) -> float:
    """Average power (mW) when the burst overflows the client buffer.

    Three parts: downloading the portion that fits at the bulk rate,
    draining the leftover at the encoding rate, and the fixed tail.
    """
    if scenario.burst_bits < scenario.buffer_bits:
        raise BufferExceededError("burst fits the client buffer; "
                                  "use avg_power_fitting")
    return float(_scenario_branches(scenario, profile)[1])


def avg_power(scenario: BurstScenario, profile: RadioProfile) -> float:
    """Average power (mW); dispatches on the burst-vs-buffer regime."""
    if scenario.fits_buffer:
        return avg_power_fitting(scenario, profile)
    return avg_power_overflow(scenario, profile)


def optimal_interval(profile: RadioProfile, r_s_bps: float, r_btc_bps: float,
                     buffer_bytes: float, t_max_s: float = math.inf) -> float:
    """Energy-optimal burst interval: buffer-matched, capped at ``t_max_s``.

    Degenerates to 0 as the buffer does; callers enforce their own minimum
    granularity.
    """
    if min(r_s_bps, r_btc_bps, t_max_s) <= 0 or buffer_bytes < 0:
        raise DomainError("rates and t_max must be > 0, buffer >= 0")
    return min(buffer_bytes * 8.0 / r_s_bps, t_max_s)


def avg_power_over_intervals(profile: RadioProfile, r_s_bps: float,
                             buffer_bytes: float,
                             t_array: np.ndarray,
                             r_btc_bps: Optional[float] = None) -> np.ndarray:
    """Vectorized avg_power over an array of burst intervals (mW).

    Evaluates both regime branches elementwise and selects by the
    burst-vs-buffer condition; identical to the scalar functions.
    ``r_s_bps`` and ``buffer_bytes`` may be arrays that broadcast against
    the intervals, as ``power_surface`` passes them.
    """
    import numpy as np
    r_btc = r_btc_bps if r_btc_bps is not None else profile.r_btc_bps
    if r_btc is None:
        raise ValueError("no bulk transfer capacity given")
    t = np.asarray(t_array, dtype=float)
    # all elements keep a rule if the least and greatest do; NaN is both
    for field, x in (("r_s_bps", r_s_bps), ("buffer_bytes", buffer_bytes),
                     ("interval_s", t)):
        if np.size(x):
            positive_finite(field, float(np.min(x)))
            positive_finite(field, float(np.max(x)))
    if not np.all(r_s_bps <= r_btc):
        raise ValueError("r_s_bps must not exceed r_btc_bps")
    b_bits = buffer_bytes * 8.0
    fitting, overflow = _power_branches(profile, r_s_bps, r_btc, b_bits, t)
    return np.where(r_s_bps * t <= b_bits, fitting, overflow)


class Surface(Sequence):
    """Average power over an (r_s, B, T) grid, read as rows on demand.

    Holds the caller's three axes and the ``(n_r, n_b, n_t)`` power array.
    Row ``k`` is ``(r_s_bps, buffer_bytes, interval_s, avg_power_mw)``
    with the caller's own axis elements and a float power, ordered
    r_s-major, then B, then T; no row is built until it is read.
    """

    def __init__(self, r_s: Sequence, b: Sequence, t: Sequence,
                 power_mw: np.ndarray):
        self.r_s, self.b, self.t = tuple(r_s), tuple(b), tuple(t)
        self.power_mw = power_mw
        self.power_mw.flags.writeable = False

    def __len__(self) -> int:
        return self.power_mw.size

    def __getitem__(self, k):
        import numpy as np
        i_r, i_b, i_t = np.unravel_index(range(len(self))[k],
                                         self.power_mw.shape)
        return (self.r_s[i_r], self.b[i_b], self.t[i_t],
                float(self.power_mw[i_r, i_b, i_t]))

    def __iter__(self) -> Iterator[Tuple[float, float, float, float]]:
        cells = list(itertools.product(self.b, self.t))
        for r_s, powers in zip(self.r_s, self.power_mw):
            for (b, t), p in zip(cells, powers.ravel().tolist()):
                yield r_s, b, t, p


def power_surface(profile: RadioProfile,
                  r_s_list: Sequence[float],
                  t_list: Sequence[float],
                  b_list: Sequence[float]) -> Surface:
    """Evaluate avg_power over a grid in one broadcast.

    The returned ``Surface`` reads as (r_s_bps, buffer_bytes, interval_s,
    avg_power_mw) rows ordered r_s-major, then B, then T. The bulk rate
    comes from ``profile.r_btc_bps``.
    """
    import numpy as np
    if not (len(r_s_list) and len(t_list) and len(b_list)):
        raise ValueError("grid axes must be non-empty")
    p = avg_power_over_intervals(
        profile, np.asarray(r_s_list, dtype=float)[:, None, None],
        np.asarray(b_list, dtype=float)[:, None], t_list)
    return Surface(r_s_list, b_list, t_list, p)


SURFACE_CSV_HEADER = "technology,r_s_bps,buffer_bytes,interval_s,avg_power_mw"


def _surface_csv_blocks(profile: RadioProfile,
                        surface: Surface) -> Iterator[str]:
    """The surface's CSV in blocks: the header line, then one block of
    lines per r_s row; every block ends in a newline.

    Each (B, T) cell is formatted once into a line template; each r_s row
    is then one ``%`` of that template with the row's powers.
    """
    bs = [f"{b:.10g}," for b in surface.b]
    ts = [f"{t:.10g},%.9g\n" for t in surface.t]
    cells = [b + t for b in bs for t in ts]
    yield SURFACE_CSV_HEADER + "\n"
    for r_s, powers in zip(surface.r_s, surface.power_mw):
        head = f"{profile.technology.value},{r_s:.10g},"
        yield head + head.join(cells) % tuple(powers.ravel().tolist())


def surface_to_csv(profile: RadioProfile, surface: Surface) -> str:
    """The surface as CSV, one row per grid point in the surface's order."""
    return "".join(_surface_csv_blocks(profile, surface))


def write_surface_csv(fp: TextIO, profile: RadioProfile,
                      surface: Surface) -> None:
    """Write the surface's CSV to the text stream ``fp``, each r_s block as
    soon as it is formatted: the same text as ``surface_to_csv``, with one
    block in memory at a time."""
    for block in _surface_csv_blocks(profile, surface):
        fp.write(block)
