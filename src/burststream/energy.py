"""Closed-form power and energy models for periodic burst delivery.

Average power of a streaming client's wireless interface when content is
delivered in bursts of interval ``T`` instead of continuously at the encoding
rate. Two regimes are modeled: the burst fits the client buffer (power is
non-increasing in ``T``) and the burst overflows it so TCP flow control
drains the excess at the encoding rate (power is non-decreasing in ``T``).
The minimum sits where the burst size matches the available buffer space.
One broadcasting kernel states the model; the scalar functions, the
interval arrays and ``power_surface`` check their own domain and regime
and evaluate it.

All internal computation uses one canonical unit set: bits, seconds,
milliwatts, millijoules. Byte-valued inputs are converted at the interface.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


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
        if self.idle_ms < 0 or self.cycle_ms <= 0 or self.on_ms <= 0:
            raise ValueError("DRX timers must be positive")
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
        if self.a_coeff < 1.0:
            raise ValueError("a_coeff must be >= 1")
        if self.k_coeff < 0.0:
            raise ValueError("k_coeff must be >= 0")
        for field in ("t1_s", "t2_s", "t3_s", "p1_mw", "p2_mw", "p_tail_mw",
                      "legacy_fd_timeout_s", "p_idle_mw", "p_pch_mw",
                      "p_drx_off_mw", "reconnect_setup_s"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0")
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
        if min(self.r_s_bps, self.r_btc_bps, self.buffer_b_bytes,
               self.interval_t_s) <= 0:
            raise ValueError("all scenario fields must be > 0")
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
    """Receive power in mW at ``rate_bps``: (a + k*r) * p_tail."""
    if rate_bps < 0:
        raise DomainError("receive rate must be >= 0")
    return (profile.a_coeff + profile.k_coeff * rate_bps) * profile.p_tail_mw


def delta_power_rx(rate_bps: float, profile: RadioProfile) -> float:
    """Receive power increase over the tail power, mW."""
    return power_rx(rate_bps, profile) - profile.p_tail_mw


def idle_time(scenario: BurstScenario) -> float:
    """Idle seconds between two consecutive bursts: T * (1 - r_s/r_btc)."""
    return scenario.interval_t_s * (1.0 - scenario.r_s_bps / scenario.r_btc_bps)


def _tail_energy(profile: RadioProfile, t_idle_s):
    """Tail energy (mJ) over idle gaps of ``t_idle_s`` seconds, elementwise."""
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
    r_btc = r_btc_bps if r_btc_bps is not None else profile.r_btc_bps
    if r_btc is None:
        raise ValueError("no bulk transfer capacity given")
    if np.any(r_s_bps <= 0) or np.any(r_s_bps > r_btc) or \
            np.any(buffer_bytes <= 0):
        raise ValueError("need 0 < r_s <= r_btc and buffer > 0")
    t = np.asarray(t_array, dtype=float)
    if np.any(t <= 0):
        raise ValueError("intervals must be > 0")
    b_bits = buffer_bytes * 8.0
    fitting, overflow = _power_branches(profile, r_s_bps, r_btc, b_bits, t)
    return np.where(r_s_bps * t <= b_bits, fitting, overflow)


def power_surface(profile: RadioProfile,
                  r_s_list: Sequence[float],
                  t_list: Sequence[float],
                  b_list: Sequence[float],
                  ) -> List[Tuple[float, float, float, float]]:
    """Evaluate avg_power over a grid; rows ordered r_s-major, then B, then T.

    Returns (r_s_bps, buffer_bytes, interval_s, avg_power_mw) tuples. The
    bulk rate comes from ``profile.r_btc_bps``.
    """
    if not (len(r_s_list) and len(t_list) and len(b_list)):
        raise ValueError("grid axes must be non-empty")
    p = avg_power_over_intervals(
        profile, np.asarray(r_s_list, dtype=float)[:, None, None],
        np.asarray(b_list, dtype=float)[:, None], t_list)
    return [(r_s, b, t, power) for (r_s, b, t), power in
            zip(itertools.product(r_s_list, b_list, t_list),
                p.ravel().tolist())]


SURFACE_CSV_HEADER = "technology,r_s_bps,buffer_bytes,interval_s,avg_power_mw"


def surface_to_csv(profile: RadioProfile,
                   rows: Sequence[Tuple[float, float, float, float]]) -> str:
    lines = [SURFACE_CSV_HEADER]
    for r_s, b, t, p in rows:
        lines.append(f"{profile.technology.value},{r_s:.10g},{b:.10g},"
                     f"{t:.10g},{p:.9g}")
    return "\n".join(lines) + "\n"
