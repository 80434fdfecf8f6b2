"""Shipped radio profiles and the profile file format.

Profiles are flat INI files; the package ships one per supported network
configuration. Wi-Fi and LTE carry measured powers from a real handset
(435 mW / 1216 mW tail, 760 mW / 1520 mW receive increase at the bulk
rate). HSPA state powers are not published for the measured devices, so the
HSPA files carry documented engineering choices (DCH 800 mW, FACH 460 mW);
comparisons against them assert orderings and counts, never absolute watts.
"""

from __future__ import annotations

import configparser
from importlib import resources
from pathlib import Path
from typing import List, Union

from .energy import DrxConfig, FastDormancy, RadioProfile, Technology
from .errors import ConfigError


def _data_dir():
    return resources.files("burststream") / "profiles_data"


def _profile_from_parser(cp: configparser.ConfigParser) -> RadioProfile:
    if not cp.has_section("profile"):
        raise ConfigError("profile file needs a [profile] section")
    p = cp["profile"]
    try:
        technology = Technology[p.get("technology", "").upper()]
    except KeyError:
        raise ConfigError(f"unknown technology {p.get('technology')!r}")
    drx = None
    if cp.has_section("drx"):
        d = cp["drx"]
        drx = DrxConfig(d.getfloat("idle_ms"), d.getfloat("cycle_ms"),
                        d.getfloat("on_ms"))
    try:
        fd = FastDormancy(p.get("fast_dormancy", "none").lower())
    except ValueError:
        raise ConfigError(f"unknown fast_dormancy {p.get('fast_dormancy')!r}")
    r_btc = p.getfloat("r_btc_bps", fallback=None)
    return RadioProfile(
        technology=technology,
        t1_s=p.getfloat("t1_s"),
        t2_s=p.getfloat("t2_s", 0.0),
        t3_s=p.getfloat("t3_s", 0.0),
        p1_mw=p.getfloat("p1_mw", 0.0),
        p2_mw=p.getfloat("p2_mw", 0.0),
        p_tail_mw=p.getfloat("p_tail_mw", 0.0),
        a_coeff=p.getfloat("a_coeff", 1.0),
        k_coeff=p.getfloat("k_coeff", 0.0),
        drx=drx,
        pch_enabled=p.getboolean("pch_enabled", True),
        fast_dormancy=fd,
        legacy_fd_timeout_s=p.getfloat("legacy_fd_timeout_s", 0.0),
        r_btc_bps=r_btc,
        p_idle_mw=p.getfloat("p_idle_mw", 0.0),
        p_pch_mw=p.getfloat("p_pch_mw", 0.0),
        p_drx_off_mw=p.getfloat("p_drx_off_mw", 0.0),
        reconnect_setup_s=p.getfloat("reconnect_setup_s", 0.0),
        name=p.get("name", ""),
    )


def load_profile_file(path: Union[str, Path]) -> RadioProfile:
    cp = configparser.ConfigParser()
    read = cp.read(str(path))
    if not read:
        raise ConfigError(f"profile file not found: {path}")
    return _profile_from_parser(cp)


def list_profiles() -> List[str]:
    names = []
    for entry in _data_dir().iterdir():
        if entry.name.endswith(".ini"):
            names.append(entry.name[:-4])
    return sorted(names)


def get_profile(name_or_path: Union[str, Path]) -> RadioProfile:
    """Resolve a shipped profile name or a filesystem path."""
    path = Path(name_or_path)
    if path.suffix == ".ini" and path.exists():
        return load_profile_file(path)
    entry = _data_dir() / f"{name_or_path}.ini"
    if entry.is_file():
        cp = configparser.ConfigParser()
        cp.read_string(entry.read_text())
        return _profile_from_parser(cp)
    if path.exists():
        return load_profile_file(path)
    raise ConfigError(f"no such profile: {name_or_path!r} "
                      f"(shipped: {', '.join(list_profiles())})")


# Programmatic builders for the reference parameter sets; the shipped INI
# files mirror these values.

def wifi_reference() -> RadioProfile:
    """Wi-Fi PSM: 0.2 s idle timer, 435 mW tail, 760 mW receive increase at
    20 Mbit/s with the increase interpolating linearly down to the tail
    power at rate zero."""
    return RadioProfile(
        technology=Technology.WIFI, t1_s=0.2, p1_mw=435.0, p_tail_mw=435.0,
        a_coeff=2.0, k_coeff=(760.0 - 435.0) / (435.0 * 20e6),
        r_btc_bps=20e6, name="wifi-ref")


def lte_reference_nodrx() -> RadioProfile:
    """LTE without DRX: 10 s inactivity timer, 1216 mW tail, rate-independent
    1520 mW receive increase at up to 16 Mbit/s."""
    return RadioProfile(
        technology=Technology.LTE, t1_s=10.0, p1_mw=1216.0,
        p_tail_mw=1216.0, a_coeff=2.25, k_coeff=0.0, r_btc_bps=16e6,
        reconnect_setup_s=0.5, name="lte-nodrx-default")
