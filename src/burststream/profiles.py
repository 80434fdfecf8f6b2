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
from contextlib import contextmanager
from dataclasses import MISSING, fields
from importlib import resources
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, TypeVar, Union

from .energy import DrxConfig, FastDormancy, RadioProfile, Technology
from .errors import ConfigError


def _data_dir():
    return resources.files("burststream") / "profiles_data"


_REQUIRED = object()   # the fallback of a key a file must set
T = TypeVar("T")


def _read_ini(path, build: Callable[[configparser.ConfigParser], T]) -> T:
    """``build`` of the INI file at ``path`` (a filesystem path or a shipped
    resource), where ``%`` is no interpolation; a file that cannot be read
    or parsed, and a ConfigError of ``build``, are one ConfigError line
    that names the file."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(path.read_text(), str(path))
        return build(cp)
    except configparser.Error as exc:     # its text names the file
        raise ConfigError(" ".join(str(exc).split())) from None
    except (OSError, UnicodeError, ConfigError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{path}: {reason}") from None


def _technology(text: str) -> Technology:
    try:
        return Technology[text.upper()]
    except KeyError:
        raise ValueError("not one of " + ", ".join(Technology.__members__)) \
            from None


def config_value(section: configparser.SectionProxy, key: str,
                 fallback=_REQUIRED, convert: Callable = float):
    """``convert`` of the text under ``key`` in an INI ``section``, or
    ``fallback`` where the key is absent; ``bool`` reads the words
    ``getboolean`` reads. A key absent without a fallback and a text that
    ``convert`` rejects are each a ConfigError naming the key."""
    text = section.get(key)
    if text is None:
        if fallback is _REQUIRED:
            raise ConfigError(f"[{section.name}] lacks required key {key}")
        return fallback
    try:
        return section.getboolean(key) if convert is bool else convert(text)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key} = {text!r}: {exc}") \
            from None


@contextmanager
def rejected_as_config(where: str,
                       keys: Optional[Dict[str, str]] = None
                       ) -> Iterator[None]:
    """A model's ValueError over values read from ``where`` (a section, a
    key) is a ConfigError there, or at the key ``keys`` maps its field to."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        where = (keys or {}).get(getattr(exc, "field", None), where)
        raise ConfigError(f"{where}: {exc}") from None


# how a [profile] key's text becomes a RadioProfile field; numbers by default
_PROFILE_CONVERT: Dict[str, Callable] = {
    "technology": _technology,
    "fast_dormancy": lambda text: FastDormancy(text.lower()),
    "pch_enabled": bool,
    "name": str,
}


def _profile_from_parser(cp: configparser.ConfigParser) -> RadioProfile:
    """The profile a parsed file describes. Only the keys the file sets
    are passed on, so a key it leaves out takes ``RadioProfile``'s
    default."""
    if not cp.has_section("profile"):
        raise ConfigError("profile file needs a [profile] section")
    p = cp["profile"]
    settings = {}
    for f in fields(RadioProfile):
        if f.name != "drx" and (f.name in p or f.default is MISSING):
            settings[f.name] = config_value(
                p, f.name, convert=_PROFILE_CONVERT.get(f.name, float))
    if cp.has_section("drx"):
        d = cp["drx"]
        with rejected_as_config("[drx]"):
            settings["drx"] = DrxConfig(*(config_value(d, key) for key in
                                          ("idle_ms", "cycle_ms", "on_ms")))
    with rejected_as_config("[profile]"):
        return RadioProfile(**settings)


def load_profile_file(path: Union[str, Path]) -> RadioProfile:
    return _read_ini(Path(path), _profile_from_parser)


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
        return _read_ini(entry, _profile_from_parser)
    if path.exists():
        return load_profile_file(path)
    raise ConfigError(f"no such profile: {name_or_path!r} "
                      f"(shipped: {', '.join(list_profiles())})")


# The reference parameter sets, as the shipped files hold them.

def wifi_reference() -> RadioProfile:
    """Wi-Fi PSM: 0.2 s idle timer, 435 mW tail, 760 mW receive increase at
    20 Mbit/s with the increase interpolating linearly down to the tail
    power at rate zero (``wifi-ref.ini``)."""
    return get_profile("wifi-ref")


def lte_reference_nodrx() -> RadioProfile:
    """LTE without DRX: 10 s inactivity timer, 1216 mW tail, rate-independent
    1520 mW receive increase at up to 16 Mbit/s (``lte-nodrx-default.ini``)."""
    return get_profile("lte-nodrx-default")
