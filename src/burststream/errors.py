"""Errors that the CLI reports without loading the modules that raise them,
so that each command loads only what it runs: ``burststream proxy`` loads
no simulation, and no command but ``sweep`` loads numpy.

Also the three rules each number a user gives is held to: each compares
under ``not``, which NaN fails, and raises a FieldError naming the field."""

import math


class ConfigError(ValueError):
    """Bad profile or scenario configuration."""


class FieldError(ValueError):
    """A value outside its field's rule; ``field`` names the field."""

    def __init__(self, field: str, rule: str):
        super().__init__(f"{field} must be {rule}")
        self.field, self.rule = field, rule


def positive(field: str, x: float) -> None:
    """> 0; infinity passes, as endless content or an unlimited rate."""
    if not 0 < x:
        raise FieldError(field, "> 0")


def positive_finite(field: str, x: float) -> None:
    if not 0 < x < math.inf:
        raise FieldError(field, "> 0 and finite")


def finite_at_least(field: str, x: float, low: float = 0.0) -> None:
    if not low <= x < math.inf:
        raise FieldError(field, f">= {low:g} and finite")
