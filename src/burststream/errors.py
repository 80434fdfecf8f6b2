"""Errors that the CLI reports without loading the modules that raise them,
so that ``burststream proxy`` loads no numpy."""


class ConfigError(ValueError):
    """Bad profile or scenario configuration."""
