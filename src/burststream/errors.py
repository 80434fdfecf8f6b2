"""Errors that the CLI reports without loading the modules that raise them,
so that each command loads only what it runs: ``burststream proxy`` loads
no simulation, and no command but ``sweep`` loads numpy."""


class ConfigError(ValueError):
    """Bad profile or scenario configuration."""
