"""Energy-aware burst shaping for TCP streaming.

Closed-form radio power models for bursty delivery, RRC/DRX state-machine
simulation with signaling accounting, a flow-control-driven burst shaper
with its traffic profiler, the seconds-range HTTP media extension, a
scenario harness, and a live shaping proxy.

Every public name is exported here, but each loads with its submodule on
first access (PEP 562), so a process that uses one part loads only what
that part imports: the live proxy runs without numpy or the simulation,
and the simulation without numpy or the proxy. numpy loads with the first
vectorised model call, such as ``power_surface``.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names exported from it
_EXPORTS = {
    "energy": ("BufferExceededError", "BurstScenario", "DomainError",
               "DrxConfig", "FastDormancy", "RadioProfile", "Surface",
               "Technology", "avg_power", "avg_power_fitting",
               "avg_power_over_intervals", "avg_power_overflow",
               "delta_power_rx", "idle_time", "optimal_interval",
               "power_rx", "power_surface", "surface_to_csv", "tail_energy",
               "tail_energy_for_idle"),
    "radio": ("ActivityTrace", "RadioState", "SignalingConfigError",
              "SignalingCostTable", "SignalingLedger", "StateSegment",
              "StateTrace", "TraceError", "energy_of", "signaling_of",
              "simulate", "tail_states_energy"),
    "client": ("AckEvent", "DeliveryOrderError", "DeliveryResult",
               "StreamingClient"),
    "profiler": ("BurstObservation", "FeedError", "TrafficProfiler"),
    "shaper": ("Phase", "QualityLevel", "Shaper", "ShaperState",
               "StreamSpec", "initial_quality", "select_quality"),
    "session": ("BandwidthTrace", "ProbeSearchResult", "SessionResult",
                "SimulatedSession", "linear_sweep_oracle", "probe_search"),
    "errors": ("ConfigError",),
    "profiles": ("get_profile", "list_profiles", "load_profile_file",
                 "lte_reference_nodrx", "wifi_reference"),
    "harness": ("BackgroundTraffic", "RunResult", "Scenario",
                "compare_configs", "compare_table", "load_scenario", "run",
                "sweep_surface"),
}
_SUBMODULES = ("client", "energy", "harness", "mediahttp", "profiler",
               "profiles", "radio", "session", "shaper")
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted([*_ORIGIN, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _ORIGIN:
        module = importlib.import_module(f"{__name__}.{_ORIGIN[name]}")
        value = getattr(module, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
