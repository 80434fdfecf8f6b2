"""Energy-aware burst shaping for TCP streaming.

Closed-form radio power models for bursty delivery, RRC/DRX state-machine
simulation with signaling accounting, a flow-control-driven burst shaper
with its traffic profiler, the seconds-range HTTP media extension, a
scenario harness, and a live shaping proxy.
"""

from .energy import (BufferExceededError, BurstScenario, DomainError,
                     DrxConfig, FastDormancy, RadioProfile, Technology,
                     avg_power, avg_power_fitting, avg_power_overflow,
                     avg_power_over_intervals, delta_power_rx, idle_time,
                     optimal_interval, power_rx, power_surface,
                     Surface, surface_to_csv, tail_energy,
                     tail_energy_for_idle)
from .radio import (ActivityEvent, ActivityTrace, EventKind, RadioState,
                    SignalingConfigError, SignalingCostTable,
                    SignalingLedger, StateSegment, StateTrace, TraceError,
                    energy_of, signaling_of, simulate, tail_states_energy)
from .client import (AckEvent, DeliveryOrderError, DeliveryResult,
                     StreamingClient)
from .profiler import (BurstObservation, FeedError, TrafficProfiler,
                       estimate_bandwidth)
from .shaper import (Phase, QualityLevel, Shaper, ShaperState, StreamSpec,
                     initial_quality, select_quality)
from .session import (BandwidthTrace, ProbeSearchResult, SessionResult,
                      SimulatedSession, linear_sweep_oracle, probe_search)
from .profiles import (ConfigError, get_profile, list_profiles,
                       load_profile_file, lte_reference_nodrx,
                       wifi_reference)
from .harness import (BackgroundTraffic, RunResult, Scenario, compare_configs,
                      compare_table, load_scenario, run, sweep_surface)
from . import mediahttp

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
