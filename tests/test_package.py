"""The package namespace: every public name, loaded on first access."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import burststream

# the directory this package was imported from
SRC = Path(burststream.__file__).resolve().parent.parent

SUBMODULES = ("client", "energy", "harness", "mediahttp", "profiler",
              "profiles", "radio", "session", "shaper")

# each exported name by the submodule the package took it from when it
# imported them all eagerly
EXPORTED_FROM = {
    "energy": ("BufferExceededError", "BurstScenario", "DomainError",
               "DrxConfig", "FastDormancy", "RadioProfile", "Technology",
               "avg_power", "avg_power_fitting", "avg_power_overflow",
               "avg_power_over_intervals", "delta_power_rx", "idle_time",
               "optimal_interval", "power_rx", "power_surface", "Surface",
               "surface_to_csv", "tail_energy", "tail_energy_for_idle"),
    "radio": ("ActivityEvent", "ActivityTrace", "EventKind", "RadioState",
              "SignalingConfigError", "SignalingCostTable",
              "SignalingLedger", "StateSegment", "StateTrace", "TraceError",
              "energy_of", "signaling_of", "simulate", "tail_states_energy"),
    "client": ("AckEvent", "DeliveryOrderError", "DeliveryResult",
               "StreamingClient"),
    "profiler": ("BurstObservation", "FeedError", "TrafficProfiler",
                 "estimate_bandwidth"),
    "shaper": ("Phase", "QualityLevel", "Shaper", "ShaperState",
               "StreamSpec", "initial_quality", "select_quality"),
    "session": ("BandwidthTrace", "ProbeSearchResult", "SessionResult",
                "SimulatedSession", "linear_sweep_oracle", "probe_search"),
    "profiles": ("ConfigError", "get_profile", "list_profiles",
                 "load_profile_file", "lte_reference_nodrx",
                 "wifi_reference"),
    "harness": ("BackgroundTraffic", "RunResult", "Scenario",
                "compare_configs", "compare_table", "load_scenario", "run",
                "sweep_surface"),
}
ALL = sorted([*SUBMODULES, *(name for names in EXPORTED_FROM.values()
                             for name in names)])


class TestNamespace:
    def test_all_is_unchanged(self):
        assert len(ALL) == 78
        assert burststream.__all__ == ALL
        assert burststream.__version__ == "0.1.0"

    @pytest.mark.parametrize("module,name", [
        (module, name) for module, names in EXPORTED_FROM.items()
        for name in names])
    def test_name_is_its_submodules_object(self, module, name):
        submodule = importlib.import_module(f"burststream.{module}")
        assert getattr(burststream, name) is getattr(submodule, name)

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_submodule_names_are_the_submodules(self, name):
        assert getattr(burststream, name) is \
            importlib.import_module(f"burststream.{name}")

    def test_config_error_is_one_class(self):
        from burststream import cli, errors, profiles
        assert burststream.ConfigError is profiles.ConfigError \
            is errors.ConfigError is cli.ConfigError

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from burststream import *", namespace)
        assert set(ALL) <= set(namespace)
        assert all(namespace[name] is getattr(burststream, name)
                   for name in ALL)

    def test_dir_lists_every_name(self):
        assert set(ALL) <= set(dir(burststream))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            burststream.no_such_name
        assert not hasattr(burststream, "no_such_name")


def test_proxy_loads_no_simulation():
    # a fresh interpreter: this one has loaded everything already
    script = (
        "import sys\n"
        "import burststream.proxy\n"
        "from burststream import cli\n"
        "cli.build_parser().parse_args(['proxy'])\n"
        "print(' '.join(m for m in ('numpy', 'burststream.energy',"
        " 'burststream.radio', 'burststream.harness',"
        " 'burststream.session', 'burststream.profiles')"
        " if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", script], cwd=SRC,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []
