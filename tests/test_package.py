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
        assert len(ALL) == 75
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


def _fresh_interpreter(script):
    """The words a fresh interpreter prints after running ``script``: this
    one has loaded everything already."""
    out = subprocess.run([sys.executable, "-c", script], cwd=SRC,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_proxy_loads_no_simulation():
    script = (
        "import sys\n"
        "import burststream.proxy\n"
        "from burststream import cli\n"
        "cli.build_parser().parse_args(['proxy'])\n"
        "print(' '.join(m for m in ('numpy', 'burststream.energy',"
        " 'burststream.radio', 'burststream.harness',"
        " 'burststream.session', 'burststream.profiles')"
        " if m in sys.modules))\n")
    assert _fresh_interpreter(script) == []


# the modules a simulation command must not load: numpy, and the proxy with
# the HTTP client it brings
HEAVY = ("numpy", "burststream.proxy", "http.client")
SCENARIOS = SRC.parent / "scenarios"


@pytest.mark.parametrize("argv", [
    ["run", str(SCENARIOS / "hspa-video-39s.ini"), "--out", "{tmp}"],
    ["compare", str(SCENARIOS / "lte-audio-18s.ini"), "lte-drx-default",
     "lte-drx-longidle"],
    ["profiles"],
], ids=lambda argv: argv[0])
def test_simulation_command_loads_neither_numpy_nor_proxy(argv, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    # a blocked numpy fails any import of it
    script = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "from burststream import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(code, *(m for m in {HEAVY!r}"
        " if sys.modules.get(m) is not None))\n")
    assert _fresh_interpreter(script) == ["0"]


def test_simulation_modules_load_neither_numpy_nor_proxy():
    script = (
        "import sys\n"
        "import burststream.harness, burststream.profiles\n"
        "import burststream.radio, burststream.session\n"
        "import burststream.client, burststream.profiler\n"
        "import burststream.shaper\n"
        f"print(*(m for m in {HEAVY!r} if m in sys.modules))\n")
    assert _fresh_interpreter(script) == []


def test_sweep_loads_numpy_and_no_proxy(tmp_path):
    argv = ["sweep", "wifi-ref", "--rs", "500000", "--t", "1:10:1",
            "--b", "1000000", "--out", str(tmp_path / "surface.csv")]
    script = (
        "import contextlib, io, sys\n"
        "from burststream import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(code, *(m for m in {HEAVY!r} if m in sys.modules))\n")
    assert _fresh_interpreter(script) == ["0", "numpy"]
    assert (tmp_path / "surface.csv").read_text().count("\n") == 11
