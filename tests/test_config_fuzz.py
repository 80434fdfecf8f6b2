"""Fuzzing the INI edge: the shipped scenario and profile files, mutated.

Each mutated text either loads or raises one ConfigError, on one line. The
tier-1 run tries a few texts; ``pytest -m integration`` tries many more,
and runs each scenario that loads through ``harness.run`` in a child
process that limits its own CPU time and address space.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import burststream
from burststream import ConfigError, load_profile_file, load_scenario

SRC = Path(burststream.__file__).resolve().parent
ROOT = SRC.parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.ini"))
SHIPPED = SCENARIOS + sorted((SRC / "profiles_data").glob("*.ini"))
VALUES = ["nan", "inf", "-1", "1e308", "%", "50%"]
GARBLE = ["", "=", ":", "[", "]", "%", "x", " ", ","]


@st.composite
def mutated(draw, paths=SHIPPED):
    """One of ``paths`` and its text after one to three edits: a line
    dropped or duplicated (a key or a section header), a character of it
    replaced, or a key's value replaced by an edge value."""
    path = draw(st.sampled_from(paths))
    lines = path.read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        edit = draw(st.sampled_from(["drop", "duplicate", "garble",
                                     "value"]))
        if edit == "drop" and len(lines) > 1:
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, line)
        elif edit == "garble":
            j = draw(st.integers(0, len(line)))
            lines[i] = line[:j] + draw(st.sampled_from(GARBLE)) + \
                line[j + 1:]
        elif "=" in line:
            key = line.partition("=")[0]
            lines[i] = f"{key}= {draw(st.sampled_from(VALUES))}"
    return path, "\n".join(lines) + "\n"


def load(path, text, folder):
    """Write ``text`` under ``path``'s name in ``folder`` and load it as
    the kind of file ``path`` is; returns the written path and the model,
    or the ConfigError."""
    written = Path(folder) / path.name
    written.write_text(text)
    loader = load_scenario if path.parent.name == "scenarios" \
        else load_profile_file
    try:
        return written, loader(written)
    except ConfigError as exc:
        assert "\n" not in str(exc), str(exc)
        return written, exc


@settings(max_examples=25, deadline=None)
@given(case=mutated())
def test_a_mutated_file_loads_or_is_one_config_error(case):
    with tempfile.TemporaryDirectory() as folder:
        load(*case, folder)


# The child sets its own limits, loads the scenario and runs it. A run
# may end in a FieldError, a rule refusing a value the run derives (a
# Fast Start of 1e308 bit/s overflows to an endless one), exit 2; exit 3
# is the known zero-startup defect, pinned by the strict xfail
# ``test_under_rate_supply_with_zero_startup_threshold`` in test_client.
CHILD = """
import math, resource, sys
resource.setrlimit(resource.RLIMIT_CPU, (CPU_S, CPU_S))
resource.setrlimit(resource.RLIMIT_AS, (AS_BYTES, AS_BYTES))
from burststream import harness
from burststream.errors import FieldError
scenario = harness.load_scenario(sys.argv[1])
try:
    result = harness.run(scenario)
except FieldError:
    sys.exit(2)
except RuntimeError as exc:
    if scenario.startup_s == 0 and "progress" in str(exc):
        sys.exit(3)
    raise
energies = (result.energy_mj, result.energy_baseline_mj)
assert all(math.isfinite(e) and e >= 0 for e in energies), energies
"""
CPU_S = 20
AS_BYTES = 1 << 30


@pytest.mark.integration
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated(SCENARIOS))
def test_a_mutated_scenario_that_loads_runs(case):
    path, text = case
    with tempfile.TemporaryDirectory() as folder:
        written, loaded = load(path, text, folder)
        if isinstance(loaded, ConfigError):
            return
        code = CHILD.replace("CPU_S", str(CPU_S)).replace(
            "AS_BYTES", str(AS_BYTES))
        env = dict(os.environ, PYTHONPATH=str(SRC.parent))
        proc = subprocess.run([sys.executable, "-c", code, str(written)],
                              capture_output=True, text=True, env=env,
                              timeout=4 * CPU_S)
        assert proc.returncode in (0, 2, 3), \
            f"exit {proc.returncode} on:\n{text}\n{proc.stderr[-2000:]}"
