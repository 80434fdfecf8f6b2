"""Tiny-size self-test of the benchmark.

    python3 perfbench/selfcheck.py

Checks that:
- every workload, traced and untraced, ends its output with a result line
  whose metrics are exactly the ones BENCHMARK.json names, each printed
  with its unit, and that no op fails;
- a corrupted proxy body is counted as a failed op;
- without the program beside it, run.py exits non-zero and prints no
  result.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

TINY_POOL = 3   # inputs of a traced run


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck FAILED: {what}")


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def run_in_process(*args: str) -> str:
    """``run.py`` with a traced run of ``TINY_POOL`` inputs; its stdout."""
    out = io.StringIO()
    pool, run.POOL = run.POOL, TINY_POOL
    try:
        with redirect_stdout(out):
            status = run.main(list(args))
    finally:
        run.POOL = pool
    expect(status == 0, f"run.py {' '.join(args)} returned {status}")
    return out.getvalue()


def check_result_lines(spec: dict) -> None:
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            lines = run_in_process("--workload", name, "--seed", "7",
                                   "--seconds", "2", "--trace",
                                   str(trace)).splitlines()
            what = f"{name} --trace {trace}"
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{what}: result keys")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{what}: metrics {got} != {want}")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{what}: non-numeric value")
            for metric, unit in want.items():
                expect(any(ln.startswith(f"# {metric} ") and
                           ln.endswith(f" {unit}") for ln in lines),
                       f"{what}: {metric} not printed with its unit")
            expect(result["attempted"] >= 1 and result["failed"] == 0 and
                   result["correct"], f"{what}: ops failed: {lines[-6:]}")
            print(f"ok  {what}: {result['attempted']} ops, "
                  f"{len(got)} metrics")


def check_corrupt_body() -> None:
    import workloads
    wl = workloads.ProxyRelay(7, corrupt=True)
    tally, _ = run.in_session(wl, lambda: run.measure(
        wl, wl.inputs(tag=0), lambda i, _: i >= 3))
    expect(tally.attempted == 3 and tally.failed == 3,
           f"corrupted bodies: {tally.failed} of {tally.attempted} failed")
    expect("sha256" in tally.reasons[0], f"reason: {tally.reasons[0]}")
    print("ok  corrupted proxy body counted as failed")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(bare, "--workload", "sessions", "--seed", "7",
                     "--seconds", "1", "--trace", "0")
        expect(done.returncode != 0 and not done.stdout.strip(),
               f"bare directory: exit {done.returncode}, "
               f"stdout {done.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare)
    print("ok  no program, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_result_lines(spec)
    check_corrupt_body()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
