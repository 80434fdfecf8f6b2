"""burststream benchmark: seeded closed-loop workloads, timed from outside.

    python3 perfbench/run.py --workload sessions --seed 1 --seconds 40 \
        --trace 0

Workloads: ``sessions`` (``harness.run`` on generated scenarios), ``sweep``
(``harness.sweep_surface`` grids) and ``proxy-relay`` (streams through a
``ShapingProxy`` in its own process). See README.md beside this file.

``--trace 0`` measures for ``--seconds`` seconds of wall time and reports
the end-to-end metrics. ``--trace 1`` runs each of the first ``POOL``
inputs twice, untraced and with spans around the public calls of each
layer, and reports the per-layer metrics and the tracing overhead; the
spans are written to ``.perfbench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat every
metric with its unit, a run header and a digest of the outputs. The program
is imported from ``src/`` beside this directory and nowhere else: without it
the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5
WARMUP_OPS = 2
POOL = 32   # leading inputs behind the output digest and the traced passes
MIN_OPS = 100   # timed ops for at least 10 samples beyond p90

# The machine's speed drifts by up to 2x within seconds (shared host).
# Every timed interval is scaled to a reference speed at which probe()
# takes PROBE_NOMINAL_S. The probe runs right before and right after each
# interval, while the program is idle, and the two are averaged.
PROBE_TUPLES = 8_000
PROBE_NOMINAL_S = 1e-3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "1/s",
    "mb_per_s": "MB/s",
}
PER_LAYER = {
    "client.deliver_s": "s",
    "client.acks": "count",
    "client.deliver_calls": "count",
    "profiler.ingest_s": "s",
    "profiler.ingest_calls": "count",
    "profiler.acks_per_burst": "count",
    "shaper.s": "s",
    "shaper.decisions": "count",
    "shaper.bursts": "count",
    "session.run_self_s": "s",
    "harness.run_self_s": "s",
    "radio.simulate_s": "s",
    "radio.energy_of_s": "s",
    "radio.signaling_of_s": "s",
    "radio.segments": "count",
    "energy.power_surface_s": "s",
    "energy.surface_to_csv_s": "s",
    "energy.points": "count",
    "energy.csv_bytes": "count",
    "proxy.ttfb_ms.p50": "ms",
    "proxy.head_ms.p50": "ms",
    "proxy.body_wait_ms.p50": "ms",
    "proxy.transfer_ms.p50": "ms",
    "proxy.cpu_ms_per_mb": "ms/MB",
    "proxy.rss_mb_end": "MB",
    "proxy.threads_end": "count",
    "proxy.sessions_retained": "count",
    "trace.overhead_ms": "ms",
}


def probe() -> float:
    """Seconds to build a list of small tuples (bytecode and allocator),
    best of two."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        items = [(i, i * 0.5) for i in range(PROBE_TUPLES)]
        best = min(best, perf_counter() - t0)
    del items
    return best


def speed_factor(before: float, after: float) -> float:
    """Reference-speed seconds per wall-clock second, from the probes
    around an interval."""
    return 2.0 * PROBE_NOMINAL_S / (before + after)


def setup_sample(wl) -> float:
    before = probe()
    seconds = wl.setup_sample()
    return seconds * speed_factor(before, probe())


def load_program():
    """Import burststream from this checkout's ``src/`` only."""
    pkg = SRC / "burststream"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: the program is missing ({pkg})")
    sys.path.insert(0, str(SRC))
    import burststream
    if Path(burststream.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported {burststream.__file__}, "
                         f"not the checkout's program")
    return burststream


class Tally:
    """Outcome of one pass of the closed loop."""

    def __init__(self) -> None:
        self.times = []         # op times at reference speed
        self.raw_times = []     # op times on the wall clock
        self.speed = {}         # op index -> speed_factor() around the op
        self.failed = 0
        self.payloads = []      # payload bytes per op, None if it failed
        self.reasons = []
        self.counts = {}
        self.inputs_sha = hashlib.sha256()
        self.outputs_sha = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.times)


def run_op(wl, i: int, inp, tally: Tally, tracer=None) -> None:
    """One op. Only ``wl.op`` is timed; its output is checked after the
    clock stops."""
    before = probe()
    if tracer is not None:
        wl.tracer = tracer
        tracer.op_id = i
        root = tracer.begin("op")
    t0 = perf_counter()
    try:
        out, err = wl.op(inp), None
    except Exception as exc:              # a failed op is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.end(root)
        wl.tracer = None
    factor = tally.speed[i] = speed_factor(before, probe())
    tally.raw_times.append(elapsed)
    tally.times.append(elapsed * factor)
    if err is None:
        try:
            err = wl.check(inp, out)
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
    if err is None:
        tally.payloads.append(wl.payload(inp, out))
        for name, n in wl.counts(out).items():
            tally.counts[name] = tally.counts.get(name, 0) + n
    else:
        tally.payloads.append(None)
        tally.failed += 1
        if len(tally.reasons) < 5:
            tally.reasons.append(f"op {i}: {err}")
    if i < POOL:
        tally.inputs_sha.update(inp.describe().encode())
        tally.outputs_sha.update(b"failed" if err else wl.digest(out))


def measure(wl, inputs, stop) -> Tally:
    """Run ops until ``stop(ops_done, seconds_elapsed)``."""
    tally = Tally()
    started = perf_counter()
    for i, inp in enumerate(inputs):
        if stop(i, perf_counter() - started):
            break
        run_op(wl, i, inp, tally)
    return tally


def paired(wl, inputs, tracer):
    """Each of the first ``POOL`` inputs untraced and traced back to back,
    in alternating order, so that drift in the machine's speed cancels out
    of the tracing overhead."""
    base, traced = Tally(), Tally()
    for i, inp in zip(range(POOL), inputs):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            with wl.observed(i, with_trace):
                if with_trace:
                    with tracer.patched(wl.install_trace):
                        run_op(wl, i, inp, traced, tracer)
                else:
                    run_op(wl, i, inp, base)
    return base, traced


def p50_ms(times) -> float:
    return statistics.median(times) * 1e3


def whole_rounds(tally: Tally, round_size: int) -> int:
    """Ops in the whole input rounds of a run: where a wall-clock deadline
    cuts a round, its remaining ops would shift the mix with the machine's
    speed, so they are checked but left out of the timing statistics."""
    return tally.attempted // round_size * round_size or tally.attempted


def end_to_end(tally: Tally, n: int, setup, stats) -> dict:
    times = tally.times[:n]
    busy = sum(times)
    done = [p for p in tally.payloads[:n] if p is not None]
    peak = stats.get("peak_rss_mb") or \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak,
        "op_ms.p50": p50_ms(times),
        "op_ms.p90": statistics.quantiles(times, n=10)[8] * 1e3,
        "ops_per_s": len(done) / busy,
        "mb_per_s": sum(done) / 1e6 / busy,
    }


def per_layer(wl, tracer, base: Tally, traced: Tally) -> dict:
    st = tracer.self_times(traced.speed)
    counts, calls = tracer.counts(), tracer.calls()
    bursts = calls.get("profiler.finish_burst", 0)
    ingests = counts.get("profiler.ingest", 0)
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update({
        "client.deliver_s": st.get("client.deliver", 0.0),
        "client.acks": counts.get("client.deliver", 0),
        "client.deliver_calls": calls.get("client.deliver", 0),
        "profiler.ingest_s": st.get("profiler.ingest", 0.0),
        "profiler.ingest_calls": ingests,
        "profiler.acks_per_burst": ingests / bursts if bursts else 0.0,
        "shaper.s": sum((v for k, v in st.items()
                         if k.startswith("shaper.")), 0.0),
        "session.run_self_s": st.get("session.run", 0.0),
        "harness.run_self_s": st.get("harness.run", 0.0),
        "radio.simulate_s": st.get("radio.simulate", 0.0),
        "radio.energy_of_s": st.get("radio.energy_of", 0.0),
        "radio.signaling_of_s": st.get("radio.signaling_of", 0.0),
        "energy.power_surface_s": st.get("energy.power_surface", 0.0),
        "energy.surface_to_csv_s": st.get("energy.surface_to_csv", 0.0),
        "energy.points": counts.get("energy.power_surface", 0),
        "energy.csv_bytes": counts.get("energy.surface_to_csv", 0),
    })
    m.update(traced.counts)
    m.update(wl.layer_metrics(tracer, base, traced))
    m["trace.overhead_ms"] = p50_ms([t - b for t, b in zip(traced.times,
                                                            base.times)])
    return m


def in_session(wl, work):
    """Start the workload, warm it up, run ``work()``, stop it."""
    wl.start()
    try:
        measure(wl, wl.inputs(tag=1), lambda i, _: i >= WARMUP_OPS)
        result = work()
    finally:
        stats = wl.stop()
    return result, stats


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sessions", "sweep", "proxy-relay"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    import numpy
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        tracer = tracing.Tracer()
        (base, tally), _ = in_session(wl, lambda: paired(
            wl, wl.inputs(tag=0), tracer))
        metrics = per_layer(wl, tracer, base, tally)
        units = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans)
        tally.failed += base.failed
        tally.times += base.times
        tally.raw_times += base.raw_times
        tally.reasons += base.reasons
    else:
        setup = [setup_sample(wl) for _ in range(SETUP_SAMPLES)]
        tally, stats = in_session(wl, lambda: measure(
            wl, wl.inputs(tag=0), lambda i, el: el >= args.seconds))
        timed = whole_rounds(tally, wl.round_size)
        metrics = end_to_end(tally, timed, setup, stats)
        units = END_TO_END

    header = {
        "git": git_commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "inputs_sha256": tally.inputs_sha.hexdigest(),
    }
    print("# header " + json.dumps(header))
    for name, unit in units.items():
        print(f"# {name:<26} {metrics[name]:>16.6f} {unit}")
    if args.trace:
        print(f"# spans written to {spans.relative_to(ROOT)}")
    print(f"# wall clock: op_ms.p50 {p50_ms(tally.raw_times):.6f} ms; "
          f"reference speed / machine speed: median "
          f"{statistics.median(tally.speed.values()):.4f}, "
          f"range {min(tally.speed.values()):.4f}-"
          f"{max(tally.speed.values()):.4f}")
    if not args.trace:
        print(f"# timing statistics over the first {timed} ops "
              f"(whole rounds of {wl.round_size} inputs)")
        if timed < MIN_OPS:
            print(f"# warning: fewer than {MIN_OPS} timed ops, so fewer "
                  f"than 10 samples lie beyond op_ms.p90")
    print(f"# ops {tally.attempted}, failed {tally.failed}, "
          f"failed_ratio {tally.failed / tally.attempted:.6f}")
    for reason in tally.reasons:
        print(f"# failure {reason}")
    print(f"# outputs sha256 over the first {min(POOL, tally.attempted)} "
          f"ops: {tally.outputs_sha.hexdigest()}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
