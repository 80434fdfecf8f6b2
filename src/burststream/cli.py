"""Command-line entry points: scenario runs, surface sweeps, config
comparisons, and the live shaping proxy."""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import List

from .errors import ConfigError, FieldError, positive_finite

# each command imports what it runs when it runs: ``proxy`` loads the proxy
# and no simulation; ``run``, ``compare`` and ``profiles`` load the
# simulation and neither numpy nor the proxy; ``sweep`` loads numpy


def _parse_grid(text: str) -> List[float]:
    """Grid syntax: comma list '1,2,5' or inclusive range 'start:stop:step'
    with start <= stop and step > 0; every value finite."""
    sep = ":" if ":" in text else ","
    try:
        parts = [float(x) for x in text.split(sep)]
        if not all(math.isfinite(x) for x in parts):
            raise ValueError("values must be finite")
        if sep == ",":
            return parts
        if len(parts) > 3:
            raise ValueError("a range is start:stop[:step]")
        start, stop, step = (parts + [1.0])[:3]    # step 1 if left out
        positive_finite("range step", step)
        if start > stop:
            raise ValueError("range start exceeds its stop")
    except ValueError as exc:
        raise ConfigError(f"grid {text!r}: {exc}") from None
    out = []
    v = start
    while v <= stop + 1e-9:
        out.append(v)
        v += step
    return out


def _parse_listen(text: str):
    """``host:port`` (host defaults to 127.0.0.1); the port is an integer
    in 0-65535, 0 picking a free one."""
    host, _, port = text.rpartition(":")
    try:
        number = int(port)
    except ValueError:
        raise ConfigError(f"--listen {text!r}: port must be an integer") \
            from None
    if not 0 <= number <= 65535:
        raise ConfigError(f"--listen {text!r}: port must be in 0-65535")
    return (host or "127.0.0.1", number)


def cmd_run(args) -> int:
    from . import harness
    from .shaper import write_burst_log
    scenario = harness.load_scenario(args.scenario)
    result = harness.run(scenario)
    print(result.summary())
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "bursts.csv", "w") as fp:
            write_burst_log(fp, result.burst_log)
        (out / "radio_states.csv").write_text(result.state_trace.to_csv())
        (out / "signaling.csv").write_text(result.signaling.to_csv())
        stalls = ["start_s,end_s"] + [
            f"{s:.6f},{'' if e is None else format(e, '.6f')}"
            for s, e in result.stall_log]
        (out / "stalls.csv").write_text("\n".join(stalls) + "\n")
        print(f"wrote {out}/bursts.csv radio_states.csv signaling.csv "
              f"stalls.csv")
    return 0


def cmd_sweep(args) -> int:
    from .energy import power_surface, write_surface_csv
    from .profiles import get_profile
    profile = get_profile(args.profile)
    grid = [_parse_grid(text) for text in (args.rs, args.t, args.b)]
    try:
        surface = power_surface(profile, *grid)
    except ValueError as exc:  # a grid point outside the model's domain
        raise ConfigError(f"sweep: {exc}") from None
    if args.out:
        with open(args.out, "w") as fp:
            write_surface_csv(fp, profile, surface)
        print(f"wrote {args.out}")
    else:
        write_surface_csv(sys.stdout, profile, surface)
    return 0


def cmd_compare(args) -> int:
    from . import harness
    from .profiles import get_profile
    scenario = harness.load_scenario(args.scenario)
    profiles = [get_profile(p) for p in args.profiles]
    expect = args.expect_energy_order.split(",") \
        if args.expect_energy_order else None
    rows = harness.compare_configs(scenario, profiles,
                                   expect_energy_order=expect)
    sys.stdout.write(harness.compare_table(rows))
    return 0


def cmd_proxy(args) -> int:
    from .proxy import SessionConfig, ShapingProxy
    proxy = ShapingProxy(SessionConfig(
        listen=_parse_listen(args.listen),
        origin=args.origin,
        fast_start_seconds=args.fast_start_seconds,
        granularity_s=args.granularity_s,
        rate_override_bps=args.rate_override_bps,
        log_path=args.log,
        backpressure_s=args.backpressure_s,
    ))
    host, port = proxy.start()
    print(f"shaping proxy listening on {host}:{port}", flush=True)
    proxy.serve_forever()
    return 0


def cmd_profiles(_args) -> int:
    from .profiles import list_profiles
    for name in list_profiles():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burststream",
        description="Energy-aware burst shaping: simulate, sweep, compare, "
                    "or run the live proxy.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario file (shaped vs baseline)")
    p.add_argument("scenario")
    p.add_argument("--out", help="directory for CSV outputs")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="average-power surface over a grid")
    p.add_argument("profile", help="shipped profile name or .ini path")
    p.add_argument("--rs", required=True,
                   help="encoding rates, bit/s (list or start:stop:step)")
    p.add_argument("--t", required=True, help="burst intervals, seconds")
    p.add_argument("--b", required=True, help="buffer sizes, bytes")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare",
                       help="same scenario under several radio configs")
    p.add_argument("scenario")
    p.add_argument("profiles", nargs="+")
    p.add_argument("--expect-energy-order",
                   help="comma list of profile names in non-decreasing "
                        "shaped-energy order; violation exits nonzero")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("proxy", help="live HTTP shaping proxy")
    p.add_argument("--listen", default="127.0.0.1:8800")
    p.add_argument("--fast-start-seconds", type=float, default=20.0)
    p.add_argument("--granularity-s", type=float, default=1.0)
    p.add_argument("--rate-override-bps", type=float)
    p.add_argument("--log", help="burst log CSV path")
    p.add_argument("--origin", help="origin base URL override")
    p.add_argument("--backpressure-s", type=float, default=0.5)
    p.set_defaults(func=cmd_proxy)

    p = sub.add_parser("profiles", help="list shipped radio profiles")
    p.set_defaults(func=cmd_profiles)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader has gone (``| head``): what is left of the output, and
        # what stdout still buffers when the interpreter exits, goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    # FieldError: a value out of its field's rule, such as a proxy option;
    # OSError: an output path that cannot be written, or a missing input
    except (ConfigError, FieldError, AssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
