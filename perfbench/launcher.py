"""Fresh-interpreter children of the benchmark: set-up probes and the proxy.

As a script (``launcher.py setup`` or ``launcher.py proxy --fast-start-s S``)
it imports the program from ``src/`` beside this directory, prints
``READY ...`` once it could serve its first op, and then:

- ``setup``: exits. Imports the package and the CLI, builds the CLI parser
  and loads every shipped profile, as a CLI run or sweep does first.
- ``proxy``: starts ``ShapingProxy(SessionConfig(...)).start()`` on a free
  loopback port and, until stdin closes, answers each command line on
  stdin with one JSON line of counters: ``STATS``; ``TRACE ON``, which
  first wraps the public ``Shaper`` methods in spans; ``TRACE OFF``, which
  first removes them. The ``burststream proxy`` CLI cannot be used: it
  calls ``start()`` twice (see README, defects).

As a module it gives the parent side, ``Child``.
"""

from __future__ import annotations

import json
import os
import resource
import select
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import List

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0


def public_methods(cls) -> List[str]:
    return [n for n, v in vars(cls).items()
            if not n.startswith("_") and callable(v)
            and not isinstance(v, (classmethod, staticmethod, type))]


class Child:
    """A launcher process; ``setup_s`` is spawn-to-READY wall time."""

    def __init__(self, mode: str, fast_start_s: float = 0.0):
        cmd = [sys.executable, str(HERE / "launcher.py"), mode,
               "--fast-start-s", repr(fast_start_s)]
        t0 = perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        try:
            ready = self._readline(READY_TIMEOUT_S).split()
        except BaseException:
            self.kill()
            raise
        self.setup_s = perf_counter() - t0
        if not ready or ready[0] != "READY":
            self.kill()
            raise RuntimeError(f"launcher said {ready!r}, not READY")
        self.port = int(ready[1]) if len(ready) > 1 else None

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError(f"launcher silent for {timeout} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited early")
        return line

    def command(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return json.loads(self._readline(EXIT_TIMEOUT_S))

    def finish(self):
        """Close stdin, reap the child, return its resource usage."""
        self.proc.stdin.close()
        deadline = time.monotonic() + EXIT_TIMEOUT_S
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, rusage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"launcher exited with {self.proc.returncode}")
        return rusage

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


# -- child side ------------------------------------------------------------

def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def child_main(argv: List[str]) -> int:
    mode = argv[0]
    fast_start_s = float(argv[argv.index("--fast-start-s") + 1])
    sys.path.insert(0, str(SRC))
    if mode == "setup":
        from burststream import cli, profiles
        cli.build_parser()
        for name in profiles.list_profiles():
            profiles.get_profile(name)
        print("READY", flush=True)
        return 0

    from burststream.proxy import SessionConfig, ShapingProxy
    from burststream.shaper import Shaper
    from tracing import Tracer
    tracer = Tracer()
    proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0),
                                       fast_start_seconds=fast_start_s))
    _, port = proxy.start()
    print(f"READY {port}", flush=True)
    try:
        for line in sys.stdin:
            line = line.strip()
            if line == "TRACE ON":
                for attr in public_methods(Shaper):
                    tracer.patch(Shaper, attr, f"shaper.{attr}")
            elif line == "TRACE OFF":
                tracer.unpatch()
            elif line != "STATS":
                raise SystemExit(f"launcher: unknown command {line!r}")
            sessions = list(proxy.sessions)
            print(json.dumps({
                "cpu_s": cpu_s(),
                "rss_mb": rss_mb(),
                "threads": threading.active_count(),
                "sessions": len(sessions),
                "decisions": sum(len(s["shaper"].decision_log)
                                 for s in sessions),
                "bursts": sum(len(s["rows"]) for s in sessions),
                "shaper_s": sum(tracer.self_times().values()),
            }), flush=True)
    finally:
        proxy.close()
    return 0


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
