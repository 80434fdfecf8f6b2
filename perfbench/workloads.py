"""The three benchmark workloads: input generators, the timed call, checks.

Every workload is a closed loop with one caller. Inputs come in rounds of
``round_size`` ops; within a round each continuous parameter is drawn once
from each of ``round_size`` equal strata of its range, and every shipped
profile appears equally often. Which strata and categories share an op is
the same in every round and for every seed (the ``design`` generator); the
seed and the round place each value inside its stratum and draw everything
else.
Inputs thus never repeat, but every whole round has one mix of cheap and
expensive ops, so medians stay close from one seed or run length to the
next.

The program sees only the generated inputs. Checks run after the timed call
returns and never inside a timed region.
"""

from __future__ import annotations

import hashlib
import math
import socket
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import count
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from burststream import energy, harness, mediahttp
from burststream.client import StreamingClient
from burststream.harness import BackgroundTraffic, Scenario
from burststream.profiler import TrafficProfiler
from burststream.profiles import get_profile, list_profiles
from burststream.session import BandwidthTrace, SimulatedSession
from burststream.shaper import QualityLevel, Shaper, StreamSpec

import launcher
import tracing

ROUND = 32


def strata(design: np.random.Generator, rng: np.random.Generator,
           lo: float, hi: float, log: bool = False,
           n: int = ROUND) -> np.ndarray:
    """One draw from each of ``n`` equal strata of [lo, hi], in the
    design's order."""
    u = (design.permutation(n) + rng.random(n)) / n
    if log:
        return np.exp(math.log(lo) + u * math.log(hi / lo))
    return lo + u * (hi - lo)


def log_levels(design: np.random.Generator, lo: float, hi: float,
               n: int = ROUND) -> np.ndarray:
    """The midpoints of ``n`` equal log-strata of [lo, hi], in the
    design's order. For small integer sizes, where a draw inside a stratum
    would only pick between neighbouring integers of very different cost."""
    u = (design.permutation(n) + 0.5) / n
    return np.exp(math.log(lo) + u * math.log(hi / lo))


def rounds(seed: int, tag: int, make_round) -> Iterator:
    for r in count():
        yield from make_round(np.random.default_rng(tag),
                              np.random.default_rng([seed, tag, r]))


def shipped_profiles() -> Dict[str, energy.RadioProfile]:
    return {name: get_profile(name) for name in list_profiles()}


class Workload:
    name = ""
    round_size = ROUND
    tracer = None

    def __init__(self, seed: int):
        self.seed = seed
        self.profiles = shipped_profiles()

    def inputs(self, tag: int) -> Iterator:
        return rounds(self.seed, tag, self.make_round)

    def setup_sample(self) -> float:
        child = launcher.Child("setup")
        child.finish()
        return child.setup_s

    def start(self) -> None:
        pass

    def stop(self) -> Dict[str, float]:
        return {}

    def counts(self, out) -> Dict[str, int]:
        return {}

    def install_trace(self, tracer) -> None:
        pass

    def observed(self, i: int, traced: bool):
        """Context around op ``i`` of a traced run, untimed."""
        return nullcontext()

    def layer_metrics(self, tracer, base, traced) -> Dict[str, float]:
        return {}


# -- sessions ------------------------------------------------------------

SESSION_S = 300.0
# adaptive sessions carry more content than they play: with content ending
# inside the session, an upgraded quality runs the player out of content
# before the session runs out of bytes to send (see README, defects)
ADAPTIVE_CONTENT_S = 360.0
LADDER = (1.0, 1.5, 2.0)
KINDS = ("plain",) * 14 + ("background",) * 6 + ("dip",) * 6 + \
    ("adaptive",) * 6


@dataclass
class SessionInput:
    kind: str
    scenario: Scenario
    stall_free: bool   # one quality, trace never below 2x its rate (c05)

    def describe(self) -> str:
        sc = self.scenario
        bg = sc.background and (sc.background.period_s, sc.background.bytes,
                                sc.background.phase_s)
        return (f"{self.kind}|{sc.profile.name}|"
                f"{[q.bitrate_bps for q in sc.stream.qualities]!r}|"
                f"{sc.stream.fast_start_s!r}|{sc.buffer_bytes!r}|"
                f"{sc.bandwidth.steps!r}|{bg!r}")


def stepped_trace(rng, r_s: float, dip: bool) -> List[Tuple[float, float]]:
    steps, t = [], 0.0
    while t < SESSION_S:
        steps.append((t, r_s * rng.uniform(2.0, 8.0)))
        t += rng.uniform(10.0, 40.0)
    if dip:
        # a sub-rate dip longer than any Fast Start (hence any interval T),
        # so at least one burst is sent inside it
        a = rng.uniform(60.0, 180.0)
        b = a + rng.uniform(45.0, 90.0)
        resume = [bps for st, bps in steps if st <= b][-1]
        steps = sorted([s for s in steps if not a <= s[0] <= b] +
                       [(a, r_s * rng.uniform(0.3, 0.8)), (b, resume)])
    return steps


class Sessions(Workload):
    """One ``harness.run(Scenario)`` per op: shaped run, baseline, radio
    replay, energy and signaling."""

    name = "sessions"

    def make_round(self, design, rng) -> Iterator[SessionInput]:
        names = design.permutation(sorted(self.profiles) * 4)
        kinds = design.permutation(KINDS)
        r_s_all = strata(design, rng, 128e3, 4e6, log=True)
        fs_all = strata(design, rng, 10.0, 40.0)
        buf_all = strata(design, rng, 0.5, 2.5)
        for k in range(ROUND):
            kind, r_s, fs = str(kinds[k]), float(r_s_all[k]), float(fs_all[k])
            steps = stepped_trace(rng, r_s, kind == "dip")
            rates = LADDER if kind == "adaptive" else (1.0,)
            ladder = tuple(QualityLevel(r_s * m) for m in rates)
            background = None
            if kind == "background":
                period = rng.uniform(20.0, 60.0)
                background = BackgroundTraffic(period, rng.uniform(5e3, 1e5),
                                               rng.uniform(0.0, period))
            content_s = ADAPTIVE_CONTENT_S if kind == "adaptive" else SESSION_S
            scenario = Scenario(
                name=f"{kind}-{k}", profile=self.profiles[str(names[k])],
                stream=StreamSpec(ladder, content_s, fs),
                buffer_bytes=float(buf_all[k]) * fs * r_s / 8.0,
                bandwidth=BandwidthTrace(tuple(steps)),
                session_length_s=SESSION_S, adaptive=kind == "adaptive",
                background=background)
            stall_free = kind in ("plain", "background") and \
                min(b for _, b in steps) >= 2.0 * r_s
            yield SessionInput(kind, scenario, stall_free)

    def op(self, inp: SessionInput):
        return harness.run(inp.scenario)

    def check(self, inp: SessionInput, res) -> Optional[str]:
        s = res.session
        if inp.stall_free and s.stalls_after_fast_start():
            return f"stalls after Fast Start: {s.stalls_after_fast_start()}"
        if inp.kind == "dip" and not any(p["phase"] == "LOW_BANDWIDTH"
                                         for p in s.trajectory):
            return "sub-rate dip did not engage the low-bandwidth fallback"
        span_bytes = sum(nbytes for _, _, nbytes in s.activity_spans)
        if not math.isclose(span_bytes, s.content_sent_bytes, rel_tol=1e-9):
            return (f"activity spans carry {span_bytes} bytes, session sent "
                    f"{s.content_sent_bytes}")
        for trace in (res.state_trace, res.baseline_trace):
            t = 0.0
            for seg in trace.segments:
                if abs(seg.start_s - t) > 1e-9 or seg.end_s < seg.start_s:
                    return f"state trace gap at {t}"
                t = seg.end_s
            if abs(t - SESSION_S) > 1e-9:
                return f"state trace ends at {t}, not {SESSION_S}"
        if not (res.energy_mj > 0 and res.energy_baseline_mj > 0 and
                math.isfinite(res.energy_mj + res.energy_baseline_mj)):
            return "non-positive or non-finite energy"
        return None

    def payload(self, inp, res) -> int:
        return int(res.session.content_sent_bytes)

    def digest(self, res) -> bytes:
        parts = ["\n".join(res.burst_log), repr(res.stall_log),
                 repr(res.energy_mj), repr(res.energy_baseline_mj)]
        for ledger in (res.signaling, res.signaling_baseline):
            parts.append(repr((ledger.total_messages, sorted(
                (a.value, b.value, n)
                for (a, b), n in ledger.transition_counts.items()))))
        return "\n".join(parts).encode()

    def counts(self, res) -> Dict[str, int]:
        return {"shaper.decisions": len(res.session.decision_log),
                "shaper.bursts": len(res.burst_log),
                "radio.segments": len(res.state_trace.segments) +
                len(res.baseline_trace.segments)}

    def install_trace(self, tr) -> None:
        tr.patch(harness, "run", "harness.run")
        tr.patch(SimulatedSession, "run", "session.run")
        tr.patch(StreamingClient, "deliver", "client.deliver",
                 count=lambda r: len(r.acks))
        for attr in launcher.public_methods(Shaper):
            tr.patch(Shaper, attr, f"shaper.{attr}")
        tr.patch(harness, "simulate", "radio.simulate")
        tr.patch(harness, "energy_of", "radio.energy_of")
        tr.patch(harness, "signaling_of", "radio.signaling_of")
        fold_profiler(tr)


def fold_profiler(tr) -> None:
    """One span per burst for the per-ACK ``TrafficProfiler.ingest`` calls,
    carrying their count and summed time; a span per call would cost more
    than the call."""
    ingest = TrafficProfiler.ingest
    acc = [0, 0.0, 0.0, 0.0]           # calls, summed time, first, last

    def folded_ingest(self, ack):
        t0 = perf_counter()
        result = ingest(self, ack)
        t1 = perf_counter()
        if not acc[0]:
            acc[2] = t0
        acc[0] += 1
        acc[1] += t1 - t0
        acc[3] = t1
        return result

    finish = tr.wrap("profiler.finish_burst", TrafficProfiler.finish_burst)

    def folded_finish(self):
        if acc[0]:
            tr.add("profiler.ingest", acc[2], acc[3], acc[0], acc[1])
        acc[:] = [0, 0.0, 0.0, 0.0]
        return finish(self)

    tr.replace(TrafficProfiler, "ingest", folded_ingest)
    tr.replace(TrafficProfiler, "finish_burst", folded_finish)


# -- sweep ---------------------------------------------------------------

SURFACE_HEADER = "technology,r_s_bps,buffer_bytes,interval_s,avg_power_mw\n"
SAMPLED_ROWS = 16
DIGEST_CHARS = 1 << 16


def matches_reference_csv(csv: str, profile, rows) -> bool:
    """Whether ``csv`` is the surface CSV as the program wrote it when the
    benchmark was defined. The reference formats by a separate route
    (%-formatting), one row at a time, so that the check holds no second
    copy of the CSV and stays below the program's own peak memory."""
    line = profile.technology.value + ",%.10g,%.10g,%.10g,%.9g\n"
    if not csv.startswith(SURFACE_HEADER):
        return False
    pos = len(SURFACE_HEADER)
    for row in rows:
        text = line % row
        if not csv.startswith(text, pos):
            return False
        pos += len(text)
    return pos == len(csv)


@dataclass
class SweepInput:
    profile: energy.RadioProfile
    r_s: List[float]
    t: List[float]
    b: List[float]
    samples: List[int]

    def describe(self) -> str:
        return f"{self.profile.name}|{self.r_s!r}|{self.t!r}|{self.b!r}"


class Sweep(Workload):
    """One ``harness.sweep_surface`` grid per op, CSV kept in memory."""

    name = "sweep"
    # a slow 40 s run holds about 120 grids: whole rounds of 32 would keep
    # only 96 of them in the timing statistics, rounds of 16 keep 112
    round_size = 16

    def make_round(self, design, rng) -> Iterator[SweepInput]:
        n = self.round_size
        names = design.permutation(sorted(self.profiles) *
                                   (n // len(self.profiles)))
        points = strata(design, rng, 1e4, 1e5, log=True, n=n)
        t_lens = log_levels(design, 2.0, 1000.0, n=n)
        for k in range(n):
            profile = self.profiles[str(names[k])]
            n_t = int(round(t_lens[k]))
            rest = points[k] / n_t
            n_r = max(1, int(round(math.sqrt(rest))))
            n_b = max(1, int(round(rest / n_r)))
            r_btc = profile.r_btc_bps
            r_s = np.sort(rng.uniform(0.005, 0.5, n_r) * r_btc).tolist()
            t = np.sort(rng.uniform(0.5, 120.0, n_t)).tolist()
            b = np.sort(rng.uniform(1e4, 2e7, n_b)).tolist()
            samples = rng.integers(0, n_r * n_b * n_t, SAMPLED_ROWS).tolist()
            yield SweepInput(profile, r_s, t, b, samples)

    def start(self) -> None:
        # keep the rows sweep_surface computes, for the checks
        self._power_surface = harness.power_surface
        self._rows = None

        def capture(*args, **kwargs):
            self._rows = self._power_surface(*args, **kwargs)
            return self._rows
        harness.power_surface = capture

    def stop(self) -> Dict[str, float]:
        harness.power_surface = self._power_surface
        return {}

    def op(self, inp: SweepInput):
        self._rows = None
        return harness.sweep_surface(inp.profile, inp.r_s, inp.t, inp.b)

    def check(self, inp: SweepInput, csv: str) -> Optional[str]:
        rows = self._rows
        if rows is None:
            return "sweep_surface did not call harness.power_surface"
        n_b, n_t = len(inp.b), len(inp.t)
        if len(rows) != len(inp.r_s) * n_b * n_t:
            return f"{len(rows)} rows for a {len(inp.r_s)}x{n_b}x{n_t} grid"
        for k in inp.samples:
            i_r, rest = divmod(k, n_b * n_t)
            i_b, i_t = divmod(rest, n_t)
            r_s, b, t, p = rows[k]
            if (r_s, b, t) != (inp.r_s[i_r], inp.b[i_b], inp.t[i_t]):
                return f"row {k} is ({r_s}, {b}, {t}): wrong grid order"
            ref = energy.avg_power(energy.BurstScenario(
                r_s, inp.profile.r_btc_bps, b, t), inp.profile)
            if not abs(p - ref) <= 1e-9 * abs(ref):
                return f"row {k}: {p} mW, scalar avg_power gives {ref} mW"
        if not matches_reference_csv(csv, inp.profile, rows):
            return "CSV differs from the reference formatter"
        return None

    def payload(self, inp, csv: str) -> int:
        return len(csv)

    def digest(self, csv: str) -> bytes:
        sha = hashlib.sha256()
        for k in range(0, len(csv), DIGEST_CHARS):  # no full-size copy
            sha.update(csv[k:k + DIGEST_CHARS].encode())
        return sha.digest()

    def install_trace(self, tr) -> None:
        tr.patch(harness, "sweep_surface", "harness.sweep_surface")
        tr.patch(harness, "power_surface", "energy.power_surface",
                 count=len)
        tr.patch(harness, "surface_to_csv", "energy.surface_to_csv",
                 count=len)


# -- proxy-relay ---------------------------------------------------------

# Fast Start long enough that every stream fits inside it: after Fast Start
# the proxy sleeps between bursts on the wall clock, and a run would time
# the sleep instead of the program.
PROXY_FAST_START_S = 180.0
OP_LIMIT_S = 5.0
RECV_BYTES = 1 << 20


@dataclass
class ProxyInput:
    path: str
    info: str
    body: bytes
    sha256: str

    def describe(self) -> str:
        return f"{self.path}|{self.info}|{len(self.body)}|{self.sha256}"


@dataclass
class Relayed:
    head: bytes
    body: bytes


class Origin(threading.Thread):
    """Single-threaded loopback origin serving the current op's body."""

    def __init__(self, corrupt: bool = False):
        super().__init__(daemon=True)
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.2)
        self.port = self.sock.getsockname()[1]
        self.items: Dict[str, Tuple[bytes, bytes]] = {}
        self.corrupt = corrupt       # serve a flipped byte (self-test only)
        self.halt = threading.Event()

    def offer(self, inp: ProxyInput) -> None:
        body = inp.body
        if self.corrupt:
            body = bytes([body[0] ^ 0xFF]) + body[1:]
        head = (f"HTTP/1.1 200 OK\r\nContent-Type: video/mp4\r\n"
                f"Content-Length: {len(body)}\r\nX-Stream-Info: {inp.info}"
                f"\r\nConnection: close\r\n\r\n").encode("latin-1")
        self.items = {inp.path: (head, body)}

    def run(self) -> None:
        while not self.halt.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with conn:
                try:
                    self.serve(conn)
                except OSError:
                    pass

    def serve(self, conn: socket.socket) -> None:
        conn.settimeout(OP_LIMIT_S)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(4096)
            if not chunk:
                return
            data += chunk
        path = data.split(b" ", 2)[1].decode("latin-1")
        item = self.items.get(path)
        if item is None:
            conn.sendall(b"HTTP/1.1 404 Not Found\r\n"
                         b"Content-Length: 0\r\n\r\n")
            return
        conn.sendall(item[0])
        conn.sendall(item[1])

    def close(self) -> None:
        self.halt.set()
        self.sock.close()
        self.join(timeout=5.0)


class ProxyRelay(Workload):
    """One stream per op through a ``ShapingProxy`` in its own process."""

    name = "proxy-relay"

    def __init__(self, seed: int, corrupt: bool = False):
        super().__init__(seed)
        self.corrupt = corrupt
        self.child = None
        self.origin = None

    def make_round(self, design, rng) -> Iterator[ProxyInput]:
        sizes = strata(design, rng, 0.5e6, 8e6, log=True)
        rates = strata(design, rng, 0.5e6, 4e6, log=True)
        tag = int(rng.integers(1 << 62))
        for k in range(ROUND):
            size = int(sizes[k])
            body = np.random.default_rng([tag, k]).bytes(size)
            rate = round(float(rates[k]))
            info = f"duration={size * 8.0 / rate:.3f};bitrate={rate}"
            yield ProxyInput(f"/media/{tag:x}-{k}.mp4", info, body,
                             hashlib.sha256(body).hexdigest())

    def setup_sample(self) -> float:
        child = launcher.Child("proxy", PROXY_FAST_START_S)
        child.finish()
        return child.setup_s

    def start(self) -> None:
        self.origin = Origin(self.corrupt)
        self.origin.start()
        self.child = launcher.Child("proxy", PROXY_FAST_START_S)
        self.relayed_bytes = 0
        self.deltas = {False: [], True: []}

    def stop(self) -> Dict[str, float]:
        try:
            self.last_stats = self.child.command("STATS")
        finally:
            rusage = self.child.finish()
            self.origin.close()
        return {"peak_rss_mb": rusage.ru_maxrss / 1024.0}

    @contextmanager
    def observed(self, i: int, traced: bool):
        """The proxy's counters around op ``i``; its ``Shaper`` is traced
        only while a traced op runs."""
        before = self.child.command("TRACE ON" if traced else "STATS")
        sent = self.relayed_bytes
        yield
        after = self.child.command("TRACE OFF" if traced else "STATS")
        delta = {k: after[k] - before[k]
                 for k in ("cpu_s", "shaper_s", "decisions", "bursts")}
        delta.update(op=i, mb=(self.relayed_bytes - sent) / 1e6)
        self.deltas[traced].append(delta)

    def op(self, inp: ProxyInput) -> Relayed:
        self.origin.offer(inp)
        request = (f"GET http://127.0.0.1:{self.origin.port}{inp.path} "
                   f"HTTP/1.1\r\nHost: 127.0.0.1:{self.origin.port}\r\n\r\n"
                   ).encode("latin-1")
        t0 = perf_counter()
        deadline = t0 + OP_LIMIT_S
        with socket.create_connection(("127.0.0.1", self.child.port),
                                      timeout=OP_LIMIT_S) as sock:
            sock.sendall(request)
            data = bytearray()
            while (end := data.find(b"\r\n\r\n")) < 0:
                data += recv(sock, deadline)
            t_head = perf_counter()
            chunks = [bytes(data[end + 4:])]
            if not chunks[0]:
                chunks[0] = recv(sock, deadline)
            t_first = perf_counter()
            while chunk := recv(sock, deadline, eof_ok=True):
                chunks.append(chunk)
            t_end = perf_counter()
        self.relayed_bytes += sum(map(len, chunks))
        out = Relayed(bytes(data[:end + 4]), b"".join(chunks))
        if self.tracer is not None:
            self.tracer.add("proxy.head", t0, t_head)
            self.tracer.add("proxy.body_wait", t_head, t_first)
            self.tracer.add("proxy.transfer", t_first, t_end)
        return out

    def check(self, inp: ProxyInput, out: Relayed) -> Optional[str]:
        if hashlib.sha256(out.body).hexdigest() != inp.sha256:
            return (f"body sha256 differs from the origin's "
                    f"({len(out.body)} of {len(inp.body)} bytes)")
        try:
            resp = mediahttp.parse_response(out.head)
        except mediahttp.ProtocolError as exc:
            return f"relayed head does not parse: {exc}"
        if resp.status != 200 or resp.stream_info.render() != inp.info:
            return "relayed head lost the origin's X-Stream-Info"
        return None

    def payload(self, inp, out: Relayed) -> int:
        return len(out.body)

    def digest(self, out: Relayed) -> bytes:
        return hashlib.sha256(out.body).digest()

    def layer_metrics(self, tracer, base, traced) -> Dict[str, float]:
        per_op: Dict[int, Dict[str, float]] = {}
        for span in tracer.spans:
            if span[tracing.NAME].startswith("proxy."):
                per_op.setdefault(span[tracing.OP], {})[span[tracing.NAME]] = \
                    span[tracing.BUSY] * traced.speed[span[tracing.OP]]

        def total(key, with_trace, speed=None):
            return sum(d[key] * speed[d["op"]] if speed else d[key]
                       for d in self.deltas[with_trace])

        def p50_ms(*names):
            return float(np.median([sum(op[n] for n in names)
                                    for op in per_op.values()])) * 1e3
        stats = self.last_stats
        return {
            "proxy.ttfb_ms.p50": p50_ms("proxy.head", "proxy.body_wait"),
            "proxy.head_ms.p50": p50_ms("proxy.head"),
            "proxy.body_wait_ms.p50": p50_ms("proxy.body_wait"),
            "proxy.transfer_ms.p50": p50_ms("proxy.transfer"),
            "proxy.cpu_ms_per_mb": total("cpu_s", False, base.speed) * 1e3 /
            total("mb", False),
            "proxy.rss_mb_end": stats["rss_mb"],
            "proxy.threads_end": stats["threads"],
            "proxy.sessions_retained": stats["sessions"],
            "shaper.s": total("shaper_s", True, traced.speed),
            "shaper.decisions": total("decisions", True),
            "shaper.bursts": total("bursts", True),
        }


def recv(sock: socket.socket, deadline: float, eof_ok: bool = False) -> bytes:
    left = deadline - perf_counter()
    if left <= 0:
        raise TimeoutError(f"stream not finished within {OP_LIMIT_S} s")
    sock.settimeout(left)
    chunk = sock.recv(RECV_BYTES)
    if not chunk and not eof_ok:
        raise ConnectionError("proxy closed the stream early")
    return chunk


WORKLOADS = {w.name: w for w in (Sessions, Sweep, ProxyRelay)}
