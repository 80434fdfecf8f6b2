"""Live HTTP forward proxy that delivers the origin stream in shaped bursts.

One thread per client session. The proxy fetches the origin response, relays
the head, forwards a Fast Start's worth of content unshaped, and thereafter
writes bursts of the shaper-chosen size at full socket speed. Flow-control
feedback comes from socket backpressure: sustained blocked writes stand in
for a zero-window advertisement, and the byte count accepted up to that
point is the SentBytes estimate of the client's buffer. The shaper and
profiler driving those decisions are the same state machines the simulation
uses, so a feedback sequence produces the identical decision trace.

Raw ACK capture would need privileged packet access; backpressure sensing
needs none and provides the same two facts (buffer full, bytes accepted).
"""

from __future__ import annotations

import http.client
import logging
import select
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple
from urllib.parse import urlsplit

from .profiler import BurstObservation, TrafficProfiler
from .shaper import Phase, Shaper, StreamSpec

log = logging.getLogger(__name__)


@dataclass
class SessionConfig:
    listen: Tuple[str, int] = ("127.0.0.1", 8800)
    origin: Optional[str] = None          # override, e.g. http://host:port
    fast_start_seconds: float = 20.0
    granularity_s: float = 1.0
    rate_override_bps: Optional[float] = None
    log_path: Optional[str] = None
    profile_tag: str = ""                 # reporting only
    backpressure_s: float = 0.5
    chunk_bytes: int = 65536
    sndbuf_bytes: Optional[int] = None    # client-facing send buffer
    low_bw_chunk_s: float = 0.25

    def __post_init__(self) -> None:
        if self.fast_start_seconds <= 0:
            raise ValueError("fast_start_seconds must be > 0")


class _OriginFeed(threading.Thread):
    """Pulls the origin body into a bounded buffer on its own thread."""

    def __init__(self, response, limit_bytes=32 * 1024 * 1024):
        super().__init__(daemon=True)
        self.response = response
        self.limit = limit_bytes
        self.buf = bytearray()
        self.total_read = 0
        self.done = False
        self.cv = threading.Condition()
        self._samples: List[Tuple[float, int]] = [(time.monotonic(), 0)]

    def run(self) -> None:
        try:
            while True:
                chunk = self.response.read(65536)
                with self.cv:
                    if chunk:
                        self.buf.extend(chunk)
                        self.total_read += len(chunk)
                        self._samples.append((time.monotonic(),
                                              self.total_read))
                        if len(self._samples) > 64:
                            del self._samples[:32]
                    else:
                        self.done = True
                    self.cv.notify_all()
                    if not chunk:
                        return
                    while len(self.buf) >= self.limit and not self.done:
                        self.cv.wait(0.1)
        except Exception:
            with self.cv:
                self.done = True
                self.cv.notify_all()

    def take(self, nbytes: int, timeout: float) -> bytes:
        """Up to ``nbytes`` from the buffer, waiting for data or stream end."""
        deadline = time.monotonic() + timeout
        with self.cv:
            while len(self.buf) < nbytes and not self.done:
                left = deadline - time.monotonic()
                if left <= 0:
                    break
                self.cv.wait(min(left, 0.1))
            take = min(nbytes, len(self.buf))
            out = bytes(self.buf[:take])
            del self.buf[:take]
            self.cv.notify_all()
            return out

    def available(self) -> int:
        with self.cv:
            return len(self.buf)

    def finished(self) -> bool:
        with self.cv:
            return self.done and not self.buf

    def fill_rate_bps(self, window_s: float = 2.0) -> Optional[float]:
        """Recent origin supply rate; None once the origin is fully read
        (it is no longer the bottleneck then)."""
        with self.cv:
            if self.done:
                return None
            now = time.monotonic()
            past = [(t, n) for (t, n) in self._samples
                    if now - t >= window_s * 0.5]
            if not past:
                return None
            t0, n0 = past[-1]
            if now - t0 <= 0:
                return None
            return (self.total_read - n0) * 8.0 / (now - t0)


@dataclass
class _WriteResult:
    accepted: int
    zwa: bool
    accepted_at_zwa: Optional[int]
    start: float
    end: float


class _BackpressureWriter:
    """Non-blocking writes with leaky blocked-time accounting.

    Time spent waiting for writability accumulates; each accepted byte
    credits back the time it would take at a healthy reference rate (a
    multiple of the encoding rate). A socket draining only at the encoding
    rate therefore accumulates past ``threshold_s`` and is treated as the
    client's buffer being full; the bytes accepted up to that point are the
    SentBytes estimate. A plain consecutive-block detector would miss this,
    because the kernel keeps accepting dribbles as the receiver drains.
    """

    def __init__(self, sock: socket.socket, threshold_s: float,
                 credit_bps: float):
        self.sock = sock
        self.threshold_s = threshold_s
        self.credit_bps = credit_bps
        sock.setblocking(False)

    def write_burst(self, data: bytes, abort_on_zwa: bool = True,
                    stop: Optional[threading.Event] = None) -> _WriteResult:
        view = memoryview(data)
        sent = 0
        blocked = 0.0
        zwa = False
        zwa_at: Optional[int] = None
        start = time.monotonic()
        while sent < len(view):
            if stop is not None and stop.is_set():
                break
            try:
                n = self.sock.send(view[sent:])
            except (BlockingIOError, InterruptedError):
                n = 0
            except OSError:
                raise
            if n > 0:
                sent += n
                blocked = max(0.0, blocked - n * 8.0 / self.credit_bps)
                continue
            t0 = time.monotonic()
            select.select([], [self.sock], [], 0.05)
            blocked += time.monotonic() - t0
            if blocked >= self.threshold_s:
                if not zwa:
                    zwa = True
                    zwa_at = sent
                if abort_on_zwa:
                    break
                blocked = 0.0
        return _WriteResult(sent, zwa, zwa_at, start, time.monotonic())


class ProxyError(RuntimeError):
    pass


class ShapingProxy:
    """Forward proxy applying burst shaping per client session."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self._listener: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self.sessions: List[dict] = []   # per-session report dicts
        self._lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        self._listener = socket.create_server(self.config.listen)
        self._listener.settimeout(0.2)
        t = threading.Thread(target=self._accept_loop, daemon=True)
        t.start()
        self._threads.append(t)
        return self._listener.getsockname()[:2]

    def serve_forever(self) -> None:
        """Serve until closed, starting the listener unless ``start()``
        already opened it."""
        if self._listener is None:
            self.start()
        try:
            while not self._stop.is_set():
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self) -> None:
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for t in self._threads:
            t.join(timeout=2.0)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            t = threading.Thread(target=self._session_guard,
                                 args=(conn, addr), daemon=True)
            t.start()
            self._threads.append(t)

    def _session_guard(self, conn: socket.socket, addr) -> None:
        try:
            self._run_session(conn, addr)
        except Exception as exc:              # session isolation
            log.warning("session %s failed: %s", addr, exc)
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # -- per-session machinery ---------------------------------------------

    def _read_request_head(self, conn: socket.socket) -> str:
        conn.settimeout(10.0)
        data = b""
        while b"\r\n\r\n" not in data and b"\n\n" not in data:
            chunk = conn.recv(4096)
            if not chunk:
                raise ProxyError("client closed before sending a request")
            data += chunk
            if len(data) > 65536:
                raise ProxyError("request head too large")
        return data.decode("latin-1")

    def _resolve_origin(self, head: str) -> Tuple[str, int, str]:
        request_line = head.split("\r\n", 1)[0].split("\n", 1)[0]
        parts = request_line.split(" ")
        if len(parts) < 3 or parts[0] != "GET":
            raise ProxyError(f"unsupported request: {request_line!r}")
        target = parts[1]
        if self.config.origin:
            base = urlsplit(self.config.origin)
            path = target if target.startswith("/") else \
                (urlsplit(target).path or "/")
            return base.hostname, base.port or 80, path
        if target.startswith("http://"):
            split = urlsplit(target)
            return split.hostname, split.port or 80, split.path or "/"
        # relative target: use the Host header
        for line in head.split("\n"):
            if line.lower().startswith("host:"):
                host = line.split(":", 1)[1].strip()
                port = 80
                if ":" in host:
                    host, port_s = host.rsplit(":", 1)
                    port = int(port_s)
                return host, port, target
        raise ProxyError("cannot resolve origin (no override, absolute "
                         "URI, or Host header)")

    def _discover_rate(self, response) -> float:
        """Encoding rate: X-Stream-Info bitrate, else the override, else
        content length over declared duration."""
        info = response.getheader("X-Stream-Info")
        duration = None
        if info:
            for item in info.split(";"):
                item = item.strip()
                if item.startswith("bitrate="):
                    return float(item.split("=", 1)[1])
                if item.startswith("duration="):
                    duration = float(item.split("=", 1)[1])
        if self.config.rate_override_bps:
            return self.config.rate_override_bps
        length = response.getheader("Content-Length")
        if duration and length and duration > 0:
            return float(length) * 8.0 / duration
        raise ProxyError("origin does not declare a bitrate and no "
                         "--rate-override-bps given")

    def _run_session(self, conn: socket.socket, addr) -> None:
        cfg = self.config
        if cfg.sndbuf_bytes:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                            cfg.sndbuf_bytes)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        head = self._read_request_head(conn)
        host, port, path = self._resolve_origin(head)

        origin = http.client.HTTPConnection(host, port, timeout=30)
        origin.request("GET", path)
        response = origin.getresponse()
        if response.status != 200:
            conn.sendall(f"HTTP/1.1 {response.status} "
                         f"{response.reason}\r\n\r\n".encode())
            return
        r_s = self._discover_rate(response)

        head_lines = [f"HTTP/1.1 {response.status} {response.reason}"]
        for name, value in response.getheaders():
            if name.lower() not in ("transfer-encoding", "connection"):
                head_lines.append(f"{name}: {value}")
        head_lines.append("Connection: close")
        conn.sendall(("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1"))

        total_length = response.getheader("Content-Length")
        feed = _OriginFeed(response)
        feed.start()
        writer = _BackpressureWriter(conn, cfg.backpressure_s,
                                     credit_bps=4.0 * r_s)
        stream = StreamSpec.single(
            r_s, duration_s=(float(total_length) * 8 / r_s
                             if total_length else 1e9),
            fast_start_s=cfg.fast_start_seconds)
        shaper = Shaper(stream, cfg.granularity_s)
        profiler = TrafficProfiler()
        report = {"addr": addr, "r_s": r_s, "rows": [], "shaper": shaper}
        with self._lock:
            self.sessions.append(report)

        try:
            self._shape_stream(conn, writer, feed, shaper, profiler, r_s)
        except (BrokenPipeError, ConnectionResetError):
            log.info("client %s disconnected", addr)
        finally:
            report["rows"] = list(shaper.burst_log)
            self._flush_log(shaper)
            try:
                origin.close()
            except OSError:
                pass

    def _observe(self, profiler: TrafficProfiler, size: int, sent_cum: int,
                 wr: _WriteResult) -> BurstObservation:
        obs = profiler.begin_burst(size, sent_cum, wr.start)
        obs.first_ack_s = wr.start
        obs.last_ack_s = wr.end
        obs.acked_bytes = wr.accepted
        obs.complete = wr.accepted >= size
        if wr.zwa:
            obs.zwa_seen = True
            obs.zwa_time_s = wr.end
            obs.sent_bytes_at_first_zwa = wr.accepted_at_zwa
        return profiler.finish_burst()

    def _shape_stream(self, conn, writer, feed, shaper, profiler,
                      r_s: float) -> None:
        cfg = self.config
        sent_cum = 0
        t_session0 = time.monotonic()

        def runway() -> float:
            return sent_cum * 8.0 / r_s - (time.monotonic() - t_session0)

        # Fast Start: forward unshaped
        fs_bytes = int(cfg.fast_start_seconds * r_s / 8)
        fs_data = feed.take(fs_bytes, timeout=max(fs_bytes * 8 / r_s, 10.0))
        wr = writer.write_burst(fs_data, abort_on_zwa=True, stop=self._stop)
        sent_cum += wr.accepted
        obs = self._observe(profiler, len(fs_data), 0, wr)
        shaper.record_sent(wr.accepted)
        if obs.zwa_seen:
            shaper.fast_start_zwa(obs.sent_bytes_at_first_zwa)
        elif wr.accepted > 0:
            shaper.end_fast_start(wr.accepted)
        else:
            raise ProxyError("fast start delivered nothing")
        shaper.log_burst(obs.burst_id, 0.0, wr.accepted, obs.zwa_seen)

        pending = b""
        last_burst_start = t_session0
        while not self._stop.is_set():
            if feed.finished() and not pending:
                break
            if shaper.phase is Phase.LOW_BANDWIDTH:
                chunk_target = int(cfg.low_bw_chunk_s * r_s / 8)
                data = pending or feed.take(chunk_target, timeout=1.0)
                pending = b""
                if not data:
                    if feed.finished():
                        break
                    shaper.on_bandwidth_change(feed.fill_rate_bps() or 0.0,
                                               runway())
                    continue
                wr = writer.write_burst(data, abort_on_zwa=False,
                                        stop=self._stop)
                sent_cum += wr.accepted
                shaper.record_sent(wr.accepted)
                wall = max(wr.end - wr.start, 1e-6)
                est = wr.accepted * 8.0 / wall
                fill = feed.fill_rate_bps()
                if fill is not None:
                    est = min(est, fill) if fill > 0 else est
                shaper.on_bandwidth_change(est, runway())
                continue

            t = shaper.state.t_s or cfg.granularity_s
            target = max(int(shaper.next_burst_bytes(len(pending))), 1)
            # no pipelining: one burst at a time, scheduled T after the last
            wake = last_burst_start + t
            delay = wake - time.monotonic()
            if delay > 0 and self._stop.wait(timeout=delay):
                break
            need = max(target - len(pending), 0)
            data = pending + feed.take(need, timeout=max(t, 1.0))
            pending = b""
            if not data:
                if feed.finished():
                    break
                # origin starving the buffer: continuous-send fallback
                shaper.on_bandwidth_change((feed.fill_rate_bps() or 0.0),
                                           runway())
                continue
            last_burst_start = time.monotonic()
            wr = writer.write_burst(data, abort_on_zwa=True, stop=self._stop)
            sent_cum += wr.accepted
            pending = bytes(data[wr.accepted:])
            obs = self._observe(profiler, len(data), sent_cum - wr.accepted,
                                wr)
            shaper.record_sent(wr.accepted)
            shaper.log_burst(obs.burst_id, t, wr.accepted, obs.zwa_seen)
            shaper.on_burst_feedback(obs)
            wall = max(wr.end - wr.start, 1e-6)
            est = wr.accepted * 8.0 / wall
            fill = feed.fill_rate_bps()
            if fill is not None and fill > 0:
                # end-to-end bandwidth is capped by the origin supply too
                est = min(est, fill)
            shaper.on_bandwidth_change(est, runway())
        # final drain so the client sees the whole stream
        if pending and not self._stop.is_set():
            writer.write_burst(pending, abort_on_zwa=False, stop=self._stop)

    def _flush_log(self, shaper: Shaper) -> None:
        if not self.config.log_path:
            return
        path = Path(self.config.log_path)
        with self._lock:
            new_file = not path.exists() or path.stat().st_size == 0
            with path.open("a") as fh:
                if new_file:
                    fh.write(Shaper.BURST_LOG_HEADER + "\n")
                for row in shaper.burst_log:
                    fh.write(row + "\n")
