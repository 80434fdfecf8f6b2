"""Live-proxy tests over loopback sockets.

The quick smoke test stays in the default suite; the convergence and
throttled-origin tests carry the integration marker (run them with
``pytest -m integration``).
"""

import copy
import errno
import hashlib
import http.client
import http.server
import math
import os
import random
import selectors
import socket
import struct
import sys
import threading
import time
import tracemalloc
from contextlib import closing, contextmanager, suppress

import pytest

from burststream import (BandwidthTrace, Phase, QualityLevel, Shaper,
                         SimulatedSession, StreamingClient, StreamSpec)
from burststream import proxy as proxy_module
from burststream.proxy import (SLAB_BYTES, ProxyError, SessionConfig,
                               ShapingProxy, _BackpressureWriter, _SlabBody)
from burststream.shaper import ShapingController


class _Origin(http.server.ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, content_bytes, bitrate_bps, rate_cap_bps=None,
                 truncate_at=None, reset_at=None, stream_info=None,
                 distinct=False, chunked=False):
        self.content_bytes = content_bytes
        self.bitrate_bps = bitrate_bps
        self.rate_cap_bps = rate_cap_bps
        self.truncate_at = truncate_at   # close after this many body bytes
        self.reset_at = reset_at         # the same, by a reset, only once
        self.stream_info = stream_info   # X-Stream-Info, if not the default
        self.distinct = distinct         # a body of distinct bytes
        self.chunked = chunked           # the same, chunked, no length
        self.handler_threads = set()
        self.peer_closed = threading.Event()   # a body write failed
        self.connections = set()               # those not yet closed
        self.connections_lock = threading.Lock()
        super().__init__(("127.0.0.1", 0), _OriginHandler)

    def process_request(self, request, client_address):
        with self.connections_lock:
            self.connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        # under the lock, so that shutdown() never names a descriptor that
        # this close has freed for reuse
        with self.connections_lock:
            self.connections.discard(request)
            super().shutdown_request(request)

    def shutdown(self):
        """Stop serving, end every handler still writing by shutting its
        connection down, and wait up to 5 s for the handlers to end."""
        super().shutdown()
        self.server_close()
        with self.connections_lock:
            for conn in self.connections:
                with suppress(OSError):
                    conn.shutdown(socket.SHUT_RDWR)
        deadline = time.monotonic() + 5.0
        for thread in list(self.handler_threads):
            thread.join(max(deadline - time.monotonic(), 0.0))


class _OriginHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def do_GET(self):
        self.server.handler_threads.add(threading.current_thread())
        total = self.server.content_bytes
        self.send_response(200)
        self.send_header("Content-Type", "video/mp4")
        duration = total * 8 / self.server.bitrate_bps
        info = self.server.stream_info or (
            f"duration={duration:g};"
            f"bitrate={self.server.bitrate_bps:g};seconds=0-")
        self.send_header("X-Stream-Info", info)
        if self.server.chunked:
            self._send_chunked(_distinct_bytes(total))
            return
        self.send_header("Content-Length", str(total))
        self.end_headers()
        if self.server.distinct:
            self.wfile.write(_distinct_bytes(total))
            return
        chunk = b"x" * 65536
        sent = 0
        start = time.monotonic()
        while sent < total:
            if self.server.truncate_at is not None and \
                    sent >= self.server.truncate_at:
                self.close_connection = True
                return
            if self.server.reset_at is not None and \
                    sent >= self.server.reset_at:
                self._reset()
                return
            n = min(len(chunk), total - sent)
            try:
                self.wfile.write(chunk[:n])
            except (BrokenPipeError, ConnectionResetError):
                self.server.peer_closed.set()
                return
            sent += n
            if self.server.rate_cap_bps:
                should_take = sent * 8 / self.server.rate_cap_bps
                sleep = should_take - (time.monotonic() - start)
                if sleep > 0:
                    time.sleep(sleep)

    def _send_chunked(self, body, chunk_bytes=10007):
        """``body`` in chunks whose edges fall inside the proxy's reads."""
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        for i in range(0, len(body), chunk_bytes):
            piece = body[i:i + chunk_bytes]
            self.wfile.write(b"%x\r\n%s\r\n" % (len(piece), piece))
        self.wfile.write(b"0\r\n\r\n")

    def _reset(self):
        """Abort the connection with a reset once the proxy has read what
        was sent; later requests are served whole."""
        self.server.reset_at = None
        self.close_connection = True
        time.sleep(0.3)
        self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                   struct.pack("ii", 1, 0))
        self.rfile.close()        # the socket closes with its last file
        self.connection.close()


def _distinct_bytes(n):
    """``n`` seeded random bytes: a byte moved, lost or zeroed changes
    them."""
    return random.Random(n).randbytes(n)


class _DrainingReader(threading.Thread):
    """Client that reads into a bounded app buffer drained at a fixed rate,
    emulating a player with limited combined buffer space."""

    def __init__(self, sock, buffer_cap_bytes, drain_bps):
        super().__init__(daemon=True)
        self.sock = sock
        self.cap = buffer_cap_bytes
        self.drain_bytes_per_s = drain_bps / 8.0
        self.buffered = 0.0
        self.total = 0
        self.done = False

    def run(self):
        self.sock.settimeout(0.05)
        last = time.monotonic()
        while not self.done:
            now = time.monotonic()
            self.buffered = max(0.0, self.buffered -
                                (now - last) * self.drain_bytes_per_s)
            last = now
            room = self.cap - self.buffered
            if room < 4096:
                time.sleep(0.01)
                continue
            try:
                data = self.sock.recv(min(65536, int(room)))
            except socket.timeout:
                continue
            except OSError:
                return
            if not data:
                return
            self.buffered += len(data)
            self.total += len(data)


def _drive(steps):
    """Run ``steps``, a session step, to its end on real time, making each
    wait it yields; return its value."""
    answer = None
    while True:
        try:
            wait = steps.send(answer)
        except StopIteration as stop:
            return stop.value
        with selectors.DefaultSelector() as selector:
            if wait.fd >= 0:
                selector.register(wait.fd, selectors.EVENT_WRITE
                                  if wait.writable else selectors.EVENT_READ)
            answer = bool(selector.select(
                max(wait.deadline - time.monotonic(), 0.0)))


def _start_proxy(origin, **cfg_kw):
    origin_addr = f"http://127.0.0.1:{origin.server_address[1]}"
    config = SessionConfig(listen=("127.0.0.1", 0), origin=origin_addr,
                           **cfg_kw)
    proxy = ShapingProxy(config)
    host, port = proxy.start()
    return proxy, (host, port)


def _connect(addr, rcvbuf=None):
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if rcvbuf:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.connect(addr)
    sock.sendall(b"GET /stream HTTP/1.1\r\nHost: x\r\n\r\n")
    return sock


def _read_head(sock):
    data = b""
    sock.settimeout(10.0)
    while b"\r\n\r\n" not in data:
        data += sock.recv(4096)
    head, _, rest = data.partition(b"\r\n\r\n")
    return head.decode(), rest


class _Headers:
    """An origin response head, with the length the proxy reads from its
    ``Content-Length``."""

    chunked = False

    def __init__(self, **headers):
        self.headers = {k.replace("_", "-"): v for k, v in headers.items()}
        length = self.headers.get("Content-Length")
        self.length = None if length is None else int(length)

    def getheader(self, name):
        return self.headers.get(name)


# stream infos whose rate is not > 0 and finite: the last one's is the
# length over an endless duration
UNUSABLE_RATES = ["duration=8;bitrate=0", "duration=8;bitrate=nan",
                  "duration=8;bitrate=-5", "duration=8;bitrate=inf",
                  "duration=8;bitrate=1e308",
                  "duration=inf;seconds=0-"]


class TestRateDiscovery:
    @pytest.mark.parametrize("info,override,expected", [
        ("duration=80;bitrate=500000;seconds=0-", 2e6, 5e5),  # bitrate first
        ("duration=80;seconds=0-", 2e6, 2e6),                  # then override
        ("duration=80;seconds=0-", None, 1e6),                 # then L/d
        (None, 3e5, 3e5),
    ])
    def test_rules_in_order(self, info, override, expected):
        # 10 MB over 80 s is 1 Mbit/s
        response = _Headers(X_Stream_Info=info, Content_Length="10000000")
        proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0),
                                           rate_override_bps=override))
        assert proxy._discover_rate(response) == pytest.approx(expected)

    def test_no_rate_information_rejected(self):
        proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0)))
        with pytest.raises(ProxyError):
            proxy._discover_rate(_Headers())

    @pytest.mark.parametrize("info", ["duration=80;garbage;seconds=0-",
                                      "duration=eighty",
                                      "bitrate=fast",
                                      *UNUSABLE_RATES])
    def test_malformed_header_rejected(self, info):
        response = _Headers(X_Stream_Info=info, Content_Length="10000000")
        proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0)))
        with pytest.raises(ProxyError):
            proxy._discover_rate(response)


class TestRequestHead:
    @staticmethod
    def _read_head(sent: bytes, pace_s: float = 0.0, step: int = 1 << 20):
        proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0)))
        ours, theirs = socket.socketpair()

        def client():
            try:
                for i in range(0, len(sent), step):
                    theirs.sendall(sent[i:i + step])
                    time.sleep(pace_s)
            except OSError:
                pass            # the proxy hung up on an oversized head

        writer = threading.Thread(target=client, daemon=True)
        writer.start()
        ours.setblocking(False)
        try:
            return _drive(proxy._read_request_head(ours))
        finally:
            ours.close()
            writer.join(timeout=10.0)
            theirs.close()

    @pytest.mark.parametrize("head", [
        b"GET /a HTTP/1.1\r\nHost: origin:81\r\n\r\n",
        b"GET /a HTTP/1.0\n\n"])
    def test_head_sent_one_byte_at_a_time(self, head):
        # every terminator arrives split over several reads
        assert self._read_head(head, pace_s=0.001, step=1) == \
            head.decode("latin-1")

    def test_bytes_after_the_head_are_dropped(self):
        head = b"GET /a HTTP/1.1\r\nHost: origin:81\r\n\r\n"
        later = b"GET /b HTTP/1.1\r\nRange: seconds=5-\r\n\r\n"
        assert self._read_head(head + later) == head.decode("latin-1")

    def test_oversized_head_rejected(self):
        head = b"GET /a HTTP/1.1\r\nX-Pad: " + b"p" * 70000 + b"\r\n\r\n"
        with pytest.raises(ProxyError, match="too large"):
            self._read_head(head, step=8192)

    def test_trickled_head_times_out(self, monkeypatch):
        # one byte every 0.2 s keeps each read inside any per-read timeout;
        # the deadline over the whole head still ends it, with a 408, and
        # the session adds no thread
        monkeypatch.setattr(proxy_module, "HEAD_TIMEOUT_S", 0.5)
        proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0)))
        addr = proxy.start()
        baseline = threading.active_count()
        try:
            with socket.create_connection(addr, timeout=5.0) as sock:
                sock.settimeout(0.2)
                t0 = time.monotonic()
                reply = b""
                for byte in b"GET /a HTTP/1.1\r\nHost: 127.0.0.1:9\r\n":
                    with suppress(OSError):     # the proxy has hung up
                        sock.send(bytes([byte]))
                    try:
                        data = sock.recv(4096)
                    except socket.timeout:
                        continue
                    if not data:
                        break
                    reply += data
                elapsed = time.monotonic() - t0
            assert reply == _bare_status(b"408 Request Timeout")
            assert elapsed < 1.5
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and \
                    threading.active_count() != baseline:
                time.sleep(0.01)
            assert threading.active_count() == baseline
        finally:
            proxy.close()


class TestResolveOrigin:
    @pytest.mark.parametrize("head,origin", [
        ("GET /a HTTP/1.1\r\nHost: origin:81\r\n\r\n", ("origin", 81, "/a")),
        ("GET /a HTTP/1.1\r\nHost: origin\r\n\r\n", ("origin", 80, "/a")),
        ("GET /a HTTP/1.1\r\nHost: [::1]\r\n\r\n", ("::1", 80, "/a")),
        ("GET /a HTTP/1.1\r\nHost: [::1]:81\r\n\r\n", ("::1", 81, "/a")),
        ("GET http://origin:81/a HTTP/1.1\r\n\r\n", ("origin", 81, "/a")),
        ("GET http://[::1]/a HTTP/1.1\r\nHost: x:1\r\n\r\n",
         ("::1", 80, "/a")),
        # whitespace before a colon inside a field value is no fault
        ("GET /a HTTP/1.1\r\nX-Note: a :b\r\nHost: origin\r\n\r\n",
         ("origin", 80, "/a")),
    ])
    def test_from_absolute_target_else_host_header(self, head, origin):
        proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0)))
        assert proxy._resolve_origin(head) == origin

    @pytest.mark.parametrize("override", [None, "http://o.example:81"])
    @pytest.mark.parametrize("target", ["/a", "http://good.example/a"])
    def test_more_than_one_host_is_a_bad_request(self, override, target):
        proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0),
                                           origin=override))
        head = (f"GET {target} HTTP/1.1\r\nHost: good.example\r\n"
                f"Host: evil.example:81\r\n\r\n")
        with pytest.raises(ProxyError) as caught:
            proxy._resolve_origin(head)
        assert caught.value.status == 400

    @pytest.mark.parametrize("override", [None, "http://o.example:81"])
    @pytest.mark.parametrize("lines", [
        "Host: good.example\r\nRange: seconds=1\r\n 0-",
        "Host: good.example\r\nRange: seconds=1\r\n\t0-",
        "\tHost: good.example",
        "Host: good.example\r\nHost : evil.example:80",
        "Host\t: evil.example:80",
    ], ids=["fold-sp", "fold-htab", "fold-first-line", "sp-before-colon",
            "htab-before-colon"])
    def test_folded_line_or_space_before_colon_is_a_bad_request(
            self, override, lines):
        # a prefix match read ``Range: seconds=1`` off the folded Range
        # and let ``Host :`` past the one-Host rule
        proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0),
                                           origin=override))
        head = f"GET http://good.example/a HTTP/1.1\r\n{lines}\r\n\r\n"
        with pytest.raises(ProxyError) as caught:
            proxy._resolve_origin(head)
        assert caught.value.status == 400

    @pytest.mark.parametrize("override", [None, "http://o.example:81"])
    @pytest.mark.parametrize("target", ["http://h.example:8080/v?q=1",
                                        "/v?q=1"])
    def test_query_string_kept(self, override, target):
        proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0),
                                           origin=override))
        head = f"GET {target} HTTP/1.1\r\nHost: h.example:8080\r\n\r\n"
        host, port, path = proxy._resolve_origin(head)
        assert path == "/v?q=1"
        assert (host, port) == (("o.example", 81) if override
                                else ("h.example", 8080))

    def test_origin_sees_the_query_string(self):
        origin = _serve(_Origin(10_000, 4e6))
        paths = []

        class Recording(_OriginHandler):
            def do_GET(self):
                paths.append(self.path)
                super().do_GET()

        origin.RequestHandlerClass = Recording
        origin_addr = f"127.0.0.1:{origin.server_address[1]}"
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0)
        direct = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0)))
        direct_addr = direct.start()
        try:
            for through, target in (
                    (addr, "/v?q=1"),                           # --origin
                    (addr, f"http://{origin_addr}/v?q=1"),      # --origin
                    (direct_addr, f"http://{origin_addr}/v?q=1")):
                with socket.create_connection(through, timeout=10.0) as sock:
                    sock.sendall(f"GET {target} HTTP/1.1\r\n"
                                 f"Host: {origin_addr}\r\n\r\n".encode())
                    head, first = _read_head(sock)
                    got = len(first)
                    while data := sock.recv(65536):
                        got += len(data)
                assert "200" in head.splitlines()[0]
                assert got == 10_000
        finally:
            proxy.close()
            direct.close()
            origin.shutdown()
        assert paths == ["/v?q=1"] * 3


def _record_controllers(monkeypatch):
    """Record every ``ShapingController`` call as (controller, report,
    shaper state on entry, returned send); the report is None for
    ``start()``."""
    calls = []
    start, report = ShapingController.start, ShapingController.report

    def recording_start(self):
        state = copy.deepcopy(self.shaper.state)
        calls.append((self, None, state, start(self)))
        return calls[-1][3]

    def recording_report(self, rep):
        state = copy.deepcopy(self.shaper.state)
        calls.append((self, rep, state, report(self, rep)))
        return calls[-1][3]

    monkeypatch.setattr(ShapingController, "start", recording_start)
    monkeypatch.setattr(ShapingController, "report", recording_report)
    return calls


def _assert_replays(monkeypatch, calls, shaper, controller_kw):
    """Feed the recorded reports into a fresh controller over a fresh
    shaper: the shaper state before each call, the sends and every log
    must come out equal. A transport that changes the shaper other than
    through its controller fails here."""
    monkeypatch.undo()          # replay unrecorded
    assert all(ctl.shaper is shaper for ctl, _, _, _ in calls)
    fresh = Shaper(shaper.stream, shaper.granularity_s)
    controller = ShapingController(fresh, **controller_kw)
    for step, (_, rep, state, send) in enumerate(calls):
        assert fresh.state == state, f"shaper changed before call {step}"
        replayed = controller.start() if rep is None else \
            controller.report(rep)
        assert replayed == send, f"call {step}"
    assert fresh.decision_log == shaper.decision_log
    assert fresh.burst_log == shaper.burst_log
    assert fresh.state == shaper.state


class TestSharedCore:
    """The simulation and the proxy are transports around one
    ``ShapingController``: their recorded reports replay into a fresh
    controller with equal sends, decisions and burst rows."""

    def test_simulated_session_replays(self, monkeypatch):
        calls = _record_controllers(monkeypatch)
        ladder = tuple(QualityLevel(r * 1000) for r in
                       (700, 1200, 1500, 2000, 2500, 3000))
        stream = StreamSpec(ladder, duration_s=600.0, fast_start_s=30.0)
        client = StreamingClient(12_000_000, 700e3, 16e6,
                                 content_duration_s=600.0)
        bw = BandwidthTrace(((0.0, 3.2e6), (150.0, 0.5e6), (250.0, 3.2e6)))
        res = SimulatedSession(stream, client, bw, session_length_s=500.0,
                               adaptive=True, low_bw_chunk_s=1.0).run()
        # the session covers every branch of the loop
        kinds = {d.split()[0] for d in res.decision_log}
        assert {"search_step", "search_t_max", "quality_switch",
                "bandwidth_low", "bandwidth_recovered"} <= kinds
        _assert_replays(monkeypatch, calls, res.shaper,
                        dict(low_bw_chunk_s=1.0, adaptive=True))

    def test_proxy_session_replays(self, monkeypatch):
        calls = _record_controllers(monkeypatch)
        total = int(2 * 4e6 / 8)
        origin = _Origin(total, 4e6)
        threading.Thread(target=origin.serve_forever, daemon=True).start()
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0,
                                   granularity_s=0.5)
        try:
            with _connect(addr) as sock:
                _, first = _read_head(sock)
                got = len(first)
                while data := sock.recv(65536):
                    got += len(data)
            assert got == total
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and \
                    not (proxy.sessions and proxy.sessions[0]["rows"]):
                time.sleep(0.05)
            shaper = proxy.sessions[0]["shaper"]
        finally:
            proxy.close()
            origin.shutdown()
        assert len(calls) > 2 and shaper.burst_log
        _assert_replays(monkeypatch, calls, shaper,
                        dict(low_bw_chunk_s=proxy.config.low_bw_chunk_s))


class TestProxySmoke:
    def test_fast_client_reaches_t_max(self):
        # 4 Mbit/s stream, 1 s fast start, 4 s of content: searching tops
        # out quickly and the client sees every byte
        total = int(4 * 4e6 / 8)
        origin = _Origin(total, 4e6)
        threading.Thread(target=origin.serve_forever, daemon=True).start()
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0,
                                   granularity_s=0.5)
        try:
            sock = _connect(addr)
            head, first = _read_head(sock)
            assert "200" in head.splitlines()[0]
            assert "X-Stream-Info" in head
            got = len(first)
            sock.settimeout(15.0)
            while got < total:
                data = sock.recv(65536)
                if not data:
                    break
                got += len(data)
            assert got == total
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and not proxy.sessions:
                time.sleep(0.05)
            shaper = proxy.sessions[0]["shaper"]
            assert shaper.phase is Phase.STEADY
            assert shaper.state.bs_opt_bytes == pytest.approx(
                shaper.state.t_max_s * 4e6 / 8, rel=1e-6)
            assert all(row.split(",")[4] == "0"
                       for row in shaper.burst_log)
            sock.close()
        finally:
            proxy.close()
            origin.shutdown()

    def test_serve_forever_after_start_serves_the_started_port(self):
        proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0)))
        addr = proxy.start()
        server = threading.Thread(target=proxy.serve_forever, daemon=True)
        server.start()
        # outlast the accept loop's 0.2 s poll, so that a listener rebound
        # by serve_forever would have dropped the started one by now
        time.sleep(0.6)
        try:
            with socket.create_connection(addr, timeout=5.0) as sock:
                # an unsupported method: the proxy accepts, rejects the
                # request without contacting any origin, and hangs up
                sock.sendall(b"BREW /pot HTTP/1.1\r\n\r\n")
                sock.settimeout(5.0)
                reply = b""
                while data := sock.recv(1024):
                    reply += data
                assert reply == (b"HTTP/1.1 501 Not Implemented\r\n"
                                 b"Content-Length: 0\r\n"
                                 b"Connection: close\r\n\r\n")
        finally:
            proxy.close()
            server.join(timeout=5.0)
        assert not server.is_alive()

    def test_stream_inside_fast_start_ends_with_it(self):
        # 1000004 bytes at 300 kbit/s: the content left, counted in
        # seconds of play, comes to 1000003.9999... bytes; the Fast Start
        # must still carry the last byte instead of leaving it for a
        # burst half of t_max (13 s) later
        total = 1_000_004
        origin = _Origin(total, 300e3)
        threading.Thread(target=origin.serve_forever, daemon=True).start()
        proxy, addr = _start_proxy(origin, fast_start_seconds=60.0)
        try:
            with _connect(addr) as sock:
                _, first = _read_head(sock)
                got = len(first)
                sock.settimeout(5.0)
                while data := sock.recv(65536):
                    got += len(data)
            assert got == total
        finally:
            proxy.close()
            origin.shutdown()

    def test_truncated_origin_is_reported(self):
        # the origin declares 400 kB and hangs up after 128 kB: the client
        # sees the short body end, and the session report keeps the error
        total = 400_000
        origin = _Origin(total, 4e6, truncate_at=131072)
        threading.Thread(target=origin.serve_forever, daemon=True).start()
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0)
        try:
            with _connect(addr) as sock:
                _, first = _read_head(sock)
                got = len(first)
                while data := sock.recv(65536):
                    got += len(data)
            assert got == 131072
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and \
                    not (proxy.sessions and
                         "origin_error" in proxy.sessions[0]):
                time.sleep(0.05)
            error = proxy.sessions[0]["origin_error"]
            assert isinstance(error, http.client.IncompleteRead)
            assert error.expected == total - 131072
        finally:
            proxy.close()
            origin.shutdown()

    def test_finished_session_threads_are_dropped(self):
        total = 100_000               # fits in the Fast Start
        origin = _Origin(total, 4e6)
        threading.Thread(target=origin.serve_forever, daemon=True).start()
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0)
        baseline = threading.active_count()
        try:
            for _ in range(10):
                with _connect(addr) as sock:
                    _, first = _read_head(sock)
                    got = len(first)
                    while data := sock.recv(65536):
                        got += len(data)
                assert got == total
                # the origin's handler thread ends just after it has sent
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline and \
                        threading.active_count() != baseline:
                    time.sleep(0.01)
            # the loop alone: no thread per session
            assert threading.active_count() == baseline
            assert len(proxy.sessions) == 10
        finally:
            proxy.close()
            origin.shutdown()

    def test_concurrent_sessions_leave_no_thread(self):
        # 8 clients at once, 4 times over, on a short switch interval: every
        # session ends, and none leaves a thread behind
        total = 100_000               # fits in the Fast Start
        origin = _serve(_Origin(total, 4e6))
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0)
        baseline = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(4):
                socks = [_connect(addr) for _ in range(8)]
                for sock in socks:
                    with sock:
                        _, first = _read_head(sock)
                        got = len(first)
                        while data := sock.recv(65536):
                            got += len(data)
                    assert got == total
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and \
                    threading.active_count() != baseline:
                time.sleep(0.01)
            assert threading.active_count() == baseline and \
                len(proxy.sessions) == 32
        finally:
            sys.setswitchinterval(interval)
            proxy.close()
            origin.shutdown()

    def test_session_log_written(self, tmp_path):
        total = int(2 * 4e6 / 8)
        origin = _Origin(total, 4e6)
        threading.Thread(target=origin.serve_forever, daemon=True).start()
        log_path = tmp_path / "session.csv"
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0,
                                   granularity_s=0.5,
                                   log_path=str(log_path))
        try:
            sock = _connect(addr)
            _read_head(sock)
            sock.settimeout(10.0)
            while True:
                try:
                    if not sock.recv(65536):
                        break
                except socket.timeout:
                    break
            sock.close()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and \
                    (not log_path.exists() or not log_path.read_text()):
                time.sleep(0.05)
            lines = log_path.read_text().splitlines()
            assert lines[0] == \
                "burst_id,quality_bps,T_s,bytes,zwa,bs_opt_bytes,phase"
            assert len(lines) >= 2
        finally:
            proxy.close()
            origin.shutdown()


def _serve(origin):
    threading.Thread(target=origin.serve_forever, daemon=True).start()
    return origin


def _first_body_bytes(sock, first):
    """The body bytes that came with the head, else the next read's."""
    return first or sock.recv(65536)


class TestOriginPull:
    """The session reads the origin body itself, one send at a time, on
    the loop thread: no thread of its own and no byte limit."""

    def test_origin_reset_mid_body(self):
        # the origin declares 400 kB and resets after 128 kB: the client
        # gets those bytes, the report keeps the reset, and the next
        # session is served whole
        total = 400_000
        origin = _serve(_Origin(total, 4e6, reset_at=131072))
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0)
        try:
            for expected in (131072, total):
                with _connect(addr) as sock:
                    _, first = _read_head(sock)
                    got = len(first)
                    while data := sock.recv(65536):
                        got += len(data)
                assert got == expected
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and not (
                    len(proxy.sessions) == 2 and
                    all("origin_error" in s for s in proxy.sessions)):
                time.sleep(0.05)
            assert isinstance(proxy.sessions[0]["origin_error"],
                              ConnectionResetError)
            assert proxy.sessions[1]["origin_error"] is None
        finally:
            proxy.close()
            origin.shutdown()

    def test_session_adds_no_thread(self):
        # an origin paced at 2 Mbit/s takes 4 s over a 1 MB body, so the
        # session is still reading it when its first bytes arrive
        origin = _serve(_Origin(1_000_000, 1e6, rate_cap_bps=2e6))
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0)
        before = set(threading.enumerate())
        try:
            with _connect(addr) as sock:
                _, first = _read_head(sock)
                assert _first_body_bytes(sock, first)
                added = set(threading.enumerate()) - before - \
                    origin.handler_threads
                assert len(added) == 0, added
        finally:
            proxy.close()
            origin.shutdown()

    @pytest.mark.integration
    def test_fast_start_above_32_mib_starts_at_once(self):
        # 36 MB at 8 Mbit/s all fits in a 60 s Fast Start, which is more
        # than 32 MiB: its first byte still goes out within seconds
        total = 36_000_000
        origin = _serve(_Origin(total, 8e6))
        proxy, addr = _start_proxy(origin, fast_start_seconds=60.0)
        try:
            t0 = time.monotonic()
            with _connect(addr) as sock:
                _, first = _read_head(sock)
                got = len(_first_body_bytes(sock, first))
                assert got and time.monotonic() - t0 < 5.0
                while data := sock.recv(1 << 20):
                    got += len(data)
            assert got == total
        finally:
            proxy.close()
            origin.shutdown()


@pytest.mark.integration
class TestProxyTeardown:
    def test_disconnect_flushes_log_and_proxy_survives(self, tmp_path):
        total = int(30 * 4e6 / 8)  # long enough that we can cut it short
        origin = _Origin(total, 4e6)
        threading.Thread(target=origin.serve_forever, daemon=True).start()
        log_path = tmp_path / "sessions.csv"
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0,
                                   granularity_s=0.5,
                                   log_path=str(log_path))
        try:
            sock = _connect(addr)
            _read_head(sock)
            sock.recv(65536)
            sock.close()  # abrupt mid-stream disconnect
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and (
                    not log_path.exists() or not log_path.read_text()):
                time.sleep(0.1)
            assert log_path.read_text().splitlines()[0].startswith(
                "burst_id,")
            # a new session still works after the failed one
            sock2 = _connect(addr)
            head, _ = _read_head(sock2)
            assert "200" in head.splitlines()[0]
            sock2.close()
        finally:
            proxy.close()
            origin.shutdown()


@pytest.mark.integration
class TestProxyConvergence:
    def test_bs_opt_converges_to_client_buffer(self):
        # client emulating 4 MB of combined buffer at 1 Mbit/s: the fast
        # start overruns it, backpressure fires, and SentBytes lands within
        # 25% of the true buffer size
        r_s = 1e6
        buffer_cap = 4_000_000
        total = 12_000_000
        origin = _Origin(total, r_s)
        threading.Thread(target=origin.serve_forever, daemon=True).start()
        proxy, addr = _start_proxy(origin, fast_start_seconds=60.0,
                                   granularity_s=1.0,
                                   backpressure_s=0.5,
                                   sndbuf_bytes=65536)
        try:
            sock = _connect(addr, rcvbuf=65536)
            head, first = _read_head(sock)
            reader = _DrainingReader(sock, buffer_cap, r_s)
            reader.buffered = len(first)
            reader.total = len(first)
            reader.start()
            deadline = time.monotonic() + 60
            shaper = None
            while time.monotonic() < deadline:
                if proxy.sessions:
                    shaper = proxy.sessions[0]["shaper"]
                    if shaper.state.bs_opt_bytes is not None:
                        break
                time.sleep(0.1)
            assert shaper is not None and shaper.state.bs_opt_bytes, \
                "no buffer estimate converged"
            assert shaper.state.bs_opt_bytes == pytest.approx(
                buffer_cap, rel=0.25)
            reader.done = True
            sock.close()
        finally:
            proxy.close()
            origin.shutdown()

    def test_fast_start_zero_window_keeps_the_whole_stream(self):
        # a 2 MB stream at 8 Mbit/s fits a 20 s Fast Start, but the client
        # holds 0.5 MB: the Fast Start stops at the zero window, and the
        # bytes it did not get still reach the client in later bursts
        r_s = 8e6
        total = 2_000_000
        origin = _Origin(total, r_s)
        threading.Thread(target=origin.serve_forever, daemon=True).start()
        proxy, addr = _start_proxy(origin, fast_start_seconds=20.0,
                                   backpressure_s=0.2, sndbuf_bytes=65536)
        try:
            sock = _connect(addr, rcvbuf=65536)
            _, first = _read_head(sock)
            reader = _DrainingReader(sock, 500_000, r_s)
            reader.buffered = reader.total = len(first)
            reader.start()
            reader.join(timeout=30)
            assert not reader.is_alive()
            shaper = proxy.sessions[0]["shaper"]
            assert "fast_start_zwa" in shaper.decision_log[0]
            assert reader.total == total
            sock.close()
        finally:
            proxy.close()
            origin.shutdown()

    def test_throttled_origin_engages_low_bandwidth(self):
        r_s = 1e6
        total = 4_000_000
        origin = _Origin(total, r_s, rate_cap_bps=0.4e6)
        threading.Thread(target=origin.serve_forever, daemon=True).start()
        proxy, addr = _start_proxy(origin, fast_start_seconds=2.0,
                                   granularity_s=0.5)
        try:
            sock = _connect(addr)
            _read_head(sock)
            sock.settimeout(0.2)
            saw_low_bw = False
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    if not sock.recv(65536):
                        break
                except socket.timeout:
                    pass
                if proxy.sessions:
                    shaper = proxy.sessions[0]["shaper"]
                    if shaper.phase is Phase.LOW_BANDWIDTH or any(
                            "LOW_BANDWIDTH" in row
                            for row in shaper.burst_log):
                        saw_low_bw = True
                        break
            assert saw_low_bw, "origin starvation never engaged fallback"
            sock.close()
        finally:
            proxy.close()
            origin.shutdown()


class _CountingResponse:
    """The part of the origin response that ``_SlabBody`` uses, over
    ``body`` declared ``declared`` bytes long; it is its own socket, which
    records the size of each ``recv_into`` and ends the stream after
    ``body``."""

    chunked = False

    def __init__(self, body, declared=None):
        self.body = body
        self.pos = 0
        self.length = len(body) if declared is None else declared
        self.reads = []
        self.sock = self

    def recv_into(self, b):
        self.reads.append(len(b))
        n = min(len(b), len(self.body) - self.pos)
        b[:n] = self.body[self.pos:self.pos + n]
        self.pos += n
        return n


def _read_body(body, buf):
    """Fill ``buf`` with the slices that ``body.take`` reads; return the
    count read, and the error that ended the body in these takes, if one
    did."""
    before = len(body.errors)
    got = 0
    while got < len(buf) and \
            (piece := _drive(body.take(len(buf) - got))) is not None:
        buf[got:got + len(piece)] = piece
        got += len(piece)
    return got, next(iter(body.errors[before:]), None)


class TestReadBody:
    """``_SlabBody.take`` fills each slab from the body's first byte, in
    reads of at most 64 KiB."""

    def test_fills_from_the_first_byte(self):
        body = _distinct_bytes(300_000)
        response = _CountingResponse(body + b"more")
        source = _SlabBody(response, [])
        buf = bytearray(len(body))
        got, error = _read_body(source, buf)
        assert (got, error) == (len(buf), None)
        assert buf == body
        assert response.reads and max(response.reads) <= 65536
        assert len(response.reads) == -(-len(body) // 65536)
        assert source.unread == 4              # the body goes on

    def test_short_body_keeps_its_bytes(self):
        body = _distinct_bytes(100_000)
        response = _CountingResponse(body, declared=300_000)
        source = _SlabBody(response, [])
        buf = bytearray(300_000)
        got, error = _read_body(source, buf)
        assert got == len(body) and buf[:got] == body
        assert isinstance(error, http.client.IncompleteRead)
        assert error.expected == 200_000
        # the error outlives the session in its report, so it must not
        # pin the slab through the frames of its traceback
        assert error.__traceback__ is None and error.__context__ is None
        assert source.unread == 0
        assert max(response.reads) <= 65536
        # the body has ended: a later call reads nothing
        assert _read_body(source, bytearray(10)) == (0, None)


class TestUnread:
    """Each body source keeps the one count of the body bytes left."""

    @pytest.mark.parametrize("name", ["_SlabBody", "_SplicedBody"])
    def test_count_down_to_a_cut(self, name):
        if name == "_SplicedBody" and not hasattr(os, "splice"):
            pytest.skip("os.splice is Linux-only")
        # 300 000 bytes declared, and the origin hangs up after 200 000
        body = _distinct_bytes(200_000)
        ours, theirs = socket.socketpair()
        ours.setblocking(False)

        def serve():
            with theirs, suppress(OSError):    # the reader may stop early
                theirs.sendall(body)

        origin = threading.Thread(target=serve)
        origin.start()
        response = proxy_module._OriginResponse(
            ours, b"HTTP/1.1 200 OK\r\nContent-Length: 300000\r\n\r\n")
        errors = []
        got = bytearray()
        with closing(response), \
                closing(getattr(proxy_module, name)(response, errors)) \
                as source:
            assert source.unread == 300_000
            while (piece := _drive(source.take(30_000))) is not None:
                got += piece if isinstance(piece, memoryview) \
                    else piece.read()
                if not errors:
                    assert source.unread == 300_000 - len(got)
            origin.join(timeout=10.0)
            assert got == body
            assert [type(e) for e in errors] == [http.client.IncompleteRead]
            assert errors[0].expected == 100_000
            assert source.unread == 0
            assert _drive(source.take(30_000)) is None


class _Slices:
    """``body`` as slices of ``size`` bytes, counting the slices taken."""

    def __init__(self, body, size):
        self.body = memoryview(body)
        self.size = size
        self.taken = 0
        self.at = 0

    def take(self, want):
        """The next slice, of up to ``want`` bytes, None after the last; a
        step that makes no wait."""
        yield from ()
        piece = self.body[self.at:self.at + min(self.size, want)]
        if not piece:
            return None
        self.taken += 1
        self.at += len(piece)
        return piece


def _ended(want):
    """The pull step of a body that has ended."""
    yield from ()
    return None


def _received(peer):
    """All the bytes waiting on socket ``peer``."""
    peer.setblocking(False)
    got = bytearray()
    while True:
        try:
            data = peer.recv(1 << 20)
        except BlockingIOError:
            return got
        if not data:
            return got
        got += data


class _WaitClock:
    """A clock for ``_BackpressureWriter`` that moves only while the writer
    waits for the socket: ``run`` answers each wait the writer yields at
    its deadline, or ``late_s`` past it, and after every ``every_s`` of
    waiting the peer reads ``nbytes``, at most ``reads`` times. ``fds``
    keeps the descriptors waited for."""

    def __init__(self, peer, nbytes=0, every_s=math.inf, reads=0,
                 late_s=0.0):
        self.peer = peer
        self.late_s = late_s
        self.nbytes = nbytes
        self.every_s = every_s
        self.reads_left = reads
        self.now = 0.0
        self.waited = 0.0
        self.read = bytearray()
        self.fds = set()

    def monotonic(self):
        return self.now

    def run(self, steps):
        """The value of ``steps``, every wait of it answered."""
        answer = None
        while True:
            try:
                wait = steps.send(answer)
            except StopIteration as stop:
                return stop.value
            answer = self._answer(wait)

    def _answer(self, wait):
        self.fds.add(wait.fd)
        self.waited += wait.deadline - self.now
        self.now = wait.deadline + self.late_s
        if self.waited >= self.every_s - 1e-9 and self.reads_left:
            self.waited = 0.0
            self.reads_left -= 1
            want = len(self.read) + self.nbytes
            while len(self.read) < want:
                self.read += self.peer.recv(want - len(self.read))
        return False        # the socket never turns writable in time


class _ReadingClock(_WaitClock):
    """A ``_WaitClock`` whose peer reads everything waiting at each
    wait."""

    def _answer(self, wait):
        answer = super()._answer(wait)
        self.read += _received(self.peer)
        return answer


class TestSlabRelay:
    """A send is written a slice at a time, over one blocked-time account,
    and only one slab of it is held at once."""

    def test_zero_window_across_slices_keeps_the_tail(self):
        # the peer reads nothing: the socket takes what it holds over
        # several slices, and then one zero window ends the burst there
        body = _distinct_bytes(2_000_000)
        slices = _Slices(body, 16384)
        writer_sock, peer = socket.socketpair()
        with writer_sock, peer:
            writer_sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                   65536)
            clock = _WaitClock(peer)
            writer = _BackpressureWriter(writer_sock, threshold_s=0.2,
                                         credit_bps=1e12,
                                         clock=clock.monotonic)
            obs, rest = clock.run(writer.write_burst(
                memoryview(b""), slices.take, len(body), 7, 1000))
            got = _received(peer)
        assert slices.taken > 1
        assert obs.zwa_seen and not obs.complete
        assert obs.sent_bytes_at_first_zwa == obs.acked_bytes == len(got)
        assert got == body[:len(got)]
        # the rest of the slice in hand comes back, and no later slice
        # was taken
        assert len(got) + len(rest) == slices.taken * 16384
        assert rest == body[len(got):len(got) + len(rest)]
        assert (obs.burst_id, obs.size_bytes, obs.start_byte) == \
            (7, len(body), 1000)
        assert obs.t_bd_s >= 0.2

    def test_blocked_time_carries_across_slices(self):
        # the peer reads 32 KiB after every 0.2 s of waiting, so each wait
        # ends inside the 0.5 s threshold, but the waits add up to it
        # across the 8 KiB slices: the zero window comes at the third
        # wait. An account reset at each slice would see it only once the
        # peer stopped reading, after its 20 reads.
        body = _distinct_bytes(2_000_000)
        writer_sock, peer = socket.socketpair()
        with writer_sock, peer:
            writer_sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                   65536)
            clock = _WaitClock(peer, 32768, every_s=0.2, reads=20)
            writer = _BackpressureWriter(writer_sock, threshold_s=0.5,
                                         credit_bps=1e12,
                                         clock=clock.monotonic)
            obs, rest = clock.run(writer.write_burst(
                memoryview(b""), _Slices(body, 8192).take, len(body), 0, 0))
            got = clock.read + _received(peer)
        assert obs.zwa_seen and clock.reads_left == 18
        assert obs.sent_bytes_at_first_zwa == obs.acked_bytes == len(got)
        assert got == body[:len(got)]
        assert rest == body[len(got):len(got) + len(rest)]

    def test_a_wait_resumed_late_adds_at_most_its_length(self):
        # the peer reads 32 KiB during every wait, but each wait is resumed
        # 1 s past its 0.05 s deadline, as a loop busy with other sessions
        # may: each still adds 0.05 s, so the 0.25 s threshold is reached
        # at the fifth wait, not the first
        body = _distinct_bytes(2_000_000)
        writer_sock, peer = socket.socketpair()
        with writer_sock, peer:
            writer_sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                   65536)
            clock = _WaitClock(peer, 32768, every_s=0.0, reads=20,
                               late_s=1.0)
            writer = _BackpressureWriter(writer_sock, threshold_s=0.25,
                                         credit_bps=math.inf,
                                         clock=clock.monotonic)
            obs, rest = clock.run(writer.write_burst(
                memoryview(b""), _Slices(body, 8192).take, len(body), 0, 0))
            got = clock.read + _received(peer)
        assert obs.zwa_seen and clock.reads_left == 15
        assert obs.sent_bytes_at_first_zwa == obs.acked_bytes == len(got)
        assert got == body[:len(got)]

    @pytest.mark.parametrize("peer_reads", [True, False],
                             ids=["peer-reads", "peer-stops"])
    @pytest.mark.parametrize("slice_bytes", [1, 8192, SLAB_BYTES],
                             ids=["1B", "8KiB", "slab"])
    @pytest.mark.parametrize("held_as", ["none", "one", "slice-less-one",
                                         "size", "over-size"])
    def test_held_then_taken_slices(self, held_as, slice_bytes, peer_reads):
        # a burst writes the bytes it holds, then takes slices, each only
        # once the socket has accepted the last. Wherever the seam falls,
        # the socket gets a prefix of the stream, the accepted bytes and
        # the rest handed back are every byte offered, and a burst whose
        # every byte was accepted has the size it sent. The peer that
        # stops leaves a send buffer of a few KiB full, which ends the
        # burst at a zero window.
        size = 2 * slice_bytes + 40_000
        held_bytes = {"none": 0, "one": 1, "slice-less-one": slice_bytes - 1,
                      "size": size, "over-size": size + slice_bytes}[held_as]
        stream = _distinct_bytes(size + 2 * slice_bytes + 1)
        slices = _Slices(stream[held_bytes:], slice_bytes)
        writer_sock, peer = socket.socketpair()
        with writer_sock, peer:
            writer_sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                   4096)
            clock = (_ReadingClock if peer_reads else _WaitClock)(peer)
            # each byte accepted credits back a whole second of blocking
            writer = _BackpressureWriter(writer_sock, threshold_s=0.2,
                                         credit_bps=8.0,
                                         clock=clock.monotonic)
            obs, rest = clock.run(writer.write_burst(
                memoryview(stream)[:held_bytes], slices.take, size, 3, 0))
            got = clock.read + _received(peer)
        offered = held_bytes + slices.at
        assert got == stream[:len(got)]
        assert obs.acked_bytes == len(got)
        assert obs.acked_bytes + len(rest) == offered
        assert rest == stream[len(got):offered]
        assert obs.zwa_seen != peer_reads
        if peer_reads:
            assert obs.complete
            assert obs.size_bytes == obs.acked_bytes == max(size, held_bytes)

    def test_fast_start_holds_one_slab(self):
        # 32 MiB inside one 60 s Fast Start: the proxy reads and writes it
        # a slab at a time, and the client hashes it as it reads, so the
        # traced peak stays far below the send (holding the send whole
        # took more than 32 MiB)
        total = 32 << 20
        origin = _serve(_Origin(total, 8e6))
        proxy, addr = _start_proxy(origin, fast_start_seconds=60.0)
        digest = hashlib.sha256()
        buf = bytearray(65536)
        got = 0
        tracemalloc.start()
        try:
            with _connect(addr) as sock:
                _, first = _read_head(sock)
                digest.update(first)
                got = len(first)
                sock.settimeout(15.0)
                while n := sock.recv_into(buf):
                    digest.update(memoryview(buf)[:n])
                    got += n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            proxy.close()
            origin.shutdown()
        want = hashlib.sha256()
        chunk = b"x" * 65536
        for _ in range(total // len(chunk)):
            want.update(chunk)
        assert got == total and digest.digest() == want.digest()
        assert peak < 4_000_000


class TestOriginHeads:
    def test_chunked_body_arrives_whole(self):
        # no Content-Length: the proxy decodes the chunked body a slab at
        # a time, across more than one send
        total = 1_500_000
        origin = _serve(_Origin(total, 8e6, chunked=True))
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0,
                                   granularity_s=0.5)
        try:
            with _connect(addr) as sock:
                head, first = _read_head(sock)
                body = bytearray(first)
                sock.settimeout(15.0)
                while data := sock.recv(65536):
                    body += data
            assert "transfer-encoding" not in head.lower()
            assert body == _distinct_bytes(total)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and \
                    not (proxy.sessions and
                         "origin_error" in proxy.sessions[0]):
                time.sleep(0.05)
            assert proxy.sessions[0]["origin_error"] is None
            # a burst row: the body went out in a send after the Fast Start
            assert proxy.sessions[0]["rows"]
        finally:
            proxy.close()
            origin.shutdown()

    def test_short_body_of_unknown_length_costs_no_whole_send(self):
        # a 60 s Fast Start at 8 Mbit/s asks for 60 MB, but the chunked
        # body ends at 3 MB: the send reads it one slab at a time, and
        # nothing the size of the whole send is allocated
        total = 3_000_000
        origin = _serve(_Origin(total, 8e6, chunked=True))
        proxy, addr = _start_proxy(origin, fast_start_seconds=60.0)
        tracemalloc.start()
        try:
            with _connect(addr) as sock:
                _, first = _read_head(sock)
                body = bytearray(first)
                sock.settimeout(15.0)
                while data := sock.recv(1 << 20):
                    body += data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            proxy.close()
            origin.shutdown()
        assert body == _distinct_bytes(total)
        assert peak < 30_000_000

    def test_bytes_left_at_a_zero_window_arrive_intact(self):
        # the client reads nothing for a second, so the Fast Start stops at
        # a zero window; what it left is offered first by the next send
        # and must reach the client unchanged and in order
        total = 2_000_000
        origin = _serve(_Origin(total, 8e6, distinct=True))
        proxy, addr = _start_proxy(origin, fast_start_seconds=20.0,
                                   backpressure_s=0.2, sndbuf_bytes=65536)
        try:
            with _connect(addr, rcvbuf=65536) as sock:
                _, first = _read_head(sock)
                time.sleep(1.0)
                body = bytearray(first)
                sock.settimeout(15.0)
                while data := sock.recv(65536):
                    body += data
            assert "fast_start_zwa" in \
                proxy.sessions[0]["shaper"].decision_log[0]
            assert body == _distinct_bytes(total)
        finally:
            proxy.close()
            origin.shutdown()

    @pytest.mark.parametrize("info", ["duration=eighty;seconds=0-",
                                      "seconds=0-", *UNUSABLE_RATES])
    def test_unusable_head_is_a_bad_gateway(self, info):
        # a malformed X-Stream-Info, or one without any rate: the client
        # gets a 502 and the proxy hangs up on the origin, whose body
        # (far more than the socket buffers hold) then fails to send
        origin = _serve(_Origin(64_000_000, 4e6, stream_info=info))
        proxy, addr = _start_proxy(origin)
        try:
            with _connect(addr) as sock:
                sock.settimeout(10.0)
                reply = b""
                while data := sock.recv(65536):
                    reply += data
            assert reply == (b"HTTP/1.1 502 Bad Gateway\r\n"
                             b"Content-Length: 0\r\nConnection: close\r\n\r\n")
            assert origin.peer_closed.wait(5.0)
            assert not proxy.sessions
        finally:
            proxy.close()
            origin.shutdown()

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_unreadable_length_is_a_bad_gateway(self, length):
        # the proxy reads no length from the head, so the stream has no
        # duration: the client gets a 502 instead of a head and a hang-up
        origin = _serve(_CannedOrigin(
            200, [("X-Stream-Info", "duration=8;bitrate=4000000;seconds=0-"),
                  ("Content-Length", length)], b"x" * 1000))
        proxy, addr = _start_proxy(origin)
        try:
            with _connect(addr) as sock:
                sock.settimeout(10.0)
                reply = b""
                while data := sock.recv(65536):
                    reply += data
            assert reply == _bare_status(b"502 Bad Gateway")
            assert not proxy.sessions
        finally:
            proxy.close()
            origin.shutdown()

    def test_empty_declared_body_ends_its_session(self):
        # a body of 0 bytes is a stream of no length, not a failed session
        info = "duration=8;bitrate=4000000;seconds=0-"
        origin = _serve(_CannedOrigin(200, [("X-Stream-Info", info)]))
        proxy, addr = _start_proxy(origin)
        try:
            head, got = _exchange(addr, [])
            assert head[0] == "HTTP/1.1 200 OK"
            assert "Content-Length: 0" in head
            assert got == b""
            assert proxy.sessions[0]["origin_error"] is None
        finally:
            proxy.close()
            origin.shutdown()


class _CannedOrigin(http.server.ThreadingHTTPServer):
    """An origin that gives every request one canned answer and keeps the
    Range header of each request (None where there was none). The answer
    declares its body's length unless its headers name one."""

    daemon_threads = True

    def __init__(self, status, headers, body=b""):
        self.answer = (status, headers, body)
        self.ranges = []
        super().__init__(("127.0.0.1", 0), _CannedHandler)

    def shutdown(self):
        super().shutdown()
        self.server_close()


class _CannedHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def do_GET(self):
        self.server.ranges.append(self.headers.get("Range"))
        status, headers, body = self.server.answer
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        if status != 204 and \
                "Content-Length" not in (name for name, _ in headers):
            self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def _exchange(addr, request_headers):
    """The head and body a client gets for ``GET /stream`` with
    ``request_headers``, read until the proxy closes."""
    with socket.create_connection(addr) as sock:
        sock.sendall(b"GET /stream HTTP/1.1\r\nHost: x\r\n" +
                     b"".join(b"%s\r\n" % h for h in request_headers) +
                     b"\r\n")
        head, first = _read_head(sock)
        body = bytearray(first)
        sock.settimeout(15.0)
        while data := sock.recv(65536):
            body += data
    return head.split("\r\n"), bytes(body)


class TestSecondsRange:
    """The paper's seconds-range flows pass through the proxy: the
    client's Range reaches the origin, a 206 continuation is shaped as a
    200 is, and a 204 correction keeps its head."""

    INFO = "duration=60;bitrate=400000;seconds=5-6"

    @pytest.mark.parametrize("request_range,status", [
        (b"seconds=5-", 206), (None, 200)])
    def test_continuation_arrives_whole(self, request_range, status):
        # 100 kB is 2 s at 400 kbit/s: past a 1 s Fast Start, the rest
        # goes out in a shaped burst
        body = _distinct_bytes(100_000)
        origin = _serve(_CannedOrigin(
            status, [("X-Stream-Info", self.INFO),
                     ("Content-Range", "seconds 5-6/2")], body))
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0,
                                   granularity_s=0.5)
        try:
            head, got = _exchange(
                addr, [b"Range: " + request_range] if request_range else [])
            assert head[0].startswith(f"HTTP/1.1 {status} ")
            assert f"X-Stream-Info: {self.INFO}" in head
            assert "Content-Range: seconds 5-6/2" in head
            assert got == body
            assert origin.ranges == \
                [request_range.decode() if request_range else None]
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and \
                    not (proxy.sessions and "rows" in proxy.sessions[0]
                         and proxy.sessions[0]["rows"]):
                time.sleep(0.05)
            assert proxy.sessions[0]["r_s"] == 400_000
            assert proxy.sessions[0]["rows"]
        finally:
            proxy.close()
            origin.shutdown()

    def test_pipelined_request_lends_no_range(self):
        # a request with no Range, and in the same write a second one with
        # a Range: the origin is asked for the first without one
        body = _distinct_bytes(10_000)
        origin = _serve(_CannedOrigin(200, [("X-Stream-Info", self.INFO)],
                                      body))
        proxy, addr = _start_proxy(origin)
        try:
            with socket.create_connection(addr) as sock:
                sock.sendall(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
                             b"GET /b HTTP/1.1\r\nHost: x\r\n"
                             b"Range: seconds=5-\r\n\r\n")
                head, first = _read_head(sock)
                got = bytearray(first)
                sock.settimeout(15.0)
                while data := sock.recv(65536):
                    got += data
            assert head.startswith("HTTP/1.1 200 ")
            assert got == body
            assert origin.ranges == [None]
        finally:
            proxy.close()
            origin.shutdown()

    def test_correction_keeps_its_head(self):
        info = "duration=60;bitrate=400000;seconds=5-9"
        origin = _serve(_CannedOrigin(204, [("X-Stream-Info", info)]))
        proxy, addr = _start_proxy(origin)
        try:
            head, got = _exchange(addr, [b"Range: seconds=10-"])
            assert head[0] == "HTTP/1.1 204 No Content"
            assert f"X-Stream-Info: {info}" in head
            assert got == b""
            assert origin.ranges == ["seconds=10-"]
            assert not proxy.sessions
        finally:
            proxy.close()
            origin.shutdown()


def _bare_status(status):
    return (b"HTTP/1.1 %s\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
            % status)


def _answer(request, origin=None):
    """Everything a client reads for ``request`` from a proxy whose origin
    override is ``origin``, until the proxy closes."""
    proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0),
                                       origin=origin))
    addr = proxy.start()
    try:
        with socket.create_connection(addr, timeout=10.0) as sock:
            sock.sendall(request)
            reply = b""
            while data := sock.recv(4096):
                reply += data
    finally:
        proxy.close()
    return reply


class TestUnservableRequests:
    """A request the proxy cannot serve is answered with a status before
    the proxy hangs up: 400 for a head it cannot parse or resolve, 501 for
    a method other than GET, 502 when the origin fails."""

    @pytest.mark.parametrize("request_head", [
        b"GET /a HTTP/1.1\r\nHost: a:b\r\n\r\n",       # no port number
        b"GET /a HTTP/1.1\r\nHost: a:70000\r\n\r\n",   # no port
        b"GET /a HTTP/1.1\r\n\r\n",                    # no origin at all
        b"GET http://a:b/ HTTP/1.1\r\n\r\n",
        b"GET http://a:0/ HTTP/1.1\r\n\r\n",
        b"GET /a\r\n\r\n",                             # no version
        # targets that cannot go into the origin's request line
        b"GET /a\x01b HTTP/1.1\r\nHost: 127.0.0.1:9\r\n\r\n",
        b"GET /caf\xe9 HTTP/1.1\r\nHost: 127.0.0.1:9\r\n\r\n",
        b"GET /a HTTP/1.1\r\nHost: a\x01b:9\r\n\r\n",
    ], ids=["host-port-text", "host-port-range", "no-host", "absolute-port",
            "absolute-port-zero", "short-request-line", "control-character",
            "non-ascii", "host-control-character"])
    def test_unresolvable_head_is_a_bad_request(self, request_head):
        assert _answer(request_head) == _bare_status(b"400 Bad Request")

    def test_pipelined_request_lends_no_host(self):
        # a relative target with no Host header, and in the same write a
        # second request whose Host names a live origin: the first has no
        # origin, and that origin is never asked
        origin = _serve(_CannedOrigin(
            200, [("X-Stream-Info", "duration=1;bitrate=80000")], b"b" * 10))
        port = origin.server_address[1]
        try:
            reply = _answer(b"GET /a HTTP/1.1\r\n\r\n"
                            b"GET /b HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n\r\n"
                            % port)
        finally:
            origin.shutdown()
        assert reply == _bare_status(b"400 Bad Request")
        assert origin.ranges == []

    @pytest.mark.parametrize("lines", [
        "Host: x\r\nRange: seconds=1\r\n 0-",
        "Host: 127.0.0.1:{port}\r\nHost : 127.0.0.1:9",
    ], ids=["folded-range", "second-host-before-colon"])
    def test_malformed_field_line_never_reaches_the_origin(self, lines):
        # a folded Range went on as ``seconds=1``, and a ``Host :`` line
        # was not counted as a second Host
        origin = _serve(_CannedOrigin(
            200, [("X-Stream-Info", "duration=1;bitrate=80000")], b"b" * 10))
        port = origin.server_address[1]
        try:
            head = f"GET /a HTTP/1.1\r\n{lines.format(port=port)}\r\n\r\n"
            reply = _answer(head.encode(), origin=f"http://127.0.0.1:{port}")
        finally:
            origin.shutdown()
        assert reply == _bare_status(b"400 Bad Request")
        assert origin.ranges == []

    @pytest.mark.parametrize("method", [b"POST", b"HEAD", b"BREW"])
    def test_method_other_than_get_is_not_implemented(self, method):
        assert _answer(method + b" /a HTTP/1.1\r\nHost: 127.0.0.1:9\r\n\r\n") \
            == _bare_status(b"501 Not Implemented")

    @pytest.mark.parametrize("body_bytes", [10, 100_000])
    def test_answer_survives_an_unread_request_body(self, body_bytes):
        # the body is never read as a request; the client still reads the
        # whole answer and then a clean end of stream, not a reset
        request = (b"POST /a HTTP/1.1\r\nHost: 127.0.0.1:9\r\n"
                   b"Content-Length: %d\r\n\r\n" % body_bytes
                   + b"b" * body_bytes)
        assert _answer(request) == _bare_status(b"501 Not Implemented")

    def test_refused_origin_is_a_bad_gateway(self):
        with socket.socket() as unused:      # a loopback port with no
            unused.bind(("127.0.0.1", 0))    # listener
            port = unused.getsockname()[1]
            reply = _answer(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n",
                            origin=f"http://127.0.0.1:{port}")
        assert reply == _bare_status(b"502 Bad Gateway")

    def test_origin_closing_without_an_answer_is_a_bad_gateway(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def hang_up():
                conn, _ = listener.accept()
                conn.close()

            origin = threading.Thread(target=hang_up, daemon=True)
            origin.start()
            port = listener.getsockname()[1]
            reply = _answer(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n",
                            origin=f"http://127.0.0.1:{port}")
            origin.join(timeout=5.0)
        assert not origin.is_alive()
        assert reply == _bare_status(b"502 Bad Gateway")

    def test_origin_error_is_relayed_as_a_bodyless_head(self):
        # the origin answers 404 with a body: the client reads the status
        # in a head that closes the connection, and no body
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def not_found():
                conn, _ = listener.accept()
                with conn:
                    request = b""
                    while b"\r\n\r\n" not in request:
                        request += conn.recv(4096)
                    conn.sendall(b"HTTP/1.1 404 Not Found\r\n"
                                 b"Content-Length: 9\r\n\r\nnot found")

            origin = threading.Thread(target=not_found, daemon=True)
            origin.start()
            port = listener.getsockname()[1]
            reply = _answer(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n",
                            origin=f"http://127.0.0.1:{port}")
            origin.join(timeout=5.0)
        assert not origin.is_alive()
        assert reply == _bare_status(b"404 Not Found")


@contextmanager
def _raw_origin(pieces, pace_s=0.0):
    """An origin on a bare socket for one request: it keeps the request
    head byte for byte, writes each of ``pieces`` ``pace_s`` after the
    last, and hangs up. Yields its URL and the list that gets the head."""
    requests = []
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(10.0)

        def serve():
            conn, _ = listener.accept()
            with conn:
                request = b""
                while b"\r\n\r\n" not in request:
                    data = conn.recv(4096)
                    if not data:
                        return
                    request += data
                requests.append(request)
                with suppress(OSError):    # the proxy hung up on the answer
                    for piece in pieces:
                        conn.sendall(piece)
                        time.sleep(pace_s)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", requests
        thread.join(timeout=10.0)
    assert not thread.is_alive()


def _chunked(body, sizes, extensions):
    """``body`` in chunks of ``sizes``, the ith chunk's size line carrying
    ``extensions[i]``, then a last chunk with an extension and a trailer."""
    out, at = b"", 0
    for size, extension in zip(sizes, extensions):
        out += b"%x%s\r\n%s\r\n" % (size, extension, body[at:at + size])
        at += size
    assert at == len(body)
    return out + b"0;last\r\nX-Trailer: t\r\nX-Other: u\r\n\r\n"


STREAM_INFO = b"X-Stream-Info: duration=8;bitrate=4000000;seconds=0-\r\n"
BODY = _distinct_bytes(1000)
HEAD_200 = (b"HTTP/1.1 200 OK\r\n" + STREAM_INFO +
            b"Content-Length: 1000\r\n\r\n")
RELAYED_200 = (b"HTTP/1.1 200 OK\r\n" + STREAM_INFO +
               b"Content-Length: 1000\r\nConnection: close\r\n\r\n" + BODY)


class TestOriginExchange:
    """The proxy writes the origin one request, the one http.client sent,
    and reads exactly the response head, however the origin sends it."""

    @pytest.mark.parametrize("range_line", [b"", b"Range: seconds=5-\r\n"],
                             ids=["no-range", "range"])
    def test_origin_gets_the_request_http_client_sent(self, range_line):
        answer = b"HTTP/1.1 204 No Content\r\n" + STREAM_INFO + b"\r\n"
        with _raw_origin([answer]) as (origin, requests):
            reply = _answer(b"GET /a?b=1 HTTP/1.1\r\nHost: x\r\n" +
                            range_line + b"\r\n", origin=origin)
        port = origin.rsplit(":", 1)[1].encode()
        assert requests == [b"GET /a?b=1 HTTP/1.1\r\n"
                            b"Host: 127.0.0.1:%s\r\n"
                            b"Accept-Encoding: identity\r\n%s\r\n"
                            % (port, range_line)]
        assert reply.startswith(b"HTTP/1.1 204 No Content\r\n")

    @pytest.mark.parametrize("host,port", [
        ("127.0.0.1", 8080), ("origin.example", 80), ("::1", 81),
        ("::1", 80), ("fe80::1%eth0", 81), ("b\u00fccher.example", 80)])
    @pytest.mark.parametrize("wanted", [None, "seconds=5-"])
    def test_request_bytes_are_http_clients(self, host, port, wanted):
        # http.client itself, writing to a socket that keeps what it gets,
        # is the reference
        class Kept:
            sent = b""

            def sendall(self, data):
                self.sent += data

        reference = http.client.HTTPConnection(host, port)
        reference.sock = Kept()
        reference.request("GET", "/v?q=1",
                          headers={"Range": wanted} if wanted else {})
        assert proxy_module._origin_request(host, port, "/v?q=1", wanted) \
            == reference.sock.sent

    @pytest.mark.parametrize("pieces,pace_s,reply", [
        ([bytes([b]) for b in HEAD_200] + [BODY], 0.001, RELAYED_200),
        ([b"HTTP/1.1 100 Continue\r\n\r\n", HEAD_200 + BODY], 0.05,
         RELAYED_200),
        ([b"HTTP/1.1 100 Continue\r\nX-A: b\r\n\r\n" + HEAD_200 + BODY],
         0.0, RELAYED_200),
        ([b"HTTP/1.1 200 OK\r\nX-Pad: " + b"p" * 70000 + b"\r\n" +
          HEAD_200[17:] + BODY], 0.0, _bare_status(b"502 Bad Gateway")),
        ([HEAD_200[:30]], 0.0, _bare_status(b"502 Bad Gateway")),
        ([b"ICY 200 OK\r\n" + HEAD_200[17:] + BODY], 0.0,
         _bare_status(b"502 Bad Gateway")),
    ], ids=["head-one-byte-at-a-time", "continue-then-head",
            "continue-with-head", "head-over-64-KiB", "closed-mid-head",
            "no-status-line"])
    def test_origin_head(self, pieces, pace_s, reply):
        with _raw_origin(pieces, pace_s) as (origin, _):
            assert _answer(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n",
                           origin=origin) == reply

    def test_chunked_body_with_extensions_and_trailer(self):
        # size lines with extensions, a last chunk with one and a trailer,
        # written in pieces of 7 bytes so that every line and chunk falls
        # across the proxy's reads: the client gets the body whole
        head = (b"HTTP/1.1 200 OK\r\n" + STREAM_INFO +
                b"Transfer-Encoding: chunked\r\n\r\n")
        answer = head + _chunked(BODY, [300, 500, 200],
                                 [b";a=1", b";b;c=\"d\"", b""])
        pieces = [answer[i:i + 7] for i in range(0, len(answer), 7)]
        with _raw_origin(pieces, 0.0005) as (origin, _):
            reply = _answer(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n",
                            origin=origin)
        assert reply == (b"HTTP/1.1 200 OK\r\n" + STREAM_INFO +
                         b"Connection: close\r\n\r\n" + BODY)

    def test_decoded_chunked_body_goes_without_content_length(self):
        # the chunked coding overrides the length beside it, and the body
        # goes out decoded: the client gets no length but all 20 bytes
        answer = (b"HTTP/1.1 200 OK\r\n" + STREAM_INFO +
                  b"Transfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n"
                  + _chunked(BODY[:20], [20], [b""]))
        with _raw_origin([answer]) as (origin, _):
            reply = _answer(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n",
                            origin=origin)
        assert reply == (b"HTTP/1.1 200 OK\r\n" + STREAM_INFO +
                         b"Connection: close\r\n\r\n" + BODY[:20])

    def test_content_lengths_that_differ_are_a_bad_gateway(self):
        answer = (b"HTTP/1.1 200 OK\r\n" + STREAM_INFO +
                  b"Content-Length: 5\r\nContent-Length: 20\r\n\r\n" +
                  BODY[:20])
        with _raw_origin([answer]) as (origin, _):
            reply = _answer(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n",
                            origin=origin)
        assert reply == _bare_status(b"502 Bad Gateway")

    @pytest.mark.parametrize("codings", [
        b"Transfer-Encoding: gzip, chunked\r\n",
        b"Transfer-Encoding: gzip\r\nTransfer-Encoding: chunked\r\n",
        b"Transfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n",
        b"Transfer-Encoding: gzip\r\nContent-Length: 20\r\n",
    ], ids=["gzip-then-chunked", "two-lines", "chunked-twice", "gzip-alone"])
    def test_codings_other_than_a_lone_chunked_are_a_bad_gateway(
            self, codings):
        # the proxy decodes chunked framing alone: a body under any other
        # coding would reach the client still coded, and without the
        # header that names its coding
        body = BODY[:20] if b"Content-Length" in codings else \
            _chunked(BODY[:20], [20], [b""])
        answer = (b"HTTP/1.1 200 OK\r\n" + STREAM_INFO + codings + b"\r\n" +
                  body)
        with _raw_origin([answer]) as (origin, _):
            reply = _answer(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n",
                            origin=origin)
        assert reply == _bare_status(b"502 Bad Gateway")

    # str.isdigit takes the superscript two of latin-1, and int() does not
    @pytest.mark.parametrize("length", [b"1_0", b"+5", b"-0", b"\xb2"],
                             ids=["underscore", "plus", "minus-zero",
                                  "superscript"])
    def test_a_content_length_not_all_digits_is_a_bad_gateway(self, length):
        answer = (b"HTTP/1.1 200 OK\r\n" + STREAM_INFO + b"Content-Length: "
                  + length + b"\r\n\r\n" + BODY[:20])
        with _raw_origin([answer]) as (origin, _):
            reply = _answer(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n",
                            origin=origin)
        assert reply == _bare_status(b"502 Bad Gateway")


@pytest.fixture(params=["pipe", "slab"])
def relay_path(request, monkeypatch):
    """Run the test with bodies of declared length spliced through a pipe,
    and again with the splice switched off, so that they are read into a
    slab; yields the path's name and the list of body sources the sessions
    used, each checked to be the path's."""
    if request.param == "pipe" and not hasattr(os, "splice"):
        pytest.skip("os.splice is Linux-only")
    monkeypatch.setattr(proxy_module, "_SPLICE", request.param == "pipe")
    bodies = []
    origin_body = proxy_module._origin_body

    def recording(response, errors):
        bodies.append(origin_body(response, errors))
        return bodies[-1]

    monkeypatch.setattr(proxy_module, "_origin_body", recording)
    yield request.param, bodies
    want = proxy_module._SplicedBody if request.param == "pipe" \
        else proxy_module._SlabBody
    assert bodies and all(type(b) is want for b in bodies)


def _spy(monkeypatch, cls, name):
    """Record the arguments of every call of method ``name`` of ``cls``."""
    calls = []
    method = getattr(cls, name)

    def recording(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(cls, name, recording)
    return calls


def _session_report(proxy):
    """The first session's report, once the session has ended."""
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and \
            not (proxy.sessions and "origin_error" in proxy.sessions[0]):
        time.sleep(0.05)
    return proxy.sessions[0]


class TestRelayPaths:
    """Every relay case on both paths: spliced through a pipe, and read
    into a slab."""

    def test_whole_body(self, relay_path):
        # past a 1 s Fast Start the rest goes out in bursts, whose bytes
        # are collected while each waits for its time
        total = 1_000_000
        origin = _serve(_Origin(total, 4e6, distinct=True))
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0,
                                   granularity_s=0.5)
        try:
            with _connect(addr) as sock:
                _, first = _read_head(sock)
                body = bytearray(first)
                sock.settimeout(15.0)
                while data := sock.recv(65536):
                    body += data
            assert body == _distinct_bytes(total)
            report = _session_report(proxy)
            assert report["origin_error"] is None and report["rows"]
        finally:
            proxy.close()
            origin.shutdown()

    def test_body_read_with_the_head(self, relay_path):
        # the whole body arrives with the head; the head read takes no
        # byte of it, so the body is spliced, or read, from its first byte
        origin = _serve(_Origin(1000, 4e6, distinct=True))
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0)
        try:
            with _connect(addr) as sock:
                _, first = _read_head(sock)
                body = bytearray(first)
                while data := sock.recv(65536):
                    body += data
            assert body == _distinct_bytes(1000)
            assert _session_report(proxy)["origin_error"] is None
        finally:
            proxy.close()
            origin.shutdown()

    def test_session_opens_no_http_client_connection(self, relay_path,
                                                     monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("an http.client connection was opened")

        monkeypatch.setattr(http.client, "HTTPConnection", refused)
        total = 300_000
        origin = _serve(_Origin(total, 4e6, distinct=True))
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0)
        try:
            with _connect(addr) as sock:
                sock.settimeout(15.0)
                reply = bytearray()
                while data := sock.recv(65536):
                    reply += data
            head, _, body = bytes(reply).partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 OK\r\n")
            assert body == _distinct_bytes(total)
            assert _session_report(proxy)["origin_error"] is None
        finally:
            proxy.close()
            origin.shutdown()

    def test_origin_reset_mid_body(self, relay_path):
        total = 400_000
        origin = _serve(_Origin(total, 4e6, reset_at=131072))
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0)
        try:
            with _connect(addr) as sock:
                _, first = _read_head(sock)
                body = bytearray(first)
                while data := sock.recv(65536):
                    body += data
            assert body == b"x" * 131072
            assert isinstance(_session_report(proxy)["origin_error"],
                              ConnectionResetError)
        finally:
            proxy.close()
            origin.shutdown()

    def test_short_declared_body(self, relay_path):
        total = 400_000
        origin = _serve(_Origin(total, 4e6, truncate_at=131072))
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0)
        try:
            with _connect(addr) as sock:
                _, first = _read_head(sock)
                got = len(first)
                while data := sock.recv(65536):
                    got += len(data)
            assert got == 131072
            error = _session_report(proxy)["origin_error"]
            assert isinstance(error, http.client.IncompleteRead)
            assert error.expected == total - 131072
            assert error.__traceback__ is None and error.__context__ is None
        finally:
            proxy.close()
            origin.shutdown()

    @staticmethod
    def _zero_window_session(monkeypatch):
        """A 600 kB stream at 2 Mbit/s whose client reads nothing until a
        send holding what a zero window left has read ahead, so the Fast
        Start stops at a zero window inside a slice; returns every
        ``read_ahead`` call, once the client got the whole body and the
        session's first decision was that zero window.

        The ~250 kB that the socket buffers take before the zero window
        are ~1 s of content at this rate, so the first send after it is
        due ~1 s into the session. The Fast Start ends ~0.2 s in, the
        backpressure threshold after the buffers fill: that send waits
        ~0.75 s for its time, and reads ahead meanwhile."""
        read_aheads = []
        held_read_ahead = threading.Event()
        read_ahead = proxy_module._OriginReader.read_ahead

        def recording(self, held, size):
            read_aheads.append((held, size))
            if len(held):
                held_read_ahead.set()
            return read_ahead(self, held, size)

        monkeypatch.setattr(proxy_module._OriginReader, "read_ahead",
                            recording)
        total = 600_000
        origin = _serve(_Origin(total, 2e6, distinct=True))
        proxy, addr = _start_proxy(origin, fast_start_seconds=20.0,
                                   backpressure_s=0.2, sndbuf_bytes=65536)
        try:
            with _connect(addr, rcvbuf=65536) as sock:
                _, first = _read_head(sock)
                held_read_ahead.wait(timeout=10.0)
                body = bytearray(first)
                sock.settimeout(15.0)
                while data := sock.recv(65536):
                    body += data
            decision = proxy.sessions[0]["shaper"].decision_log[0]
        finally:
            proxy.close()
            origin.shutdown()
        assert body == _distinct_bytes(total)
        assert "fast_start_zwa" in decision
        return read_aheads

    def test_zero_window_inside_a_spliced_send(self, relay_path,
                                               monkeypatch):
        # on the pipe path the writer reads the bytes the socket did not
        # take back out of the pipe (a read-ahead passes no offset), and
        # they arrive intact once the window reopens
        reads = _spy(monkeypatch, proxy_module._Piped, "read")
        self._zero_window_session(monkeypatch)
        if relay_path[0] == "pipe":
            assert any(args for args in reads)

    def test_read_ahead_after_a_zero_window(self, relay_path, monkeypatch):
        # the send after the zero window waits for its time holding what
        # the window left, and collects the rest of its bytes meanwhile
        read_aheads = self._zero_window_session(monkeypatch)
        assert any(len(held) and size > len(held)
                   for held, size in read_aheads)


def _fd_count():
    return len(os.listdir("/proc/self/fd"))


def _lookup_threads_end():
    """Wait for the closed proxies' lookup threads to end their lookups
    and stop, which close() does not wait for."""
    for thread in threading.enumerate():
        if thread.name.startswith("burststream-lookup"):
            thread.join(5.0)
            assert not thread.is_alive()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts /proc/self/fd")
def test_sessions_leave_no_descriptor(relay_path):
    # 20 sessions, most of them failed: the origin resets, ends the body
    # short, gives no usable rate, or the client leaves mid-body. Once
    # they have ended, the process holds the descriptors it held before.
    whole = _serve(_Origin(300_000, 4e6))
    reset = _serve(_Origin(400_000, 4e6, reset_at=131072))
    short = _serve(_Origin(400_000, 4e6, truncate_at=131072))
    unusable = _serve(_Origin(300_000, 4e6, stream_info="duration=8;bitrate=0"))
    long = _serve(_Origin(8_000_000, 4e6))
    origins = (whole, reset, short, unusable, long)
    proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0),
                                       fast_start_seconds=1.0))
    addr = proxy.start()
    baseline = _fd_count()
    threads = threading.active_count()
    try:
        for i in range(20):
            origin = origins[i % len(origins)]
            reset.reset_at = 131072
            with socket.create_connection(addr, timeout=10.0) as sock:
                sock.sendall(b"GET http://127.0.0.1:%d/s HTTP/1.1\r\n"
                             b"Host: x\r\n\r\n" % origin.server_address[1])
                _read_head(sock)
                if origin is not long:
                    while sock.recv(65536):
                        pass
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and (
                threading.active_count() != threads or
                _fd_count() != baseline or
                any(t.is_alive() for o in origins
                    for t in o.handler_threads)):
            time.sleep(0.05)
        assert len(proxy.sessions) == 16
        assert _fd_count() == baseline
        assert threading.active_count() == threads
    finally:
        proxy.close()
        for origin in origins:
            origin.shutdown()


def test_writer_waits_on_a_descriptor_above_1023():
    # select.select cannot wait on descriptors from 1024 on; the writer's
    # waits name such a descriptor, and the proxy's selector must take it,
    # or a session whose client socket lands there dies at its first
    # blocked write
    fcntl = pytest.importorskip("fcntl")
    import resource
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1100:
        pytest.skip("the descriptor limit is below 1100")
    ours, peer = socket.socketpair()
    with ours, peer:
        high = fcntl.fcntl(ours.fileno(), fcntl.F_DUPFD_CLOEXEC, 1024)
        with socket.socket(fileno=high) as sock:
            assert sock.fileno() >= 1024
            clock = _WaitClock(peer)
            writer = _BackpressureWriter(sock, threshold_s=0.2,
                                         credit_bps=1e12,
                                         clock=clock.monotonic)
            body = memoryview(bytes(4_000_000))
            obs, rest = clock.run(writer.write_burst(body, _ended, len(body),
                                                     0, 0))
            assert clock.fds == {high}
            with selectors.DefaultSelector() as selector:
                selector.register(high, selectors.EVENT_WRITE)
                assert selector.select(0) == []     # the buffer is full
    assert obs.zwa_seen and not obs.complete
    assert obs.acked_bytes + len(rest) == len(body)


class TestLoop:
    """One loop thread serves every session: many at once, one waiting on
    a slow name lookup, and all of them closed mid-stream."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts /proc/self/fd")
    def test_concurrent_clients(self):
        # 20 clients at once, read side by side: each gets its body byte
        # for byte, and no thread but the origin's handlers comes and goes.
        # The socket buffers hold less than a body, so every session is
        # still sending when the heads are in.
        total = 300_000
        origin = _serve(_Origin(total, 4e6, distinct=True))
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0,
                                   sndbuf_bytes=65536)
        baseline = _fd_count()
        before = set(threading.enumerate())

        def assert_no_thread_added():
            added = set(threading.enumerate()) - before - \
                origin.handler_threads
            assert not added, added

        socks = []
        try:
            socks = [_connect(addr, rcvbuf=65536) for _ in range(20)]
            # a head has come back for each, so every origin handler thread
            # has registered itself
            bodies = [bytearray(_read_head(sock)[1]) for sock in socks]
            assert_no_thread_added()
            with selectors.DefaultSelector() as selector:
                for i, sock in enumerate(socks):
                    selector.register(sock, selectors.EVENT_READ, i)
                deadline = time.monotonic() + 15
                while selector.get_map() and time.monotonic() < deadline:
                    for key, _ in selector.select(1.0):
                        if data := key.fileobj.recv(65536):
                            bodies[key.data] += data
                        else:
                            selector.unregister(key.fileobj)
                    assert_no_thread_added()
            want = _distinct_bytes(total)
            assert all(body == want for body in bodies)
            for sock in socks:
                sock.close()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and (
                    _fd_count() != baseline or
                    any(t.is_alive() for t in origin.handler_threads)):
                time.sleep(0.05)
            assert _fd_count() == baseline
            assert len(proxy.sessions) == 20
        finally:
            for sock in socks:
                sock.close()
            proxy.close()
            origin.shutdown()

    def test_slow_name_lookup_holds_up_no_other_session(self, monkeypatch):
        # the name slow.example takes 1 s to look up; a session on a
        # numeric origin that starts meanwhile gets its first body byte
        # long before that, and the named session is served whole after it
        total = 300_000
        origin = _serve(_Origin(total, 4e6, distinct=True))
        port = origin.server_address[1]
        looking_up = threading.Event()
        getaddrinfo = socket.getaddrinfo

        def slow(host, *args, flags=0, **kwargs):
            # a call for numeric addresses only makes no lookup: it fails
            # at once for a name, as the real one does
            if host == "slow.example" and not flags & socket.AI_NUMERICHOST:
                looking_up.set()
                time.sleep(1.0)
                host = "127.0.0.1"
            return getaddrinfo(host, *args, flags=flags, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", slow)
        proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0),
                                           fast_start_seconds=1.0))
        addr = proxy.start()
        try:
            with socket.create_connection(addr, timeout=10.0) as named, \
                    socket.create_connection(addr, timeout=10.0) as numeric:
                named.sendall(b"GET http://slow.example:%d/s HTTP/1.1\r\n"
                              b"Host: x\r\n\r\n" % port)
                assert looking_up.wait(5.0)
                t0 = time.monotonic()
                numeric.sendall(b"GET http://127.0.0.1:%d/s HTTP/1.1\r\n"
                                b"Host: x\r\n\r\n" % port)
                _, first = _read_head(numeric)
                first = _first_body_bytes(numeric, first)
                assert first and time.monotonic() - t0 < 0.5
                for sock, body in ((numeric, bytearray(first)),
                                   (named, bytearray(_read_head(named)[1]))):
                    sock.settimeout(15.0)
                    while data := sock.recv(65536):
                        body += data
                    assert body == _distinct_bytes(total)
        finally:
            proxy.close()
            origin.shutdown()

    def test_named_origin_lookups_share_a_bounded_pool(self, monkeypatch):
        # 20 sessions at once, each naming its origin by a host name that
        # takes 0.2 s to look up: every one is served whole, the lookups
        # run LOOKUP_THREADS at a time on that many threads of the proxy's,
        # and those threads end after close()
        total = 100_000               # fits in the Fast Start
        origin = _serve(_Origin(total, 4e6, distinct=True))
        port = origin.server_address[1]
        getaddrinfo = socket.getaddrinfo
        lock = threading.Lock()
        in_flight = [0, 0]            # now, most at once
        samples = []                  # the threads alive, seen in lookups

        def slow(host, *args, flags=0, **kwargs):
            if host.endswith(".example") and \
                    not flags & socket.AI_NUMERICHOST:
                with lock:
                    in_flight[0] += 1
                    in_flight[1] = max(in_flight)
                    samples.append(set(threading.enumerate()))
                time.sleep(0.2)
                with lock:
                    in_flight[0] -= 1
                host = "127.0.0.1"
            return getaddrinfo(host, *args, flags=flags, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", slow)
        before = set(threading.enumerate())
        proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0),
                                           fast_start_seconds=1.0))
        addr = proxy.start()
        baseline = set(threading.enumerate())
        socks = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for i in range(20):
                socks.append(socket.create_connection(addr, timeout=15.0))
                socks[-1].sendall(b"GET http://origin-%d.example:%d/s "
                                  b"HTTP/1.1\r\nHost: x\r\n\r\n" % (i, port))
            for sock in socks:
                body = bytearray(_read_head(sock)[1])
                sock.settimeout(15.0)
                while data := sock.recv(65536):
                    body += data
                samples.append(set(threading.enumerate()))
                assert body == _distinct_bytes(total)
        finally:
            sys.setswitchinterval(interval)
            for sock in socks:
                sock.close()
            proxy.close()
            origin.shutdown()
        # every origin handler has registered itself by now
        added = [sample - baseline - origin.handler_threads
                 for sample in samples]
        assert in_flight[1] == proxy_module.LOOKUP_THREADS
        assert max(map(len, added)) == proxy_module.LOOKUP_THREADS
        _lookup_threads_end()
        assert not set(threading.enumerate()) - before - \
            origin.handler_threads

    def test_lookup_of_a_session_that_gave_up_is_skipped(self,
                                                         monkeypatch):
        # one lookup thread, busy 0.6 s with the first name: the second
        # session's 0.2 s origin deadline passes while its lookup waits in
        # the queue, so it answers 502, and once free the thread does not
        # look the second name up
        monkeypatch.setattr(proxy_module, "LOOKUP_THREADS", 1)
        monkeypatch.setattr(proxy_module, "ORIGIN_TIMEOUT_S", 0.2)
        looked_up = []
        started, ended = threading.Event(), threading.Event()
        getaddrinfo = socket.getaddrinfo

        def slow(host, *args, flags=0, **kwargs):
            if host.endswith(".example") and \
                    not flags & socket.AI_NUMERICHOST:
                looked_up.append(host)
                started.set()
                time.sleep(0.6)
                ended.set()
                raise socket.gaierror(socket.EAI_NONAME, "no such name")
            return getaddrinfo(host, *args, flags=flags, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", slow)
        proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0)))
        addr = proxy.start()
        try:
            with socket.create_connection(addr, timeout=10.0) as first, \
                    socket.create_connection(addr, timeout=10.0) as second:
                first.sendall(b"GET http://first.example/s HTTP/1.1\r\n"
                              b"Host: x\r\n\r\n")
                assert started.wait(5.0)
                second.sendall(b"GET http://second.example/s HTTP/1.1\r\n"
                               b"Host: x\r\n\r\n")
                for sock in (first, second):
                    reply = b""
                    while data := sock.recv(4096):
                        reply += data
                    assert reply == _bare_status(b"502 Bad Gateway")
            # close() cancels every queued lookup, so the thread is given
            # time to take the next one first
            assert ended.wait(5.0)
            time.sleep(0.1)
        finally:
            proxy.close()
            _lookup_threads_end()
        assert looked_up == ["first.example"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts /proc/self/fd")
    def test_close_mid_session(self, tmp_path):
        # past a 1 s Fast Start (500 kB) the session paces 16 s of content;
        # close() ends it at once, writes its log rows, and leaves no
        # descriptor and no thread of the proxy's
        origin = _serve(_Origin(8_000_000, 4e6))
        baseline = _fd_count()
        before = set(threading.enumerate())
        log_path = tmp_path / "sessions.csv"
        proxy, addr = _start_proxy(origin, fast_start_seconds=1.0,
                                   granularity_s=0.5, log_path=str(log_path))
        try:
            with _connect(addr) as sock:
                _, first = _read_head(sock)
                got = len(first)
                while got < 600_000:
                    got += len(sock.recv(65536))
                t0 = time.monotonic()
                proxy.close()
                assert time.monotonic() - t0 < 1.0
            assert not set(threading.enumerate()) - before - \
                origin.handler_threads
            assert log_path.read_text().startswith("burst_id,")
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and (
                    _fd_count() != baseline or
                    any(t.is_alive() for t in origin.handler_threads)):
                time.sleep(0.05)
            assert _fd_count() == baseline
        finally:
            proxy.close()
            origin.shutdown()

    def test_failed_accept_listens_again(self, monkeypatch):
        # an accept that fails (out of descriptors, say) stops the listener
        # for a second instead of spinning on it; then it accepts again
        proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0)))
        accept = socket.socket.accept
        failed = []

        def failing_once(sock):
            if sock is proxy._listener and not failed:
                failed.append(time.monotonic())
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            return accept(sock)

        monkeypatch.setattr(socket.socket, "accept", failing_once)
        addr = proxy.start()
        try:
            with socket.create_connection(addr, timeout=10.0) as sock:
                sock.sendall(b"BREW /pot HTTP/1.1\r\n\r\n")
                reply = b""
                while data := sock.recv(1024):
                    reply += data
            assert reply == _bare_status(b"501 Not Implemented")
            assert failed and time.monotonic() - failed[0] >= 0.9
        finally:
            proxy.close()
