"""Live-proxy tests over loopback sockets.

The quick smoke test stays in the default suite; the convergence and
throttled-origin tests carry the integration marker (run them with
``pytest -m integration``).
"""

import http.server
import socket
import threading
import time

import pytest

from burststream import BurstObservation, Phase, Shaper, StreamSpec
from burststream.proxy import SessionConfig, ShapingProxy


class _Origin(http.server.ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, content_bytes, bitrate_bps, rate_cap_bps=None):
        self.content_bytes = content_bytes
        self.bitrate_bps = bitrate_bps
        self.rate_cap_bps = rate_cap_bps
        super().__init__(("127.0.0.1", 0), _OriginHandler)


class _OriginHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def do_GET(self):
        total = self.server.content_bytes
        self.send_response(200)
        self.send_header("Content-Type", "video/mp4")
        self.send_header("Content-Length", str(total))
        duration = total * 8 / self.server.bitrate_bps
        self.send_header("X-Stream-Info",
                         f"duration={duration:g};"
                         f"bitrate={self.server.bitrate_bps:g};seconds=0-")
        self.end_headers()
        chunk = b"x" * 65536
        sent = 0
        start = time.monotonic()
        while sent < total:
            n = min(len(chunk), total - sent)
            try:
                self.wfile.write(chunk[:n])
            except (BrokenPipeError, ConnectionResetError):
                return
            sent += n
            if self.server.rate_cap_bps:
                should_take = sent * 8 / self.server.rate_cap_bps
                sleep = should_take - (time.monotonic() - start)
                if sleep > 0:
                    time.sleep(sleep)


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


class TestRateDiscovery:
    def test_rate_from_length_over_duration(self):
        # origin declares duration but no bitrate: 10 MB over 80 s
        class FakeResponse:
            def getheader(self, name):
                return {"X-Stream-Info": "duration=80;seconds=0-",
                        "Content-Length": "10000000"}.get(name)
        from burststream.proxy import SessionConfig, ShapingProxy
        proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0)))
        assert proxy._discover_rate(FakeResponse()) == pytest.approx(1e6)

    def test_no_rate_information_rejected(self):
        class Bare:
            def getheader(self, name):
                return None
        from burststream.proxy import (ProxyError, SessionConfig,
                                       ShapingProxy)
        proxy = ShapingProxy(SessionConfig(listen=("127.0.0.1", 0)))
        with pytest.raises(ProxyError):
            proxy._discover_rate(Bare())


class TestSharedCore:
    def test_same_feedback_gives_identical_decision_trace(self):
        # the proxy drives the very same shaper class the simulation uses;
        # equal feedback sequences must produce equal decisions
        def drive():
            sh = Shaper(StreamSpec.single(1e6, 600.0, 16.0), 1.0)
            sh.end_fast_start(16 * 1e6 / 8)
            for k in range(10):
                obs = BurstObservation(k, 1_000_000, 0.0, 0.0)
                obs.acked_bytes = 1_000_000
                obs.complete = True
                if sh.phase is not Phase.SEARCHING:
                    break
                sh.on_burst_feedback(obs)
            return sh.decision_log
        assert drive() == drive()


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
                assert sock.recv(1024) == b""
        finally:
            proxy.close()
            server.join(timeout=5.0)
        assert not server.is_alive()

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
