"""
Live shaping proxy on loopback
==============================

Spin up a toy origin and the shaping proxy, then stream through it with a
client whose receive buffer emulates a 1.5 MB player at 2 Mbit/s. The
proxy senses the buffer through socket backpressure and settles on a burst
size near the true capacity, all without touching the client's TCP stack.
"""

import threading
import time
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_proxy import _DrainingReader, _Origin, _connect, _read_head  # noqa: E402

from burststream.proxy import SessionConfig, ShapingProxy  # noqa: E402


class DemoOrigin(_Origin):
    def handle_error(self, request, client_address):
        # the proxy drops its origin connection mid-body when the demo
        # closes it: that reset ends the session; any other error is
        # reported as socketserver reports it
        if not isinstance(sys.exc_info()[1], ConnectionResetError):
            super().handle_error(request, client_address)


r_s = 2e6
origin = DemoOrigin(content_bytes=8_000_000, bitrate_bps=r_s)
threading.Thread(target=origin.serve_forever, daemon=True).start()

config = SessionConfig(
    listen=("127.0.0.1", 0),
    origin=f"http://127.0.0.1:{origin.server_address[1]}",
    fast_start_seconds=20.0,     # overruns the client buffer on purpose
    granularity_s=0.5,
    backpressure_s=0.4,
    sndbuf_bytes=65536,
)
proxy = ShapingProxy(config)
addr = proxy.start()
print(f"proxy on {addr[0]}:{addr[1]}, origin on "
      f"127.0.0.1:{origin.server_address[1]}")

sock = _connect(addr, rcvbuf=65536)
head, first = _read_head(sock)
print("response head:")
for line in head.splitlines():
    print("  ", line)

reader = _DrainingReader(sock, buffer_cap_bytes=1_500_000, drain_bps=r_s)
reader.buffered = reader.total = len(first)
reader.start()

deadline = time.monotonic() + 30
bs_opt = None
while time.monotonic() < deadline:
    if proxy.sessions:
        bs_opt = proxy.sessions[0]["shaper"].state.bs_opt_bytes
        if bs_opt:
            break
    time.sleep(0.2)

print(f"\nconverged burst size: {bs_opt / 1e6:.2f} MB "
      f"(client buffer 1.50 MB)")
print("decisions:")
for line in proxy.sessions[0]["shaper"].decision_log:
    print("  ", line)

reader.done = True
sock.close()
proxy.close()
origin.shutdown()
