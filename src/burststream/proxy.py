"""Live HTTP forward proxy that delivers the origin stream in shaped bursts.

One loop thread serves every client session. The proxy fetches the origin
response, relays the head, and is the socket transport of the shaping
loop: it performs each send a ``ShapingController`` asks for (the Fast
Start, then bursts at full socket speed, or continuous chunks under low
bandwidth) and reports what happened. Flow-control feedback comes from
socket backpressure: sustained blocked writes stand in for a zero-window
advertisement, and the byte count accepted up to that point is the
SentBytes estimate of the client's buffer; each send returns the
``BurstObservation`` the controller reads. A body of unknown length is a
stream of infinite duration, as in the simulation.

A session is one generator. Every socket it holds is non-blocking, and it
yields each wait it makes, a ``_Wait`` for a descriptor to turn readable
or writable or for a deadline on ``time.monotonic``, and is resumed with
whether the descriptor turned ready first. The loop holds the listener
and every waiting session in one ``selectors`` selector and a heap of
deadlines: it runs a new session up to its first wait as it accepts the
connection, and each waiting one up to its next wait as that wait ends.
An origin named by a numeric address is connected on the loop; a name is
looked up on a pool of at most ``LOOKUP_THREADS`` threads, so that
however many sessions name origins, the proxy runs no more threads; while
that many lookups are in flight, a later named origin waits for one of
them to end. ``close()`` closes every session generator, whose ``finally``
blocks close its sockets and pipe and write its log rows, and stops the
lookup threads.

The session reads each send's bytes from the origin itself, so the
origin is flow-controlled by the same backpressure and no copy of the body
is kept beyond the send in hand. A send writes its held bytes, then
``take`` per slice: each body source has one pull step, ``take(want)``,
which reads its next slice of at most ``want`` bytes and one slab
(``SLAB_BYTES``) from the origin, and the writer takes the next slice
only once the client has accepted the last. A send whose time is still
ahead collects its bytes during the wait instead, so a paced origin's
burst still leaves at full speed. Bytes a zero window leaves unaccepted are
offered first by the next send; bytes not yet read stay in the origin
socket. The origin reads of a send that does not end the body also
measure the origin's fill rate, which caps the bandwidth estimate; what is
left at the end is drained. Every decision is the controller's, as in the
simulation (``tests/test_proxy.py::TestSharedCore`` replays both), and
``--log`` gets each session's burst rows through ``write_burst_log``, as
``burststream run --out`` does.

Raw ACK capture would need privileged packet access; backpressure sensing
needs none and provides the same two facts (buffer full, bytes accepted).

The proxy fetches from the origin itself: one write of the request that
http.client sends (``GET``, ``Host``, ``Accept-Encoding: identity`` and
the client's ``Range``), then a read of exactly the response head, which
peeks at what has arrived and takes no byte past the head, so the body
is still in the origin socket when the relay starts. The origin response
is that head alone; the session closes its socket when it ends. Each body
source reads the socket and keeps the one count of the body bytes it has
not yet read, ``unread``: the declared length less what it has read,
unbounded for a body of unknown length until the body ends, and 0 once
the body has ended, early or not. Where the platform has ``os.splice``
(Linux), a body of declared length (a 200 or 206 with a
``Content-Length`` and no chunked coding) does not pass through Python's
memory: from its first byte, the session splices each slice from the
origin socket into one pipe of ``SLAB_BYTES`` and from the pipe to the
client socket. The pipe takes the slab's place and every rule above
holds; the pipe is empty between sends, as bytes a zero window leaves or
a read-ahead collects are read back out of it. A chunked body, which the
proxy decodes, a body of unknown length, and every body on a platform
without ``os.splice`` are read into a slab. A decoded chunked body goes to
the client without the origin's ``Content-Length``; the close of the
connection ends it.

A request the proxy cannot serve is answered before any response head has
gone out: 400 for a head it cannot parse or resolve to an origin, that
has more than one ``Host`` line, or that has a folded line or whitespace
between a field name and its colon, 408 for a head not complete within
``HEAD_TIMEOUT_S``, 501 for a method other than GET, 502 when the origin
connection or request fails or the origin's head is malformed, over
64 KiB, or gives no usable rate or ``Content-Length`` (lines whose values
differ give none, and so does a value that is not all digits), or a
transfer coding other than a lone ``chunked``. The proxy then ends its
side and drops what the client still sends, briefly, before it closes, so
that an unread request body cannot reset the connection under the
answer. A session serves one request: bytes that follow its head, a
pipelined request's too, are dropped.
"""

from __future__ import annotations

import errno
import heapq
import http.client
import itertools
import logging
import math
import os
import re
import selectors
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, suppress
from dataclasses import dataclass
from http import HTTPStatus
from pathlib import Path
from typing import (Callable, Dict, Generator, List, NamedTuple, Optional,
                    Tuple, TypeVar, Union)
from urllib.parse import SplitResult, urlsplit

from .errors import FieldError, positive_finite
from .mediahttp import StreamInfo
from .profiler import BurstObservation
from .shaper import (Report, Shaper, ShapingController, StreamSpec,
                     write_burst_log)

log = logging.getLogger(__name__)


@dataclass
class SessionConfig:
    listen: Tuple[str, int] = ("127.0.0.1", 8800)
    origin: Optional[str] = None          # override, e.g. http://host:port
    fast_start_seconds: float = 20.0
    granularity_s: float = 1.0
    rate_override_bps: Optional[float] = None
    log_path: Optional[str] = None
    backpressure_s: float = 0.5
    sndbuf_bytes: Optional[int] = None    # client-facing send buffer
    low_bw_chunk_s: float = 0.25

    def __post_init__(self) -> None:
        for name in ("fast_start_seconds", "granularity_s", "backpressure_s",
                     "low_bw_chunk_s", "rate_override_bps", "sndbuf_bytes"):
            value = getattr(self, name)
            if value is not None or name not in ("rate_override_bps",
                                                 "sndbuf_bytes"):
                positive_finite(name, value)
        if self.origin is not None:
            base = urlsplit(self.origin)
            try:
                port = base.port     # a port that is no number or too big
            except ValueError:
                port = 0
            if base.scheme != "http" or not base.hostname or port == 0:
                raise FieldError("origin", f"http://host[:port] with a port "
                                 f"in 1-65535, not {self.origin!r}")


SLAB_BYTES = 1 << 18     # origin bytes a send reads, and writes, at a time
ORIGIN_TIMEOUT_S = 30.0  # the longest wait for the origin's next byte, and
                         # for its whole response head
HEAD_TIMEOUT_S = 10.0    # the longest wait for the client's whole request head
HEAD_BYTES = 65536       # the longest head read, from the client or origin
_SPLICE = hasattr(os, "splice")    # body bytes can skip Python (Linux)


def _bare(exc: Exception) -> Exception:
    """``exc`` without its frames and context: the session report keeps
    the error, and its frames would hold the buffer."""
    exc.__traceback__ = exc.__context__ = None
    return exc


class _Wait(NamedTuple):
    """What a session waits for: descriptor ``fd`` to turn writable, or
    readable unless ``writable``, or ``time.monotonic()`` to reach
    ``deadline``, whichever comes first. An ``fd`` of -1 waits for the
    deadline alone. The session is resumed with True if the descriptor
    turned ready first, else False."""

    fd: int
    writable: bool
    deadline: float


_T = TypeVar("_T")
# a session, or a step of one: it yields its waits, is resumed with their
# outcomes, and returns a ``_T``
_Steps = Generator[_Wait, bool, _T]


def _ready(fd: int, writable: bool, deadline: float) -> _Steps[None]:
    """Wait for ``fd`` to turn readable (writable if ``writable``); a
    TimeoutError if ``deadline`` comes first."""
    if not (yield _Wait(fd, writable, deadline)):
        raise TimeoutError("timed out")


def _send_all(sock: socket.socket, data: bytes,
              deadline: float) -> _Steps[None]:
    """Write all of ``data`` to the non-blocking ``sock`` by
    ``deadline``."""
    view = memoryview(data)
    while view:
        try:
            view = view[sock.send(view):]
        except BlockingIOError:
            yield from _ready(sock.fileno(), True, deadline)


def _head_end(data: Union[bytes, bytearray], start: int = 0) -> int:
    """The offset just past the first empty line that a search of
    ``data`` from ``start`` finds, or -1 if there is none yet. Lines end
    in CRLF or a bare LF. The search steps from line break to line break,
    so it reads no further than the head: the body after it may be long
    and hold any bytes."""
    i = data.find(b"\n", start)
    while i >= 0:
        if data[i + 1:i + 2] == b"\n":
            return i + 2
        if data[i + 1:i + 3] == b"\r\n":
            return i + 3
        i = data.find(b"\n", i + 1)
    return -1


# a character that cannot go into a request line or Host header: a control
# character, a space or a byte beyond ASCII
_UNSENDABLE = re.compile("[^\x21-\x7e]")


def _origin_request(host: str, port: int, path: str,
                    wanted: Optional[str]) -> bytes:
    """The request for ``path`` from ``host:port``, byte for byte as
    http.client sends it, with the client's Range ``wanted`` if it gave
    one. A ValueError where the target, the host or the Range cannot go
    into a request."""
    if _UNSENDABLE.search(path):
        raise ValueError("the target has a control, space or non-ASCII "
                         "character")
    if wanted is not None and "\r" in wanted:
        raise ValueError("the Range header has a bare CR")
    if not host.isascii():
        host = host.encode("idna").decode("ascii")
    if _UNSENDABLE.search(host):
        raise ValueError("the host has a control or space character")
    if ":" in host:     # an IPv6 address, without its zone
        host = f"[{host.partition('%')[0]}]"
    lines = [f"GET {path} HTTP/1.1",
             f"Host: {host}" if port == 80 else f"Host: {host}:{port}",
             "Accept-Encoding: identity"]
    if wanted:
        lines.append(f"Range: {wanted}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _read_origin_head(sock: socket.socket,
                      deadline: float) -> _Steps[bytes]:
    """Take one response head from ``sock`` by ``deadline``, and no byte
    past it. Each step peeks at what has arrived: if the head ends there,
    it takes the head up to its end, else it takes all it saw and waits for
    more, so a trickling origin is never polled in a loop."""
    head = bytearray()
    while True:
        try:
            seen = sock.recv(HEAD_BYTES + 1 - len(head), socket.MSG_PEEK)
        except BlockingIOError:
            yield from _ready(sock.fileno(), False, deadline)
            continue
        if not seen:
            raise ProxyError("origin closed before its head ended", 502)
        end = _head_end(head + seen if head else seen,
                        max(len(head) - 2, 0))
        want = len(seen) if end < 0 else end - len(head)
        got = sock.recv(want)
        head += got
        if len(head) > HEAD_BYTES:
            raise ProxyError(f"origin head over {HEAD_BYTES} bytes", 502)
        if end >= 0 and len(got) == want:
            return bytes(head)


_STATUS_LINE = re.compile(r"HTTP/\d\.\d\s+([1-9]\d\d)(?:\s+(.*))?")


class _OriginResponse:
    """The head of the origin's answer to one GET, read whole; its body is
    still in the non-blocking origin socket ``sock``, which closing the
    response closes. ``length`` is the body's declared length: None for a
    chunked body or a ``Content-Length`` that does not read as one count
    of digits, 0 for a 1xx, 204 or 304. A transfer coding other than a
    lone ``chunked``, the one framing the proxy decodes, is a 502: the
    proxy asks for none."""

    def __init__(self, sock: socket.socket, head: bytes):
        self.sock = sock
        lines = head.decode("latin-1").split("\n")
        match = _STATUS_LINE.fullmatch(lines[0].strip())
        if match is None:
            raise ProxyError(f"bad origin status line {lines[0]!r}", 502)
        self.status = int(match[1])
        self.reason = (match[2] or "").strip()
        self.headers: List[Tuple[str, str]] = []
        for line in lines[1:]:
            line = line.rstrip("\r")
            if line[:1] in (" ", "\t") and self.headers:   # a folded line
                name, value = self.headers[-1]
                self.headers[-1] = (name, f"{value} {line.strip()}")
                continue
            name, colon, value = line.partition(":")
            if colon:
                self.headers.append((name, value.strip()))
        self._values: Dict[str, List[str]] = {}    # by lower-case name
        for name, value in self.headers:
            self._values.setdefault(name.lower(), []).append(value)
        coding = self.getheader("Transfer-Encoding")
        if coding is not None and coding.lower() != "chunked":
            raise ProxyError(f"origin transfer coding {coding!r} is not a "
                             f"lone chunked", 502)
        self.chunked = coding is not None
        self.length: Optional[int] = None
        # Content-Length lines whose values differ declare no one length,
        # and a value is digits alone (RFC 9110 8.6): no sign, space or _
        declared = set(self._values.get("content-length", ()))
        if len(declared) == 1 and not self.chunked:
            value = declared.pop()
            if value.isascii() and value.isdigit():
                self.length = int(value)
        if self.status in (204, 304) or self.status < 200:
            self.length = 0

    def getheader(self, name: str) -> Optional[str]:
        """Header ``name``'s value, its values joined by ", " if it came
        more than once."""
        values = self._values.get(name.lower())
        return ", ".join(values) if values else None

    def close(self) -> None:
        self.sock.close()


# the threads that look origin names up, per proxy: while that many lookups
# are in flight, a later named origin waits for one of them to end. The
# count is a guess, not measured against real traffic; BENCH_24.json's
# named_origin rows give its cost with a fake resolver that sleeps
LOOKUP_THREADS = 4


def _lookup(pool: ThreadPoolExecutor, host: str, port: int,
            deadline: float) -> _Steps[list]:
    """The addresses of ``host:port``, looked up on ``pool`` by
    ``deadline``. The session waits for a pipe that the lookup's end
    closes; a lookup still queued when the session stops waiting is
    skipped."""
    done, finish = os.pipe()
    try:
        found = pool.submit(socket.getaddrinfo, host, port,
                            type=socket.SOCK_STREAM)
    except BaseException:
        os.close(done)
        os.close(finish)
        raise
    found.add_done_callback(lambda _: os.close(finish))
    try:
        yield from _ready(done, False, deadline)
    finally:
        found.cancel()
        os.close(done)
    return found.result()


def _connect(host: str, port: int, deadline: float,
             lookups: ThreadPoolExecutor) -> _Steps[socket.socket]:
    """A non-blocking socket connected to ``host:port`` by ``deadline``,
    trying each of its addresses in turn, as
    ``socket.create_connection`` does."""
    try:                # a numeric address takes no lookup
        addresses = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM,
                                       flags=socket.AI_NUMERICHOST)
    except socket.gaierror:
        addresses = yield from _lookup(lookups, host, port, deadline)
    error: Optional[BaseException] = None
    for family, kind, proto, _, address in addresses:
        sock = socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            code = sock.connect_ex(address)
            if code == errno.EINPROGRESS:
                yield from _ready(sock.fileno(), True, deadline)
                code = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if code:
                raise OSError(code, os.strerror(code))
            return sock
        except BaseException as exc:
            sock.close()
            if not isinstance(exc, OSError):
                raise
            error = exc
    raise error or OSError(f"no address for {host!r}")


def _fetch(host: str, port: int, path: str, wanted: Optional[str],
           lookups: ThreadPoolExecutor) -> _Steps[_OriginResponse]:
    """Send the origin the request for ``path`` and read its response
    head, skipping any ``100 Continue``; one ``ORIGIN_TIMEOUT_S`` covers
    the connection and every head. A ProxyError with the client's answer
    where it fails."""
    try:
        request = _origin_request(host, port, path, wanted)
    except ValueError as exc:
        raise ProxyError(f"cannot request {path!r} from {host}:{port}: "
                         f"{exc}", 400) from exc
    deadline = time.monotonic() + ORIGIN_TIMEOUT_S
    sock = None
    try:
        sock = yield from _connect(host, port, deadline, lookups)
        yield from _send_all(sock, request, deadline)
        while True:
            response = _OriginResponse(
                sock, (yield from _read_origin_head(sock, deadline)))
            if response.status != 100:
                return response
    except BaseException as exc:
        if sock is not None:
            sock.close()
        if isinstance(exc, OSError):
            raise ProxyError(f"origin {host}:{port} failed: {exc!r}",
                             502) from exc
        raise


# a field line that a prefix match would misread: a folded line, which
# starts with SP or HTAB (RFC 9112 §5.2), or whitespace between a field
# name and its colon (§5.1)
_BAD_FIELD_LINE = re.compile(r"\n[ \t]|\n[^:\r\n]*[ \t]:")


def _headers(head: str, name: str) -> List[str]:
    """The values of header ``name`` in the request ``head``, one per
    line."""
    prefix = name.lower() + ":"
    return [line.split(":", 1)[1].strip() for line in head.split("\n")[1:]
            if line.lower().startswith(prefix)]


def _path_and_query(split: SplitResult) -> str:
    """The origin-form target (path and query) of a split absolute URI."""
    path = split.path or "/"
    return f"{path}?{split.query}" if split.query else path


def _status_head(status: int, reason: str) -> bytes:
    """A bodyless response head that closes the connection."""
    return (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Length: 0\r\nConnection: close\r\n\r\n"
            ).encode("latin-1")


def _discard_input(conn: socket.socket) -> _Steps[None]:
    """Read and drop what the client sends until it closes, for at most
    1 s and 1 MiB, so that one client cannot hold its session. Closing a
    socket with input unread resets the connection, and a reset can
    destroy an answer the client has not read yet."""
    deadline = time.monotonic() + 1.0
    left = 1 << 20
    while left > 0:
        try:
            data = conn.recv(min(left, 65536))
        except BlockingIOError:
            if not (yield _Wait(conn.fileno(), False, deadline)):
                return
            continue
        if not data:
            return
        left -= len(data)


def _client_head(response: _OriginResponse) -> bytes:
    """The origin's response head as the client gets it: without the
    origin's framing and connection headers, and closing the connection
    after the body. A chunked body goes out decoded, so any
    ``Content-Length`` beside its coding goes too."""
    dropped = ("transfer-encoding", "connection", "content-length") \
        if response.chunked else ("transfer-encoding", "connection")
    lines = [f"HTTP/1.1 {response.status} {response.reason}"]
    lines += [f"{name}: {value}" for name, value in response.headers
              if name.lower() not in dropped]
    lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


# a slice of the body: bytes in memory, or bytes waiting in a pipe
_Slice = Union[memoryview, "_Piped"]


class _BackpressureWriter:
    """Non-blocking writes with leaky blocked-time accounting.

    Time spent waiting for writability accumulates; each accepted byte
    credits back the time it would take at a healthy reference rate (a
    multiple of the encoding rate). A socket draining only at the encoding
    rate therefore accumulates past ``threshold_s`` and is treated as the
    client's buffer being full; the bytes accepted up to that point are the
    SentBytes estimate. A plain consecutive-block detector would miss this,
    because the kernel keeps accepting dribbles as the receiver drains.
    Time is read from ``clock``, ``time.monotonic`` unless one is given.
    """

    def __init__(self, sock: socket.socket, threshold_s: float,
                 credit_bps: float,
                 clock: Optional[Callable[[], float]] = None):
        self.sock = sock
        self.fd = sock.fileno()
        self.threshold_s = threshold_s
        self.credit_bps = credit_bps
        self.clock = clock or time.monotonic
        sock.setblocking(False)

    def write_burst(self, held: memoryview,
                    take: Callable[[float], _Steps[Optional[_Slice]]],
                    size_bytes: float, burst_id: int, start_byte: int,
                    abort_on_zwa: bool = True,
                    ) -> _Steps[Tuple[BurstObservation, memoryview]]:
        """Write burst ``burst_id``, ``size_bytes`` of the stream from
        ``start_byte`` on: ``held`` first, then each slice that
        ``take(size_bytes - sent)`` gives, taken only once the socket has
        accepted the last, until ``size_bytes`` are sent or ``take`` gives
        None; each wait that taking a slice makes is passed on. Socket
        backpressure over the whole burst, in one account, stands in for
        its ACKs; a burst whose every byte offered was accepted has the
        size it sent. Each wait for the socket lasts at most 0.05 s and
        adds at most that to the account, however late the loop resumes
        the writer. Returns the observation and the unaccepted rest of the
        slice in hand, which is empty unless the burst stopped early; a
        slice in a pipe is spliced to the socket, and its rest read back
        out."""
        sent = 0
        blocked = 0.0
        zwa = False
        zwa_at: Optional[int] = None
        rest = memoryview(b"")
        view: Optional[_Slice] = held
        start = self.clock()
        while view is not None:
            done = 0
            while done < len(view):
                try:
                    n = self.sock.send(view[done:]) \
                        if isinstance(view, memoryview) \
                        else view.splice_to(self.fd, done)
                except BlockingIOError:
                    n = 0
                if n > 0:
                    done += n
                    blocked = max(0.0, blocked - n * 8.0 / self.credit_bps)
                    continue
                t0 = self.clock()
                yield _Wait(self.fd, True, t0 + 0.05)
                blocked += min(self.clock() - t0, 0.05)
                if blocked >= self.threshold_s:
                    if not zwa:
                        zwa = True
                        zwa_at = sent + done
                    if abort_on_zwa:
                        break
                    blocked = 0.0
            sent += done
            if done < len(view):
                rest = view[done:] if isinstance(view, memoryview) \
                    else view.read(done)
                break
            view = None           # frees the accepted slice before the next
            if sent < size_bytes:
                view = yield from take(size_bytes - sent)
        else:
            size_bytes = sent          # every byte offered was accepted
        end = self.clock()
        return BurstObservation(
            burst_id, size_bytes, start_byte, start, start, end, sent,
            sent >= size_bytes, zwa, end if zwa else None, zwa_at), rest


class _SlabBody:
    """The origin body read into a slab per slice; the one source that
    decodes a chunked body. ``unread`` counts the body bytes not yet read:
    unbounded for a body of unknown length until it ends, and 0 once the
    body has ended."""

    def __init__(self, response: _OriginResponse,
                 errors: List[Exception]):
        self.sock = response.sock
        self.chunked = response.chunked
        self.errors = errors            # gets the error that ends the body
        self.unread = math.inf if response.length is None \
            else response.length
        self._chunk_left: Optional[int] = None  # of the chunk in hand; 0
                                                # until its CRLF is read
        self._trailer = False         # the last chunk has been read
        self._framing = bytearray()   # chunked-body bytes received past
                                      # the framing read so far

    def take(self, want: float) -> _Steps[Optional[memoryview]]:
        """The next body bytes, up to ``want`` and one slab, read into a
        new slab; None once the body has ended. A slice shorter than both
        means the body has ended. Reads take at most 64 KiB each, so an
        error mid-body loses no byte read before it. Each wait for the
        origin lasts at most ``ORIGIN_TIMEOUT_S``."""
        if not self.unread:
            return None
        slab = memoryview(bytearray(min(SLAB_BYTES, want, self.unread)))
        got = 0
        try:
            while got < len(slab) and self.unread:
                try:
                    got += self._readinto(slab[got:got + 65536])
                except BlockingIOError:
                    yield from _ready(self.sock.fileno(), False,
                                      time.monotonic() + ORIGIN_TIMEOUT_S)
        except (OSError, http.client.HTTPException) as exc:
            self.unread = 0
            self.errors.append(_bare(exc))
        return slab[:got] if got else None

    def _readinto(self, view: memoryview) -> int:
        """Read the next body bytes into ``view``, which ``unread``
        bounds, and count them off; the body ends where the origin ends
        the stream. An IncompleteRead where that end comes early, with the
        bytes still expected. A BlockingIOError where no byte has arrived
        yet."""
        if self.chunked:
            return self._readinto_chunked(view)
        n = self.sock.recv_into(view)
        if n:
            self.unread -= n
        elif self.unread < math.inf:
            raise http.client.IncompleteRead(b"", self.unread)
        else:
            self.unread = 0
        return n

    def _readinto_chunked(self, view: memoryview) -> int:
        """The chunked form of ``_readinto``: chunk extensions and trailer
        fields are read and dropped. Each framing line read moves the
        state on, so a call that has to wait for the next one resumes
        there."""
        while not self._chunk_left:
            try:
                line = self._line()
                if self._trailer:
                    if line in (b"\r\n", b"\n", b""):
                        self.unread = 0
                        return 0
                elif self._chunk_left == 0:  # the CRLF after a chunk's data
                    self._chunk_left = None
                else:
                    size = int(line.split(b";", 1)[0], 16)
                    if size < 0:
                        raise ValueError(f"chunk size {size}")
                    self._chunk_left = size
                    self._trailer = not size    # the last chunk
            except ValueError:
                raise http.client.IncompleteRead(b"") from None
        view = view[:self._chunk_left]
        if self._framing:
            n = min(len(view), len(self._framing))
            view[:n] = self._framing[:n]
            del self._framing[:n]
        else:
            n = self.sock.recv_into(view)
            if not n:
                raise http.client.IncompleteRead(b"", self._chunk_left)
        self._chunk_left -= n
        return n

    def _line(self) -> bytes:
        """The next line of a chunked body's framing, b"" if the origin
        ended the stream first."""
        while (end := self._framing.find(b"\n")) < 0:
            if len(self._framing) > HEAD_BYTES:
                raise ValueError("chunk framing line too long")
            data = self.sock.recv(65536)
            if not data:
                return b""
            self._framing += data
        line = bytes(self._framing[:end + 1])
        del self._framing[:end + 1]
        return line

    def close(self) -> None:
        pass


class _Piped:
    """A slice of ``size`` body bytes waiting in the pipe ``fd``."""

    __slots__ = ("fd", "size")

    def __init__(self, fd: int, size: int):
        self.fd = fd
        self.size = size

    def __len__(self) -> int:
        return self.size

    def splice_to(self, sock_fd: int, done: int) -> int:
        """Splice the bytes after the ``done`` already taken to the
        non-blocking socket ``sock_fd``; return the count it accepted."""
        return os.splice(self.fd, sock_fd, self.size - done,
                         flags=os.SPLICE_F_NONBLOCK)

    def read(self, done: int = 0) -> memoryview:
        """Read the bytes after the ``done`` already taken out of the
        pipe, which is then empty."""
        view = memoryview(bytearray(self.size - done))
        got = 0
        while got < len(view):
            got += os.readv(self.fd, [view[got:]])
        return view


class _SplicedBody:
    """A body of declared length moved from the origin socket to the
    client socket through one pipe with ``os.splice``, from its first
    byte; ``unread`` counts what is left of it."""

    def __init__(self, response: _OriginResponse,
                 errors: List[Exception]):
        self.errors = errors            # gets the error that ends the body
        self.pipe: Optional[Tuple[int, int]] = None
        self.unread = response.length
        if not self.unread:
            return
        import fcntl             # where os.splice is, so is fcntl
        self.origin_fd = response.sock.fileno()
        self.pipe = os.pipe()
        with suppress(OSError):  # over the user's pipe limit: any size does
            fcntl.fcntl(self.pipe[1], fcntl.F_SETPIPE_SZ, SLAB_BYTES)

    def take(self, want: float) -> _Steps[Optional[_Piped]]:
        """The next body bytes, up to ``want`` and one pipe-full, spliced
        from the origin into the empty pipe, waiting up to
        ``ORIGIN_TIMEOUT_S`` for the first; None once the body has ended.
        The slice must leave the pipe before the next is taken. An error or
        an early end of the body is recorded, and ends it after these
        bytes."""
        if not self.unread:
            return None
        size = min(want, SLAB_BYTES, self.unread)
        got = 0
        try:
            while got < size:
                try:
                    n = os.splice(self.origin_fd, self.pipe[1], size - got,
                                  flags=os.SPLICE_F_NONBLOCK)
                except BlockingIOError:
                    if got:
                        break    # the origin has no more yet, or the pipe
                                 # is full
                    yield from _ready(self.origin_fd, False,
                                      time.monotonic() + ORIGIN_TIMEOUT_S)
                    continue
                if not n:
                    raise http.client.IncompleteRead(b"", self.unread - got)
                got += n
        except (OSError, http.client.HTTPException) as exc:
            self.errors.append(_bare(exc))
            self.unread = got        # these bytes are the last
        self.unread -= got
        return _Piped(self.pipe[0], got) if got else None

    def close(self) -> None:
        if self.pipe is not None:
            for fd in self.pipe:
                os.close(fd)
            self.pipe = None


_Body = Union[_SlabBody, _SplicedBody]


def _origin_body(response: _OriginResponse,
                 errors: List[Exception]) -> _Body:
    """The source of ``response``'s body: spliced where the platform can
    and the body has a declared length, else read into a slab, which
    alone decodes a chunked body."""
    if _SPLICE and response.length is not None:
        return _SplicedBody(response, errors)
    return _SlabBody(response, errors)


class _OriginReader:
    """One send's reads of the origin body; their bytes and seconds give
    the origin's fill rate."""

    def __init__(self, body: _Body):
        self.body = body
        self.read_bytes = 0
        self.read_s = 0.0

    def take(self, want: float) -> _Steps[Optional[_Slice]]:
        """The body's next slice of up to ``want`` bytes, timed; None once
        the body has ended."""
        t = time.monotonic()
        piece = yield from self.body.take(want)
        self.read_s += time.monotonic() - t
        if piece is not None:
            self.read_bytes += len(piece)
        return piece

    def read_ahead(self, held: memoryview, size: int) -> _Steps[memoryview]:
        """``held``, then the body bytes after it up to ``size`` in all, in
        one buffer."""
        buf = bytearray(held)
        while len(buf) < size and \
                (piece := (yield from self.take(size - len(buf)))) is not None:
            buf += piece if isinstance(piece, memoryview) else piece.read()
        return memoryview(buf)

    def fill_bps(self) -> Optional[float]:
        """The rate of these reads, if they read a byte and the body goes
        on; a read that ends the body says nothing of the origin's
        rate."""
        if not self.read_bytes or not self.body.unread:
            return None
        return self.read_bytes * 8.0 / max(self.read_s, 1e-6)


class ProxyError(RuntimeError):
    """A session the proxy cannot serve. ``status`` is the HTTP status the
    client is answered with; it is set only where no response head has
    gone out yet and the client is still there to read one."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class ShapingProxy:
    """Forward proxy applying burst shaping per client session.

    ``start()`` opens the listener and starts the loop thread, which runs
    every session until ``close()``. The loop thread alone touches the
    selector, the deadline heap and the sessions' sockets."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self.sessions: List[dict] = []   # per-session report dicts
        self._listener: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._loop: Optional[threading.Thread] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._wake: Tuple[socket.socket, ...] = ()   # close() writes to [1]
        # each waiting session: the descriptor it waits for, -1 for none,
        # and its entry in the heap of deadlines
        self._waiting: Dict[_Steps[None], Tuple[int, list]] = {}
        # [deadline, sequence number, session or None once it was woken
        # by its descriptor]
        self._deadlines: List[list] = []
        self._woken = 0                  # heap entries whose session is None
        self._order = itertools.count()
        self._lookups = ThreadPoolExecutor(
            LOOKUP_THREADS, thread_name_prefix="burststream-lookup")

    # -- lifecycle --------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        self._listener = socket.create_server(self.config.listen)
        self._listener.setblocking(False)
        self._wake = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake[0], selectors.EVENT_READ)
        self._loop = threading.Thread(target=self._serve, daemon=True,
                                      name="burststream-proxy")
        self._loop.start()
        return self._listener.getsockname()[:2]

    def serve_forever(self) -> None:
        """Serve until closed, starting the listener unless ``start()``
        already opened it."""
        if self._listener is None:
            self.start()
        try:
            self._stop.wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Stop the loop, which closes every session, and wait for it; then
        stop the lookup threads without waiting for them. A lookup in
        progress runs to its end on its thread, which the interpreter
        waits for at exit."""
        self._stop.set()
        if self._loop is None:
            return
        with suppress(OSError):          # closed by an earlier close()
            self._wake[1].send(b"\0")
        self._loop.join()
        self._wake[1].close()
        self._lookups.shutdown(wait=False, cancel_futures=True)

    # -- the loop ------------------------------------------------------------

    def _serve(self) -> None:
        """Wake each session as its descriptor turns ready or its deadline
        comes, and accept connections, until ``close()``."""
        try:
            while True:
                timeout = None
                if self._deadlines:
                    timeout = max(self._deadlines[0][0] - time.monotonic(),
                                  0.0)
                for key, _ in self._selector.select(timeout):
                    if key.fileobj is self._wake[0]:
                        return
                    if key.fileobj is self._listener:
                        self._accept()
                        continue
                    fd, entry = self._waiting.pop(key.data)
                    self._selector.unregister(fd)
                    entry[2] = None
                    self._woken += 1
                    self._advance(key.data, True)
                now = time.monotonic()
                while self._deadlines and self._deadlines[0][0] <= now:
                    session = heapq.heappop(self._deadlines)[2]
                    if session is None:
                        self._woken -= 1
                        continue
                    fd, _ = self._waiting.pop(session)
                    if fd >= 0:
                        self._selector.unregister(fd)
                    self._advance(session, False)
                if self._woken > 256 and \
                        2 * self._woken > len(self._deadlines):
                    self._deadlines = [e for e in self._deadlines
                                       if e[2] is not None]
                    heapq.heapify(self._deadlines)
                    self._woken = 0
        finally:
            for session, (fd, _) in list(self._waiting.items()):
                if fd >= 0:
                    self._selector.unregister(fd)
                try:
                    session.close()
                except Exception:       # a fault past the session's guard
                    log.exception("session close failed")
            self._waiting.clear()
            self._deadlines.clear()
            self._selector.close()
            self._listener.close()
            self._wake[0].close()

    def _accept(self) -> None:
        """Accept every waiting connection and run its session up to its
        first wait."""
        while True:
            try:
                conn, addr = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:      # out of descriptors, say
                log.warning("accept failed: %s", exc)
                self._selector.unregister(self._listener)
                self._advance(self._listen_later(), None)
                return
            conn.setblocking(False)
            self._advance(self._session(conn, addr), None)

    def _listen_later(self) -> _Steps[None]:
        """Accept again in a second, when sessions that ended meanwhile
        may have freed what the last accept lacked."""
        yield _Wait(-1, False, time.monotonic() + 1.0)
        self._selector.register(self._listener, selectors.EVENT_READ)

    def _advance(self, session: _Steps[None], answer: Optional[bool]) -> None:
        """Resume ``session`` with ``answer`` and file the wait it yields
        next, unless it has ended."""
        try:
            wait = session.send(answer)
        except StopIteration:
            return
        except Exception:               # a fault past the session's guard
            log.exception("session step failed")
            return
        if wait.fd >= 0:
            self._selector.register(
                wait.fd, selectors.EVENT_WRITE if wait.writable
                else selectors.EVENT_READ, session)
        entry = [wait.deadline, next(self._order), session]
        heapq.heappush(self._deadlines, entry)
        self._waiting[session] = (wait.fd, entry)

    # -- per-session machinery ---------------------------------------------

    def _session(self, conn: socket.socket, addr) -> _Steps[None]:
        """One client session on the non-blocking ``conn``; any failure
        ends it alone."""
        try:
            yield from self._run_session(conn, addr)
        except Exception as exc:              # session isolation
            log.warning("session %s failed: %s", addr, exc)
            if isinstance(exc, ProxyError) and exc.status is not None:
                answer = _status_head(exc.status,
                                      HTTPStatus(exc.status).phrase)
                with suppress(OSError):
                    yield from _send_all(conn, answer, time.monotonic() +
                                         HEAD_TIMEOUT_S)
                    conn.shutdown(socket.SHUT_WR)
                    yield from _discard_input(conn)
        finally:
            conn.close()

    def _read_request_head(self, conn: socket.socket) -> _Steps[str]:
        """The client's request head, without the bytes that came after
        it, which are dropped; one ``HEAD_TIMEOUT_S`` deadline covers the
        whole head."""
        deadline = time.monotonic() + HEAD_TIMEOUT_S
        data = bytearray()
        while True:
            try:
                chunk = conn.recv(4096)
            except BlockingIOError:
                if not (yield _Wait(conn.fileno(), False, deadline)):
                    raise ProxyError(f"request head not complete within "
                                     f"{HEAD_TIMEOUT_S:g} s", 408) from None
                continue
            if not chunk:
                raise ProxyError("client closed before sending a request")
            # a terminator may straddle the previous chunk's last bytes
            tail = max(len(data) - 2, 0)
            data += chunk
            if len(data) > HEAD_BYTES:
                raise ProxyError("request head too large", 400)
            end = _head_end(data, tail)
            if end >= 0:
                return data[:end].decode("latin-1")

    def _resolve_origin(self, head: str) -> Tuple[str, int, str]:
        request_line = head.split("\r\n", 1)[0].split("\n", 1)[0]
        parts = request_line.split(" ")
        if len(parts) < 3:
            raise ProxyError(f"malformed request line: {request_line!r}", 400)
        if parts[0] != "GET":
            raise ProxyError(f"unsupported method: {request_line!r}", 501)
        target = parts[1]
        if _BAD_FIELD_LINE.search(head):
            raise ProxyError("folded header line or whitespace before a "
                             "colon", 400)
        hosts = _headers(head, "Host")
        if len(hosts) > 1:
            raise ProxyError(f"{len(hosts)} Host headers", 400)
        if self.config.origin:
            base = urlsplit(self.config.origin)
            path = target if target.startswith("/") else \
                _path_and_query(urlsplit(target))
            return base.hostname, base.port or 80, path
        if target.startswith("http://"):
            split = urlsplit(target)
            netloc, path = split.netloc, _path_and_query(split)
        else:
            # relative target: use the Host header
            if not hosts:
                raise ProxyError("cannot resolve origin (no override, "
                                 "absolute URI, or Host header)", 400)
            netloc, path = hosts[0], target
        try:
            address = urlsplit("//" + netloc)
            port = address.port     # a port that is no number or too big
        except ValueError as exc:
            raise ProxyError(f"bad origin {netloc!r}: {exc}", 400) from exc
        if not address.hostname or port == 0:
            raise ProxyError(f"bad origin {netloc!r}", 400)
        return address.hostname, port or 80, path

    def _discover_rate(self, response) -> float:
        """Encoding rate: X-Stream-Info bitrate, else the override, else
        content length over declared duration. A ``Content-Length`` that
        does not read as one count (lines whose values differ, say), or a
        rate that is not > 0 and finite, would fail the session after its
        head went out, so each is a bad gateway too."""
        declared = response.getheader("Content-Length")
        if response.length is None and declared is not None and \
                not response.chunked:
            raise ProxyError(f"bad Content-Length {declared!r}", 502)
        header = response.getheader("X-Stream-Info") or ""
        try:
            info = StreamInfo.parse(header)
            if info.get("bitrate") is not None:
                rate = info.bitrate_bps
            elif self.config.rate_override_bps:
                rate = self.config.rate_override_bps
            else:
                duration = info.duration_s
                length = response.length
                if not (duration and length and duration > 0):
                    raise ProxyError("origin does not declare a bitrate "
                                     "and no --rate-override-bps given", 502)
                rate = length * 8.0 / duration
            positive_finite("stream rate", rate)
        except ValueError as exc:         # ProtocolError or a bad number
            raise ProxyError(f"bad X-Stream-Info {header!r}: {exc}",
                             502) from exc
        return rate

    def _run_session(self, conn: socket.socket, addr) -> _Steps[None]:
        cfg = self.config
        if cfg.sndbuf_bytes:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                            cfg.sndbuf_bytes)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        head = yield from self._read_request_head(conn)
        host, port, path = self._resolve_origin(head)

        # the client's Range (the protocol's ``seconds=N-``) goes on to the
        # origin, whose 206 or 204 answers it
        wanted = next(iter(_headers(head, "Range")), None)
        response = yield from _fetch(host, port, path, wanted,
                                     self._lookups)
        with closing(response):
            yield from self._relay(conn, addr, response, f"{host}:{port}")

    def _relay(self, conn: socket.socket, addr,
               response: _OriginResponse, origin_name: str) -> _Steps[None]:
        """Relay the origin's head, then its body in shaped sends. A 206
        (a stream continued from a later second) is shaped as a 200 is; a
        204 (a range correction) is a head alone; any other status goes
        back as a bodyless head with the origin's status. The client gets
        ``HEAD_TIMEOUT_S`` to take the head."""
        cfg = self.config
        deadline = time.monotonic() + HEAD_TIMEOUT_S
        if response.status == 204:
            yield from _send_all(conn, _client_head(response), deadline)
            return
        if response.status not in (200, 206):
            yield from _send_all(conn, _status_head(response.status,
                                                    response.reason),
                                 deadline)
            return
        r_s = self._discover_rate(response)
        yield from _send_all(conn, _client_head(response), deadline)

        length = response.length
        writer = _BackpressureWriter(conn, cfg.backpressure_s,
                                     credit_bps=4.0 * r_s)
        stream = StreamSpec.single(
            r_s, duration_s=(length * 8 / r_s if length else math.inf),
            fast_start_s=cfg.fast_start_seconds)
        shaper = Shaper(stream, cfg.granularity_s)
        report = {"addr": addr, "r_s": r_s, "rows": [], "shaper": shaper}
        self.sessions.append(report)

        origin_errors: List[Exception] = []
        try:
            with closing(_origin_body(response, origin_errors)) as body:
                yield from self._shape_stream(writer, body, ShapingController(
                    shaper, cfg.low_bw_chunk_s))
        except (BrokenPipeError, ConnectionResetError):
            log.info("client %s disconnected", addr)
        finally:
            error = origin_errors[0] if origin_errors else None
            report["origin_error"] = error
            if error is not None:
                log.warning("origin %s failed mid-body for %s: %r",
                            origin_name, addr, error)
            rows = shaper.burst_log        # rendered once per session
            report["rows"] = rows
            self._flush_log(rows)

    def _shape_stream(self, writer: _BackpressureWriter, body: _Body,
                      controller: ShapingController) -> _Steps[None]:
        """Perform the controller's sends on the client socket, on a clock
        that starts with the session, until the controller or the origin
        body is done.

        A send writes the bytes the previous one left unaccepted, then
        takes the rest from the origin a slice at a time, each slice written
        before the next is taken, so the origin is paced by the client's
        backpressure. A send whose time is still ahead reads its bytes
        during the wait instead, so a slow origin's burst leaves on time.
        """
        t0 = time.monotonic()
        pending = memoryview(b"")   # read, not yet accepted
        burst_ids = itertools.count()
        send = controller.start()
        while send is not None:
            size = max(math.ceil(send.size_bytes), 1)
            origin = _OriginReader(body)
            if len(pending) < size and t0 + send.at_s > time.monotonic():
                pending = yield from origin.read_ahead(pending, size)
            if not pending and not body.unread:
                break                    # the origin is done
            if t0 + send.at_s > time.monotonic():
                yield _Wait(-1, False, t0 + send.at_s)
            held = pending[:size]
            obs, rest = yield from writer.write_burst(
                held, origin.take, min(size, len(held) + body.unread),
                next(burst_ids), int(controller.content_sent_bytes),
                send.abort_on_zwa)
            if not obs.size_bytes:
                break                    # the origin ended with nothing
            # the unaccepted bytes are those held past the accepted ones,
            # or else the rest of the slab in hand
            pending = pending[obs.acked_bytes:] \
                if obs.acked_bytes < len(pending) else rest
            est = obs.acked_bytes * 8.0 / max(obs.t_bd_s, 1e-6)
            fill_bps = origin.fill_bps()
            if fill_bps is not None:
                # the body goes on, so the origin may be the bottleneck
                est = min(est, fill_bps)
            send = controller.report(
                Report(obs, obs.acked_bytes, obs.send_time_s - t0,
                       obs.last_ack_s - t0, est, time.monotonic() - t0))
        # final drain so the client sees the whole stream
        yield from writer.write_burst(pending, body.take, math.inf,
                                      next(burst_ids),
                                      int(controller.content_sent_bytes),
                                      abort_on_zwa=False)

    def _flush_log(self, rows: List[str]) -> None:
        if not self.config.log_path:
            return
        path = Path(self.config.log_path)
        new_file = not path.exists() or path.stat().st_size == 0
        with path.open("a") as fh:
            write_burst_log(fh, rows, header=new_file)
