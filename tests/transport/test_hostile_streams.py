"""Arbitrary bytes at a live member's two stream sockets.

ROADMAP *Evidence-chain residue* (b): ``swim.codec.decode`` and
``zones.frames`` already hold an arbitrary-bytes property; this holds
the two remaining parsers fed straight from a socket to it — the admin
HTTP request reader and the reliable channel's length-prefixed frame
reader — on both datagram backends. Whatever arrives, the peer gets a
well-formed response or a clean close, the transport's counters account
for every frame, and nothing reaches the event loop's exception handler
(where an unhandled error in a connection task ends up, as "Task
exception was never retrieved").
"""

import asyncio
import gc
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SwimConfig
from repro.ops import http as admin_http
from repro.swim import codec
from repro.swim.messages import Ping
from repro.transport.udp import MAX_FRAME_PAYLOAD, UdpMember
from tests.leaks import assert_nothing_leaked, open_sockets
from tests.transport.conftest import TRANSPORT_BACKENDS

_FRAME = struct.Struct(">HI")


async def connect(address):
    """Open a client connection whose TIME_WAIT remnant cannot block a
    later listener: members bind TCP on the number their UDP socket drew,
    and Linux refuses that bind over a TIME_WAIT socket unless *both*
    sockets set ``SO_REUSEADDR`` — with hundreds of connections here,
    the next test to create a member would fail a few percent of runs."""
    host, port = address.rsplit(":", 1)
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.setblocking(False)
    try:
        await asyncio.get_running_loop().sock_connect(sock, (host, int(port)))
        return await asyncio.open_connection(sock=sock)
    except BaseException:
        sock.close()
        raise


class LiveMember:
    """One started member on a private loop that records everything its
    exception handler is handed."""

    def __init__(self, backend):
        self.loop = asyncio.new_event_loop()
        self.loop_errors = []
        self.loop.set_exception_handler(
            lambda _loop, context: self.loop_errors.append(context)
        )
        config = SwimConfig.lifeguard(transport_backend=backend, admin_port=0)
        self.member = self.run(UdpMember.create("victim", config))
        self.member.start()

    def run(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    def exchange(self, address, blob, timeout=5.0):
        """Send ``blob`` then EOF; return everything the peer sent back
        before it closed (a reset counts as a close)."""

        async def go():
            reader, writer = await connect(address)
            try:
                writer.write(blob)
                await writer.drain()
                if writer.can_write_eof():
                    writer.write_eof()
                return await asyncio.wait_for(reader.read(), timeout)
            except ConnectionError:
                return b""
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except OSError:
                    pass

        return self.run(go())

    def until_closed(self, address, sent, timeout=5.0):
        """Send ``sent`` and then only listen: ``(bytes the peer sent
        before its EOF, seconds until that EOF)``. Raises
        ``TimeoutError`` when the peer holds the connection open."""

        async def go():
            reader, writer = await connect(address)
            try:
                writer.write(sent)
                started = self.loop.time()
                raw = await asyncio.wait_for(reader.read(), timeout)
                return raw, self.loop.time() - started
            finally:
                writer.close()

        with assert_nothing_leaked():
            return self.run(go())

    def until_dropped(self, address, sent, timeout=5.0):
        """Send ``sent`` and then neither read, write nor close: seconds
        until the member let go of its end — the accepted socket gone
        from this process's descriptors, which is where both ends live."""

        async def go():
            host, port = address.rsplit(":", 1)
            ours = open_sockets()
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            # A window this small fills at once, so the member's write
            # blocks on the client and not on a megabyte of kernel buffer.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            try:
                await self.loop.sock_connect(sock, (host, int(port)))
                await self.loop.sock_sendall(sock, sent)
                started = self.loop.time()
                accepted = False
                while True:
                    await asyncio.sleep(0.02)
                    new = {
                        fd for fd, link in open_sockets().items()
                        if ours.get(fd) != link
                    } - {sock.fileno()}
                    if accepted and not new:
                        return self.loop.time() - started
                    accepted = accepted or bool(new)
                    assert self.loop.time() - started < timeout, "still held"
            finally:
                sock.close()

        with assert_nothing_leaked():
            return self.run(go())

    def assert_loop_saw_nothing(self):
        # An error in a finished connection task surfaces when the task
        # is collected; give it the chance before the verdict.
        gc.collect()
        self.run(asyncio.sleep(0))
        assert self.loop_errors == []

    def close(self):
        self.run(self.member.stop())
        self.assert_loop_saw_nothing()
        self.loop.close()


@pytest.fixture(scope="module", params=TRANSPORT_BACKENDS)
def live(request):
    with assert_nothing_leaked():
        member = LiveMember(request.param)
        yield member
        member.close()


@pytest.fixture(autouse=True)
def nothing_leaked():
    """Overrides the per-test check: a probe frame that claims a
    listening loopback port as its source makes the live member dial it,
    and the member pools that connection past the test. ``live`` holds
    the member's whole life to the check instead."""
    yield


def assert_well_formed_or_closed(raw):
    if not raw:
        return None
    head, separator, body = raw.partition(b"\r\n\r\n")
    assert separator, raw
    lines = head.decode("ascii").split("\r\n")
    version, code, _reason = lines[0].split(" ", 2)
    assert version == "HTTP/1.1" and 200 <= int(code) < 600
    headers = dict(line.lower().split(": ", 1) for line in lines[1:])
    assert headers["connection"] == "close"
    assert int(headers["content-length"]) == len(body)
    return int(code)


# --------------------------------------------------------------------- #
# Admin HTTP request reader
# --------------------------------------------------------------------- #

_request_bytes = st.one_of(
    st.binary(max_size=300),
    # Near-miss requests: a plausible request line around hostile parts.
    st.builds(
        lambda method, target, version, headers: b" ".join(
            (method, target, version)
        ) + b"\r\n" + headers + b"\r\n",
        st.sampled_from([b"GET", b"POST", b"get", b""]),
        st.one_of(
            st.sampled_from(
                [b"/metrics", b"/events?since=x", b"//[", b"/events?limit=-1"]
            ),
            st.binary(max_size=40).filter(lambda b: not set(b) & set(b" \r\n")),
        ),
        st.sampled_from([b"HTTP/1.1", b"HTTP/9", b""]),
        st.binary(max_size=120),
    ),
)


class TestAdminRequestReader:
    @pytest.mark.parametrize("live", TRANSPORT_BACKENDS[:1], indirect=True)
    @settings(max_examples=100, deadline=None)
    @given(blobs=st.lists(_request_bytes, min_size=1, max_size=3))
    def test_arbitrary_bytes_get_a_response_or_a_close(self, live, blobs):
        """One backend, not the matrix: ``ops/http.py`` is a TCP server
        that never touches the datagram path the backends differ in, so
        a second run re-tests the same code for ten seconds of tier 1.
        (The frame reader below stays on both — its handler's replies
        leave through the datagram path.)"""
        for blob in blobs:
            raw = live.exchange(live.member.admin_address, blob)
            assert_well_formed_or_closed(raw)
        live.assert_loop_saw_nothing()

    def test_invalid_ipv6_target_is_a_400(self, live):
        raw = live.exchange(live.member.admin_address, b"GET //[ HTTP/1.1\r\n\r\n")
        assert assert_well_formed_or_closed(raw) == 400

    def test_header_line_over_the_stream_limit_is_a_431(self, live):
        request = b"GET /info HTTP/1.1\r\nX-Pad: " + b"a" * (70 * 1024) + b"\r\n\r\n"
        raw = live.exchange(live.member.admin_address, request)
        assert assert_well_formed_or_closed(raw) == 431

    def test_request_line_over_the_stream_limit_is_a_400(self, live):
        request = b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n"
        raw = live.exchange(live.member.admin_address, request)
        assert assert_well_formed_or_closed(raw) == 400

    @pytest.mark.parametrize(
        "sent",
        [b"", b"GET /metrics HTTP/1.1\r\nHost: x\r\n"],
        ids=["silent", "half-a-head"],
    )
    def test_idle_client_is_closed_at_the_deadline(self, live, monkeypatch, sent):
        """A client that connects and then stalls — before or part-way
        through the head — is answered 408 and closed; it cannot hold a
        task and a socket until the member exits."""
        monkeypatch.setattr(admin_http, "REQUEST_DEADLINE", 0.2)
        raw, elapsed = live.until_closed(live.member.admin_address, sent)
        assert assert_well_formed_or_closed(raw) == 408
        assert 0.15 <= elapsed < 3.0

    @pytest.mark.skipif(open_sockets() is None, reason="needs /proc/self/fd")
    def test_client_that_stops_reading_is_dropped_at_the_deadline(
        self, live, monkeypatch
    ):
        """A response the client never takes off the socket cannot pin
        the handler: the write, then the close, each get the deadline
        and the connection is aborted with whatever was left to send."""
        monkeypatch.setattr(admin_http, "REQUEST_DEADLINE", 0.2)
        # More than the kernel will buffer on the client's behalf.
        monkeypatch.setattr(
            admin_http, "render_text", lambda registry: "#" * (16 << 20)
        )
        elapsed = live.until_dropped(
            live.member.admin_address, b"GET /metrics HTTP/1.1\r\n\r\n"
        )
        assert 0.15 <= elapsed < 3.0
        live.assert_loop_saw_nothing()


# --------------------------------------------------------------------- #
# Reliable-channel frame reader
# --------------------------------------------------------------------- #


def frame(address: bytes, payload: bytes) -> bytes:
    return _FRAME.pack(len(address), len(payload)) + address + payload


def expected_counts(blob: bytes):
    """Reference accounting for one connection's bytes: ``(received,
    truncated, oversized)``. The reader serves frames until the stream
    ends or the first frame it must refuse."""
    received = 0
    while blob:
        if len(blob) < _FRAME.size:
            return received, 1, 0
        address_len, payload_len = _FRAME.unpack_from(blob)
        if payload_len > MAX_FRAME_PAYLOAD:
            return received, 0, 1
        end = _FRAME.size + address_len + payload_len
        if len(blob) < end:
            return received, 1, 0
        try:
            blob[_FRAME.size:_FRAME.size + address_len].decode("utf-8")
        except UnicodeDecodeError:
            return received, 1, 0
        received += 1
        blob = blob[end:]
    return received, 0, 0


_payloads = st.one_of(
    st.binary(max_size=80),
    # A well-formed probe makes the node answer the frame's source
    # address, whatever the frame claims that is.
    st.builds(
        lambda seq, source: codec.encode(Ping(seq, "victim", source)),
        st.integers(0, 2**31),
        st.text(max_size=12),
    ),
)
# The claimed source is where the node sends its answer, so every
# address here is either unparseable (no colon, no port) or loopback —
# with ports past 65535, which used to reach ``socket.connect`` and
# raise ``OverflowError`` into the loop.
_addresses = st.one_of(
    st.binary(max_size=24).filter(lambda b: b":" not in b),
    st.integers(0, 200_000).map(lambda port: b"127.0.0.1:%d" % port),
    st.sampled_from([b"127.0.0.1:notaport", b"127.0.0.1:", b":", b":9"]),
)
_stream_bytes = st.one_of(
    st.binary(max_size=200),
    st.lists(st.builds(frame, _addresses, _payloads), max_size=4).map(b"".join),
    # A well-formed prefix cut short, or followed by an oversized claim.
    st.builds(
        lambda frames, cut: b"".join(frames)[: max(0, len(b"".join(frames)) - cut)],
        st.lists(st.builds(frame, _addresses, _payloads), min_size=1, max_size=3),
        st.integers(1, 12),
    ),
    st.builds(
        lambda head, size: head + _FRAME.pack(3, size) + b"abc",
        st.builds(frame, _addresses, _payloads),
        st.integers(MAX_FRAME_PAYLOAD + 1, 2**32 - 1),
    ),
)


class TestReliableFrameReader:
    @settings(max_examples=100, deadline=None)
    @given(blobs=st.lists(_stream_bytes, min_size=1, max_size=3))
    def test_arbitrary_bytes_are_accounted_for_and_answered_by_a_close(
        self, live, blobs
    ):
        stats = live.member.transport.stats
        names = ("frames_received", "frames_truncated", "frames_oversized")
        for blob in blobs:
            before = [stats.get(name) for name in names]
            # The reliable channel never answers in-band: EOF, no bytes.
            assert live.exchange(live.member.address, blob) == b""
            delta = tuple(stats.get(n) - b for n, b in zip(names, before))
            assert delta == expected_counts(blob), blob
        live.assert_loop_saw_nothing()

    @pytest.mark.parametrize(
        "sent, counted",
        [
            (b"", "conns_closed_idle"),
            (_FRAME.pack(9, 40)[:3], "frames_truncated"),
            (frame(b"127.0.0.1:9", b"x" * 40)[:-20], "frames_truncated"),
        ],
        ids=["silent", "half-a-header", "half-a-payload"],
    )
    def test_stalled_peer_is_closed_at_the_deadline(
        self, live, monkeypatch, sent, counted
    ):
        """An inbound connection that idles between frames, or stalls
        inside one, is closed and counted; it cannot hold a task and a
        socket until the peer chooses to close."""
        transport = live.member.transport
        monkeypatch.setattr(
            transport,
            "config",
            transport.config.replace(
                reliable_idle_timeout=0.1, reliable_connect_timeout=0.2
            ),
        )
        before = transport.stats.get(counted)
        raw, elapsed = live.until_closed(live.member.address, sent)
        assert raw == b""
        assert 0.15 <= elapsed < 3.0
        assert transport.stats.get(counted) == before + 1
        live.assert_loop_saw_nothing()
