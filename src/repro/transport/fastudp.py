"""Batched-syscall UDP fast path and transport-backend selection.

The default :class:`~repro.transport.udp.UdpTransport` pays one
``sendto``/``recvfrom`` syscall (plus one event-loop callback) per
datagram, which makes a real cluster syscall-bound long before it is
protocol-bound. Lifeguard's thesis is that slow local message
processing manufactures false positives, so the packet path being fast
is protocol fidelity, not just throughput. This module provides:

* :class:`PacketPump` — a raw nonblocking UDP socket driven by
  ``loop.add_reader``/``add_writer`` that moves up to *batch_size*
  datagrams per syscall with Linux ``recvmmsg``/``sendmmsg`` (bound via
  :mod:`ctypes`; no extra packages). Where those syscalls are
  unavailable the pump degrades to a portable drain loop — one
  ``recvfrom_into``/``sendto`` per datagram, but still amortising the
  event-loop wakeup across every queued packet.
* :class:`BatchedUdpTransport` — a :class:`UdpTransport` subclass that
  swaps only the datagram path for a :class:`PacketPump`; the pooled
  TCP reliable channel, fault handling, and stats plumbing are
  inherited unchanged. Received payloads are dispatched as
  ``memoryview`` slices of the receive slots, which
  :func:`repro.swim.codec.decode` copies once on the way in; a queued
  datagram is plain ``bytes`` (measured: one small allocation per
  packet is cheaper than any buffer pool that avoids it, see
  docs/PERFORMANCE.md).
* :func:`create_udp_transport` — the factory keyed by
  :attr:`SwimConfig.transport_backend` that
  :class:`~repro.transport.udp.UdpMember` uses.

Receive-buffer lifetime: the ``memoryview`` handed to the handler
aliases a pump-owned slot that is reused after the handler returns.
Handlers must either finish with the bytes synchronously (the SWIM
node decodes immediately, and decoding copies) or copy explicitly.
:meth:`PacketPump.send` keeps ``bytes`` by reference and copies any
other buffer before it returns, so callers may reuse theirs at once.
"""

from __future__ import annotations

import asyncio
import ctypes
import errno
import socket
import sys
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple, Union

from repro.config import SwimConfig
from repro.metrics.telemetry import TransportStats
from repro.swim import codec
from repro.transport.udp import (
    UdpTransport,
    _request_socket_buffers,
    parse_address,
)

# ---------------------------------------------------------------------------
# ctypes bindings for recvmmsg/sendmmsg (Linux only; no extra packages).
# ---------------------------------------------------------------------------

#: recv/send without blocking even if the socket were blocking.
MSG_DONTWAIT = 0x40
#: Kernel flag: the datagram was longer than the buffer and got cut.
MSG_TRUNC = 0x20


class _Iovec(ctypes.Structure):
    _fields_ = [("iov_base", ctypes.c_void_p), ("iov_len", ctypes.c_size_t)]


class _SockaddrIn(ctypes.Structure):
    # sin_port holds network byte order in native storage: assign with
    # socket.htons(), read back with socket.ntohs().
    _fields_ = [
        ("sin_family", ctypes.c_uint16),
        ("sin_port", ctypes.c_uint16),
        ("sin_addr", ctypes.c_uint8 * 4),
        ("sin_zero", ctypes.c_uint8 * 8),
    ]


class _Msghdr(ctypes.Structure):
    _fields_ = [
        ("msg_name", ctypes.c_void_p),
        ("msg_namelen", ctypes.c_uint32),
        ("msg_iov", ctypes.POINTER(_Iovec)),
        ("msg_iovlen", ctypes.c_size_t),
        ("msg_control", ctypes.c_void_p),
        ("msg_controllen", ctypes.c_size_t),
        ("msg_flags", ctypes.c_int),
    ]


class _Mmsghdr(ctypes.Structure):
    _fields_ = [("msg_hdr", _Msghdr), ("msg_len", ctypes.c_uint)]


def _load_mmsg():
    """Bind libc's recvmmsg/sendmmsg; ``(None, None)`` where absent."""
    if not sys.platform.startswith("linux"):
        return None, None
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        recvmmsg = libc.recvmmsg
        sendmmsg = libc.sendmmsg
    except (OSError, AttributeError):
        return None, None
    recvmmsg.argtypes = [
        ctypes.c_int,
        ctypes.POINTER(_Mmsghdr),
        ctypes.c_uint,
        ctypes.c_int,
        ctypes.c_void_p,
    ]
    recvmmsg.restype = ctypes.c_int
    sendmmsg.argtypes = [
        ctypes.c_int,
        ctypes.POINTER(_Mmsghdr),
        ctypes.c_uint,
        ctypes.c_int,
    ]
    sendmmsg.restype = ctypes.c_int
    return recvmmsg, sendmmsg


_recvmmsg, _sendmmsg = _load_mmsg()

#: True when the batched syscalls are actually bindable on this box.
HAVE_MMSG = _recvmmsg is not None


def mmsg_available() -> bool:
    """Whether ``recvmmsg``/``sendmmsg`` are usable on this platform.

    The ``"batched"`` backend works either way — without them the
    :class:`PacketPump` falls back to a portable per-datagram drain —
    but tests asserting true multi-datagram syscall batches should
    skip when this is ``False``.
    """
    return HAVE_MMSG


_Payload = Union[bytes, bytearray, memoryview]


class PacketPump:
    """Batched datagram mover over one raw nonblocking UDP socket.

    Receive: registered with ``loop.add_reader``; each readiness
    callback drains up to ``batch_size * max_drain`` datagrams
    (``batch_size`` per ``recvmmsg``) and dispatches each as
    ``handler(payload, "ip:port")`` where ``payload`` is a
    ``memoryview`` slice of a pump-owned slot, valid only for the
    duration of the call.

    Send: :meth:`send` enqueues. Replies queued while a received batch
    is being handled leave when that drain ends; anything else (a probe
    fan-out, gossip to k targets) schedules one flush per event-loop
    tick via ``call_soon`` — either way every datagram queued together
    leaves in as few ``sendmmsg`` calls as possible. Non-``bytes``
    payloads are copied at enqueue time — callers may reuse their
    buffer immediately. When the socket's buffer fills the remainder
    stays queued behind ``loop.add_writer``.

    Syscall accounting goes to ``stats``: ``udp_recv_syscalls`` /
    ``udp_send_syscalls`` events plus a ``record_batch`` per syscall
    with the real datagram count (the portable fallback records size-1
    batches, which is the truth of what it does).
    """

    #: Per-slot buffer size; larger datagrams are truncated by the
    #: kernel (counted as ``datagrams_truncated``) on receive and sent
    #: via a plain ``sendto`` on the way out. SWIM packets are bounded
    #: by the configured MTU budget, far below this.
    DATAGRAM_SIZE = 9000

    _ADDR_CACHE_MAX = 4096

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        sock: socket.socket,
        handler: Callable[[memoryview, str], None],
        batch_size: int = 32,
        stats: Optional[TransportStats] = None,
        max_drain: int = 4,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self._loop = loop
        self._sock = sock
        self._fd = sock.fileno()
        self._handler = handler
        self._batch = batch_size
        self._max_drain = max(1, max_drain)
        self.stats = stats if stats is not None else TransportStats()
        self._closed = False
        self.uses_mmsg = HAVE_MMSG

        # -- send state ------------------------------------------------
        # Entries are (data, addr) where addr is a (_SockaddrIn, its
        # address) pair (mmsg) or a (host, port) tuple (fallback).
        self._outbox: Deque[Tuple[bytes, object]] = deque()
        self._send_addrs: Dict[str, object] = {}
        self._flush_scheduled = False
        self._writer_armed = False
        #: True while received datagrams are being handled: what the
        #: handler sends leaves when the drain ends, not a tick later.
        self._draining = False

        if HAVE_MMSG:
            self._init_mmsg_arrays()
        else:
            self._rbuf = bytearray(self.DATAGRAM_SIZE)
            self._rview = memoryview(self._rbuf)
            self._recv_addrs: Dict[tuple, str] = {}

        loop.add_reader(self._fd, self._on_readable)

    def _init_mmsg_arrays(self) -> None:
        batch, size = self._batch, self.DATAGRAM_SIZE
        # Receive side: everything preallocated once; the per-item
        # ctypes wrappers and memoryviews are also cached because array
        # indexing constructs a fresh wrapper object on every access.
        self._rbufs = [(ctypes.c_char * size)() for _ in range(batch)]
        self._raddrs = (_SockaddrIn * batch)()
        self._riovs = (_Iovec * batch)()
        self._rhdrs = (_Mmsghdr * batch)()
        self._rhdr_objs = [self._rhdrs[i] for i in range(batch)]
        self._raddr_objs = [self._raddrs[i] for i in range(batch)]
        self._rviews = [memoryview(b).cast("B") for b in self._rbufs]
        self._raddr_views = [
            memoryview(self._raddrs[i]).cast("B") for i in range(batch)
        ]
        for i in range(batch):
            self._riovs[i].iov_base = ctypes.cast(
                self._rbufs[i], ctypes.c_void_p
            )
            self._riovs[i].iov_len = size
            hdr = self._rhdrs[i].msg_hdr
            hdr.msg_name = ctypes.addressof(self._raddrs[i])
            hdr.msg_namelen = ctypes.sizeof(_SockaddrIn)
            hdr.msg_iov = ctypes.pointer(self._riovs[i])
            hdr.msg_iovlen = 1
        self._recv_strs: Dict[bytes, str] = {}

        # Send side: slot buffers the flush copies payloads into, so
        # iov_base pointers are stable across the syscall.
        self._sbufs = [(ctypes.c_char * size)() for _ in range(batch)]
        self._sviews = [memoryview(b).cast("B") for b in self._sbufs]
        self._siovs = (_Iovec * batch)()
        self._shdrs = (_Mmsghdr * batch)()
        self._shdr_objs = [self._shdrs[i] for i in range(batch)]
        self._siov_objs = [self._siovs[i] for i in range(batch)]
        for i in range(batch):
            self._siovs[i].iov_base = ctypes.cast(
                self._sbufs[i], ctypes.c_void_p
            )
            hdr = self._shdrs[i].msg_hdr
            hdr.msg_iov = ctypes.pointer(self._siovs[i])
            hdr.msg_iovlen = 1
            hdr.msg_namelen = ctypes.sizeof(_SockaddrIn)

        # Flat integer views over the header/iovec arrays. The hot
        # loops poke msg_name/iov_len and read msg_len/msg_flags
        # through these instead of the ctypes attribute protocol,
        # which constructs a fresh wrapper object per access and
        # dominates the per-datagram cost otherwise. Offsets come
        # from ctypes itself, so any platform where the fields are
        # not 8-byte/4-byte aligned words simply keeps the (slower,
        # always-correct) attribute path.
        self._flat = (
            ctypes.sizeof(ctypes.c_void_p) == 8
            and ctypes.sizeof(ctypes.c_size_t) == 8
            and ctypes.sizeof(_Mmsghdr) % 8 == 0
            and ctypes.sizeof(_Iovec) % 8 == 0
        )
        if self._flat:
            self._hdr_stride_i = ctypes.sizeof(_Mmsghdr) // 4
            self._hdr_stride_q = ctypes.sizeof(_Mmsghdr) // 8
            self._iov_stride_q = ctypes.sizeof(_Iovec) // 8
            self._flags_idx = _Msghdr.msg_flags.offset // 4
            self._len_idx = _Mmsghdr.msg_len.offset // 4
            self._name_idx = _Msghdr.msg_name.offset // 8
            self._iovlen_idx = _Iovec.iov_len.offset // 8
            self._rhdr_i = memoryview(self._rhdrs).cast("B").cast("I")
            self._shdr_q = memoryview(self._shdrs).cast("B").cast("Q")
            self._siov_q = memoryview(self._siovs).cast("B").cast("Q")

    # -- introspection --------------------------------------------------

    @property
    def local_address(self) -> str:
        host, port = self._sock.getsockname()[:2]
        return f"{host}:{port}"

    @property
    def pending_sends(self) -> int:
        return len(self._outbox)

    # -- receive path ---------------------------------------------------

    def _on_readable(self) -> None:
        if self._closed:
            return
        self._draining = True
        try:
            if HAVE_MMSG:
                self._drain_mmsg()
            else:
                self._drain_fallback()
        finally:
            # Also when a handler raised: its earlier replies still go,
            # and later sends must schedule their own flush again.
            self._draining = False
            if self._outbox and not self._writer_armed:
                self._flush()

    def _drain_mmsg(self) -> None:
        stats = self.stats
        batch = self._batch
        for _ in range(self._max_drain):
            if self._closed:  # by a handler, mid-drain
                break
            n = _recvmmsg(self._fd, self._rhdrs, batch, MSG_DONTWAIT, None)
            if n <= 0:
                err = ctypes.get_errno() if n < 0 else 0
                if err == errno.EINTR:
                    continue
                if n < 0 and err not in (errno.EAGAIN, errno.EWOULDBLOCK):
                    stats.incr("udp_recv_error")
                break
            stats.incr("udp_recv_syscalls")
            stats.record_batch("recv", n)
            handler = self._handler
            if self._flat:
                hdr_i = self._rhdr_i
                stride = self._hdr_stride_i
                flags_idx = self._flags_idx
                len_idx = self._len_idx
                for i in range(n):
                    base = stride * i
                    if hdr_i[base + flags_idx] & MSG_TRUNC:
                        stats.incr("datagrams_truncated")
                        continue
                    handler(
                        self._rviews[i][: hdr_i[base + len_idx]],
                        self._source_str(i),
                    )
            else:
                for i in range(n):
                    hdr = self._rhdr_objs[i]
                    if hdr.msg_hdr.msg_flags & MSG_TRUNC:
                        stats.incr("datagrams_truncated")
                        continue
                    handler(
                        self._rviews[i][: hdr.msg_len], self._source_str(i)
                    )
            if n < batch:
                break

    def _source_str(self, i: int) -> str:
        # Cache keyed on the raw (port, addr) bytes of the sockaddr —
        # one small bytes object per packet instead of inet_ntoa plus
        # string formatting.
        key = bytes(self._raddr_views[i][2:8])
        addr = self._recv_strs.get(key)
        if addr is None:
            sa = self._raddr_objs[i]
            ip = socket.inet_ntoa(bytes(sa.sin_addr))
            addr = f"{ip}:{socket.ntohs(sa.sin_port)}"
            if len(self._recv_strs) >= self._ADDR_CACHE_MAX:
                self._recv_strs.clear()
            self._recv_strs[key] = addr
        return addr

    def _drain_fallback(self) -> None:
        stats = self.stats
        budget = self._batch * self._max_drain
        handler = self._handler
        for _ in range(budget):
            if self._closed:  # by a handler, mid-drain
                break
            try:
                nbytes, addr = self._sock.recvfrom_into(self._rbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                stats.incr("udp_recv_error")
                break
            stats.incr("udp_recv_syscalls")
            stats.record_batch("recv", 1)
            source = self._recv_addrs.get(addr)
            if source is None:
                source = f"{addr[0]}:{addr[1]}"
                if len(self._recv_addrs) >= self._ADDR_CACHE_MAX:
                    self._recv_addrs.clear()
                self._recv_addrs[addr] = source
            handler(self._rview[:nbytes], source)

    # -- send path ------------------------------------------------------

    def send(self, payload: _Payload, destination: str) -> None:
        """Queue one datagram for ``destination`` (``"host:port"``).

        Raises :class:`ValueError` on a malformed address and
        :class:`OSError` when the host does not resolve; syscall-level
        errors surface later, at flush, as ``udp_send_error`` counts.
        """
        if self._closed:
            return
        addr = self._send_addrs.get(destination)
        if addr is None:
            addr = self._resolve(destination)
        if payload.__class__ is not bytes:
            # Copy now so the caller's buffer is reusable on return.
            payload = bytes(payload)
        self._outbox.append((payload, addr))
        if not (self._flush_scheduled or self._writer_armed or self._draining):
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)

    def _resolve(self, destination: str) -> object:
        host, port = parse_address(destination)
        if HAVE_MMSG:
            try:
                packed = socket.inet_aton(host)
            except OSError:
                packed = socket.inet_aton(socket.gethostbyname(host))
            sa = _SockaddrIn()
            sa.sin_family = socket.AF_INET
            sa.sin_port = socket.htons(port)
            ctypes.memmove(sa.sin_addr, packed, 4)
            # Pair the struct with its raw address so the flush loop
            # pokes a plain int instead of calling addressof per
            # datagram; the tuple also keeps the struct alive while
            # queued entries reference it.
            addr: object = (sa, ctypes.addressof(sa))
        else:
            addr = (host, port)
        if len(self._send_addrs) >= self._ADDR_CACHE_MAX:
            self._send_addrs.clear()
        self._send_addrs[destination] = addr
        return addr

    def flush_now(self) -> None:
        """Flush the outbox immediately instead of at the next tick."""
        self._flush()

    def _flush(self) -> None:
        self._flush_scheduled = False
        if self._closed:
            self._outbox.clear()
            return
        if HAVE_MMSG:
            self._flush_mmsg()
        else:
            self._flush_fallback()

    def _flush_mmsg(self) -> None:
        stats = self.stats
        outbox = self._outbox
        batch = self._batch
        size = self.DATAGRAM_SIZE
        sviews = self._sviews
        flat = self._flat
        if flat:
            shdr_q, siov_q = self._shdr_q, self._siov_q
            hdr_stride, iov_stride = self._hdr_stride_q, self._iov_stride_q
            name_idx, iovlen_idx = self._name_idx, self._iovlen_idx
        while outbox:
            k = 0
            for data, sa in outbox:
                if k >= batch:
                    break
                n = len(data)
                if n > size:
                    break  # oversized head handled below
                sviews[k][:n] = data
                if flat:
                    siov_q[iov_stride * k + iovlen_idx] = n
                    shdr_q[hdr_stride * k + name_idx] = sa[1]
                else:
                    self._siov_objs[k].iov_len = n
                    self._shdr_objs[k].msg_hdr.msg_name = sa[1]
                k += 1
            if k == 0:
                # Oversized datagram at the head: one plain sendto.
                self._send_oversized(*outbox.popleft())
                continue
            sent = _sendmmsg(self._fd, self._shdrs, k, 0)
            if sent < 0:
                err = ctypes.get_errno()
                if err == errno.EINTR:
                    continue
                if err in (errno.EAGAIN, errno.EWOULDBLOCK):
                    self._arm_writer()
                    return
                # Destination-level error (ECONNREFUSED, EPERM, ...):
                # drop the head so the queue cannot spin, keep going.
                stats.incr("udp_send_error")
                outbox.popleft()
                continue
            stats.incr("udp_send_syscalls")
            stats.record_batch("send", sent)
            for _ in range(sent):
                outbox.popleft()
            if sent < k:
                self._arm_writer()
                return

    def _send_oversized(self, data: bytes, sa: object) -> None:
        try:
            if isinstance(sa, tuple) and isinstance(sa[0], _SockaddrIn):
                dest = (
                    socket.inet_ntoa(bytes(sa[0].sin_addr)),
                    socket.ntohs(sa[0].sin_port),
                )
            else:
                dest = sa  # type: ignore[assignment]
            self._sock.sendto(data, dest)  # type: ignore[arg-type]
        except OSError:
            self.stats.incr("udp_send_error")
        else:
            self.stats.incr("udp_send_syscalls")
            self.stats.record_batch("send", 1)

    def _flush_fallback(self) -> None:
        stats = self.stats
        outbox = self._outbox
        while outbox:
            try:
                self._sock.sendto(*outbox[0])  # type: ignore[arg-type]
            except (BlockingIOError, InterruptedError):
                self._arm_writer()
                return
            except OSError:
                stats.incr("udp_send_error")
                outbox.popleft()
                continue
            stats.incr("udp_send_syscalls")
            stats.record_batch("send", 1)
            outbox.popleft()

    def _arm_writer(self) -> None:
        if not self._writer_armed and not self._closed:
            self._writer_armed = True
            self._loop.add_writer(self._fd, self._on_writable)

    def _on_writable(self) -> None:
        self._loop.remove_writer(self._fd)
        self._writer_armed = False
        self._flush()

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._loop.remove_reader(self._fd)
        if self._writer_armed:
            self._loop.remove_writer(self._fd)
            self._writer_armed = False
        self._outbox.clear()
        self._sock.close()


class BatchedUdpTransport(UdpTransport):
    """``transport_backend="batched"``: UdpTransport with a PacketPump.

    Only the datagram path differs from the parent: a raw nonblocking
    socket pumped with ``recvmmsg``/``sendmmsg`` (portable fallback
    where unavailable), receive dispatch straight off the receive
    slots, and send coalescing per drain and per tick. The TCP reliable
    channel, retry/pool behaviour, fault surface, and address formats
    are inherited — the full transport fault suite runs identically
    against both backends.
    """

    backend = "batched"

    def __init__(
        self, local_address: str, config: Optional[SwimConfig] = None
    ) -> None:
        super().__init__(local_address, config)
        self._pump: Optional[PacketPump] = None

    @classmethod
    async def _open_datagram(
        cls, host: str, port: int, config: Optional[SwimConfig]
    ) -> "BatchedUdpTransport":
        loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            _request_socket_buffers(sock)
            sock.bind((host, port))
            bound_host, bound_port = sock.getsockname()[:2]
            self = cls(f"{bound_host}:{bound_port}", config)
            self._loop = loop
            self._pump = PacketPump(
                loop,
                sock,
                self._on_pump_datagram,
                batch_size=self.config.transport_batch_size,
                stats=self._stats,
            )
        except OSError:
            sock.close()
            raise
        return self

    def _close_datagram(self) -> None:
        self._pump.close()

    @property
    def pump(self) -> PacketPump:
        """The datagram pump (introspection for tests/benchmarks)."""
        assert self._pump is not None
        return self._pump

    def use_stats(self, stats: TransportStats) -> None:
        super().use_stats(stats)
        if self._pump is not None:
            self._pump.stats = stats

    def send(
        self, destination: str, payload: bytes, reliable: bool = False
    ) -> None:
        if self._closed:
            return
        if reliable:
            super().send(destination, payload, reliable=True)
            return
        if self._fault_drop_datagram(destination, outbound=True):
            return
        try:
            self._pump.send(payload, destination)
        except (OSError, ValueError):
            self._stats.incr("udp_send_error")

    def send_encoded(self, destination: str, message: codec.Message) -> int:
        """Encode ``message`` and :meth:`send` it as a datagram; returns
        the encoded size in bytes (for telemetry)."""
        wire = codec.encode(message)
        self.send(destination, wire)
        return len(wire)

    def _on_pump_datagram(self, payload: memoryview, source: str) -> None:
        # Syscall/batch accounting already happened in the pump.
        if self._fault_drop_datagram(source, outbound=False):
            return
        if self._handler is not None:
            self._handler(payload, source, False)


async def create_udp_transport(
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[SwimConfig] = None,
) -> UdpTransport:
    """Create the UDP transport selected by ``config.transport_backend``.

    ``"asyncio"`` (the default) preserves the pre-backend behaviour
    exactly; ``"batched"`` returns a :class:`BatchedUdpTransport`.
    """
    config = config if config is not None else SwimConfig()
    backend = config.transport_backend
    if backend == "batched":
        return await BatchedUdpTransport.create(host, port, config=config)
    return await UdpTransport.create(host, port, config=config)
