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
  unavailable (or the host's ABI is not the flat 64-bit one the pump
  pokes) the pump degrades to a portable drain loop — one
  ``recvfrom_into``/``sendto`` per datagram, but still amortising the
  event-loop wakeup across every queued packet. Where the kernel takes
  ``UDP_SEGMENT`` (probed once per pump), the flush packs each run of
  consecutive datagrams of one length to one destination into a single
  ``mmsghdr`` and the kernel cuts it back into the same datagrams: the
  receiver sees the bytes, boundaries and order it would have seen.
  A run the kernel refuses (``EINVAL``/``EIO``) is sent again one
  datagram per header and counted as ``udp_gso_refused``, and from
  then on the pump groups only runs of narrower datagrams. Empty
  datagrams never form a run.
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
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

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


class _SegmentCmsg(ctypes.Structure):
    # One cmsghdr carrying a u16 segment size, padded to CMSG_SPACE(2).
    _fields_ = [
        ("cmsg_len", ctypes.c_size_t),
        ("cmsg_level", ctypes.c_int),
        ("cmsg_type", ctypes.c_int),
        ("segment_size", ctypes.c_uint16),
        ("pad", ctypes.c_uint8 * 6),
    ]


#: The drain and flush poke header and iovec fields through flat 64-bit
#: integer views, which needs 8-byte pointers and lengths and 8-byte
#: aligned structs; any other host takes the portable fallback.
_FLAT = (
    ctypes.sizeof(ctypes.c_void_p) == 8
    and ctypes.sizeof(ctypes.c_size_t) == 8
    and ctypes.sizeof(_Mmsghdr) % 8 == 0
    and ctypes.sizeof(_Iovec) % 8 == 0
)


def _load_mmsg():
    """Bind libc's recvmmsg/sendmmsg; ``(None, None)`` where absent."""
    if not (sys.platform.startswith("linux") and _FLAT):
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


#: ``SOL_UDP`` / ``UDP_SEGMENT`` (Linux 4.18): a send's control message
#: that makes the kernel cut its payload into datagrams of that size.
SOL_UDP = 17
UDP_SEGMENT = 103
#: Segments a ``UDP_SEGMENT`` send may carry on the oldest kernels.
MAX_SEGMENTS = 64
#: ``CMSG_LEN(2)`` and ``CMSG_SPACE(2)``: a ``cmsghdr`` plus the u16
#: segment size, unpadded and padded.
_CMSG_LEN = _SegmentCmsg.segment_size.offset + 2
_SEGMENT_CMSG_SPACE = ctypes.sizeof(_SegmentCmsg)
#: What a kernel answers for a ``UDP_SEGMENT`` send it will not cut:
#: ``EINVAL`` (a segment above the route MTU, too many segments) or
#: ``EIO`` (a device without checksum offload).
_REFUSED = (errno.EINVAL, errno.EIO)


def udp_segment_available(sock: socket.socket) -> bool:
    """Whether the kernel takes ``UDP_SEGMENT`` on ``sock``.

    A kernel without it ignores the control message and would send a
    whole run as one datagram, so a pump groups runs only where this
    holds.
    """
    try:
        sock.getsockopt(SOL_UDP, UDP_SEGMENT)
    except OSError:
        return False
    return True


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
    leaves in as few ``sendmmsg`` calls as possible, and each run of
    same-size datagrams to one destination (up to ``MAX_SEGMENTS``, and
    no more than one slot of bytes) in one ``UDP_SEGMENT`` header where
    the kernel has it. Non-``bytes``
    payloads are copied at enqueue time — callers may reuse their
    buffer immediately. When the socket's buffer fills the remainder
    stays queued behind ``loop.add_writer``.

    Syscall accounting goes to ``stats``: ``udp_recv_syscalls`` /
    ``udp_send_syscalls`` events plus a ``record_batch`` per syscall
    with the real datagram count, however many headers carried them
    (the portable fallback records size-1 batches, which is the truth
    of what it does); ``batch_size`` caps datagrams per syscall, not
    headers.
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
        #: Whether the flush sends a run of same-size datagrams to one
        #: destination as one ``UDP_SEGMENT`` header.
        self.groups_runs = HAVE_MMSG and udp_segment_available(sock)

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
        # Everything is preallocated once. The hot loops poke msg_name /
        # iov_len / msg_controllen and read msg_len / msg_flags through
        # flat integer views of the header and iovec arrays instead of
        # the ctypes attribute protocol, which constructs a fresh
        # wrapper object per access; the offsets come from ctypes.
        self._hdr_stride_i = ctypes.sizeof(_Mmsghdr) // 4
        self._hdr_stride_q = ctypes.sizeof(_Mmsghdr) // 8
        self._iov_stride_q = ctypes.sizeof(_Iovec) // 8
        self._cmsg_stride_h = ctypes.sizeof(_SegmentCmsg) // 2
        self._flags_idx = _Msghdr.msg_flags.offset // 4
        self._len_idx = _Mmsghdr.msg_len.offset // 4
        self._name_idx = _Msghdr.msg_name.offset // 8
        self._ctllen_idx = _Msghdr.msg_controllen.offset // 8
        self._iovlen_idx = _Iovec.iov_len.offset // 8
        self._segsize_idx = _SegmentCmsg.segment_size.offset // 2

        # Receive side.
        self._rbufs = [(ctypes.c_char * size)() for _ in range(batch)]
        self._raddrs = (_SockaddrIn * batch)()
        self._riovs = (_Iovec * batch)()
        self._rhdrs = (_Mmsghdr * batch)()
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
        self._rhdr_i = memoryview(self._rhdrs).cast("B").cast("I")
        self._recv_strs: Dict[bytes, str] = {}

        # Send side: slot buffers the flush copies payloads into, so
        # iov_base pointers are stable across the syscall, and one
        # UDP_SEGMENT control message per slot, attached (a non-zero
        # msg_controllen) only while the slot holds a run of several.
        self._sbufs = [(ctypes.c_char * size)() for _ in range(batch)]
        self._sviews = [memoryview(b).cast("B") for b in self._sbufs]
        self._siovs = (_Iovec * batch)()
        self._shdrs = (_Mmsghdr * batch)()
        self._scmsgs = (_SegmentCmsg * batch)()
        for i in range(batch):
            self._siovs[i].iov_base = ctypes.cast(
                self._sbufs[i], ctypes.c_void_p
            )
            cmsg = self._scmsgs[i]
            cmsg.cmsg_len = _CMSG_LEN
            cmsg.cmsg_level = SOL_UDP
            cmsg.cmsg_type = UDP_SEGMENT
            hdr = self._shdrs[i].msg_hdr
            hdr.msg_iov = ctypes.pointer(self._siovs[i])
            hdr.msg_iovlen = 1
            hdr.msg_namelen = ctypes.sizeof(_SockaddrIn)
            hdr.msg_control = ctypes.addressof(cmsg)
        self._shdr_q = memoryview(self._shdrs).cast("B").cast("Q")
        self._siov_q = memoryview(self._siovs).cast("B").cast("Q")
        self._scmsg_h = memoryview(self._scmsgs).cast("B").cast("H")
        #: Slots whose control message is attached, in slot order.
        self._run_slots: List[int] = []
        #: Runs are grouped only while their datagrams are narrower than
        #: this: the smallest width the kernel has refused to cut, and 0
        #: where it lacks UDP_SEGMENT. Empty datagrams are never grouped
        #: (a segment size of 0 is no UDP_SEGMENT at all).
        self._refused_width = size + 1 if self.groups_runs else 0

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
            if n < batch:
                break

    def _source_str(self, i: int) -> str:
        # Cache keyed on the raw (port, addr) bytes of the sockaddr —
        # one small bytes object per packet instead of inet_ntoa plus
        # string formatting.
        key = bytes(self._raddr_views[i][2:8])
        addr = self._recv_strs.get(key)
        if addr is None:
            port = int.from_bytes(key[:2], "big")
            addr = f"{socket.inet_ntoa(key[2:])}:{port}"
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
        shdr_q, siov_q = self._shdr_q, self._siov_q
        hdr_stride, iov_stride = self._hdr_stride_q, self._iov_stride_q
        name_idx, iovlen_idx = self._name_idx, self._iovlen_idx
        run_slots = self._run_slots
        max_segments = MAX_SEGMENTS
        while outbox:
            refused = self._refused_width
            if run_slots:
                self._detach_runs()
            # Each slot carries one datagram, or a run of consecutive
            # datagrams of one length to one destination back to back,
            # which the kernel cuts apart again (UDP_SEGMENT). A single
            # datagram pays for the run test alone; a run looks its slot
            # up on its second datagram, and each further segment takes
            # one header off ``cap`` so datagrams stay within the batch.
            k = 0  # slots filled
            cap = batch
            last = None
            width = 0
            run_k = -1  # the slot count when the open run started
            for data, sa in outbox:
                if k >= cap:
                    break
                n = len(data)
                if sa is last and n == width and 0 < n < refused:
                    if run_k != k:  # a run starts on the last slot
                        run_k = k
                        view = sviews[k - 1]
                        iov_at = iov_stride * (k - 1) + iovlen_idx
                        off = n
                        limit = min(size, n * max_segments)
                    end = off + n
                    if end <= limit:
                        view[off:end] = data
                        siov_q[iov_at] = end
                        if off == n:
                            self._attach_run(k - 1, n)
                        off = end
                        cap -= 1
                        continue
                if n > size:
                    break  # oversized head handled below
                sviews[k][:n] = data
                siov_q[iov_stride * k + iovlen_idx] = width = n
                shdr_q[hdr_stride * k + name_idx] = sa[1]
                last = sa
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
                if run_slots and run_slots[0] == 0 and err in _REFUSED:
                    # The kernel refused the run at the head (say, a
                    # segment above the route MTU): from now on this
                    # pump sends datagrams that wide or wider one per
                    # header, this batch included.
                    stats.incr("udp_gso_refused")
                    self._refused_width = self._scmsg_h[self._segsize_idx]
                    continue
                # Destination-level error (ECONNREFUSED, EPERM, ...):
                # drop the head so the queue cannot spin, keep going.
                stats.incr("udp_send_error")
                outbox.popleft()
                continue
            d = k + batch - cap if sent == k else self._datagrams_in(sent)
            stats.incr("udp_send_syscalls")
            stats.record_batch("send", d)
            for _ in range(d):
                outbox.popleft()
            if sent < k:
                self._arm_writer()
                return

    def _attach_run(self, k: int, width: int) -> None:
        """Send slot ``k`` as a run of ``width``-byte datagrams."""
        self._shdr_q[self._hdr_stride_q * k + self._ctllen_idx] = (
            _SEGMENT_CMSG_SPACE
        )
        self._scmsg_h[self._cmsg_stride_h * k + self._segsize_idx] = width
        self._run_slots.append(k)

    def _detach_runs(self) -> None:
        for k in self._run_slots:
            self._shdr_q[self._hdr_stride_q * k + self._ctllen_idx] = 0
        self._run_slots.clear()

    def _datagrams_in(self, slots: int) -> int:
        """Datagrams the first ``slots`` send slots carry: one each, plus
        the further segments of the runs among them."""
        total = slots
        for k in self._run_slots:
            if k < slots:
                total += (
                    self._siov_q[self._iov_stride_q * k + self._iovlen_idx]
                    // self._scmsg_h[self._cmsg_stride_h * k + self._segsize_idx]
                    - 1
                )
        return total

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
