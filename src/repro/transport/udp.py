"""Real-network runtime: asyncio UDP datagrams plus a TCP side channel.

This is the deployment face of the library — the same
:class:`~repro.swim.node.SwimNode` that runs under the simulator runs
here unchanged, wired to:

* an asyncio **clock/scheduler adapter** (:class:`AsyncioScheduler`) over
  ``loop.time()`` / ``loop.call_at``;
* a **UDP socket** for the datagram channel (probes and gossip);
* a pooled **TCP reliable channel** for anti-entropy push/pull sync and
  the fallback probe: per-peer connection pools with an idle reaper,
  length-prefixed frames multiplexed over persistent connections, and
  jittered-exponential-backoff retry for transient connect failures.

Each frame carries the sender's canonical address so replies can be
routed. Channel-level events (connections opened/reused/reaped, retries,
truncated frames, permanent send failures) are counted in a
:class:`~repro.metrics.telemetry.TransportStats`; when wired through
:class:`UdpMember` these land in the node's
:class:`~repro.metrics.telemetry.Telemetry` and permanent reliable-send
failures feed :meth:`SwimNode.note_reliable_send_failure
<repro.swim.node.SwimNode.note_reliable_send_failure>` as a
local-health signal.

Pool/retry behaviour is tuned by the ``reliable_*`` knobs on
:class:`~repro.config.SwimConfig`.

Addresses are ``"host:port"`` strings throughout, matching the address
field gossiped in ``alive`` messages.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import random
import socket
import struct
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import SwimConfig
from repro.faults import FaultInjector, FaultPlan
from repro.metrics.telemetry import TransportStats
from repro.swim.events import EventListener
from repro.swim.node import SwimNode

_FRAME = struct.Struct(">HI")  # address length, payload length

#: Upper bound on a single reliable frame's payload; a header announcing
#: more than this is treated as a protocol violation, not an allocation.
MAX_FRAME_PAYLOAD = 16 * 1024 * 1024


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``"host:port"`` into a ``(host, port)`` pair."""
    host, _, port = address.rpartition(":")
    if host and port.isdigit():
        number = int(port)
        # A peer names its own reply address (reliable frames carry it),
        # so an out-of-range port must fail here, as a ValueError every
        # send path handles, not as an OverflowError inside a socket call.
        if number <= 65535:
            return host, number
    raise ValueError(f"not a host:port address: {address!r}")


#: Requested UDP socket buffer size. Default buffers (~208 KiB on stock
#: Linux) hold only ~250 small datagrams of kernel skb accounting — one
#: gossip burst from a batched sender — so bursts silently drop right at
#: the protocol's normal fan-out size. The kernel clamps the request to
#: ``net.core.{rmem,wmem}_max``; asking for more than it grants is fine.
_UDP_SOCKET_BUFFER = 1 << 22

#: Port pairs ``create(port=0)`` draws before giving up on EADDRINUSE.
PORT_DRAWS = 8


def _request_socket_buffers(sock: socket.socket) -> None:
    """Best-effort enlargement of a UDP socket's kernel buffers."""
    for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
        try:
            sock.setsockopt(socket.SOL_SOCKET, option, _UDP_SOCKET_BUFFER)
        except OSError:
            pass


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    """Close ``writer`` and wait for the transport to release its FD."""
    writer.close()
    try:
        await writer.wait_closed()
    except (OSError, asyncio.CancelledError):
        pass


async def _rest_of_frame(
    reader: asyncio.StreamReader, start: bytes
) -> Optional[Tuple[str, bytes]]:
    """Read the frame whose first bytes are ``start``: ``(sender
    address, payload)``, or ``None`` when it claims an oversized
    payload. Raises ``IncompleteReadError`` / ``UnicodeDecodeError``."""
    if len(start) < _FRAME.size:
        start += await reader.readexactly(_FRAME.size - len(start))
    addr_len, payload_len = _FRAME.unpack(start)
    if payload_len > MAX_FRAME_PAYLOAD:
        return None
    addr_bytes = await reader.readexactly(addr_len)
    payload = await reader.readexactly(payload_len)
    return addr_bytes.decode("utf-8"), payload


class AsyncioScheduler:
    """Adapter satisfying :class:`repro.runtime.Scheduler` on an event loop.

    Construct inside a running event loop (or pass one explicitly);
    ``asyncio.get_event_loop()``'s implicit-creation behaviour is
    deprecated and unavailable on modern Python, so it is not used.
    """

    __slots__ = ("_loop",)

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_running_loop()

    def time(self) -> float:
        return self._loop.time()

    def call_at(self, when: float, callback: Callable[[], None]):
        return self._loop.call_at(when, callback)


class _UdpProtocol(asyncio.DatagramProtocol):
    """Datagram protocol that tolerates packets arriving before its owner
    transport is fully constructed: early datagrams are buffered — up to
    :data:`_MAX_EARLY_DATAGRAMS`, beyond which they are counted and
    dropped rather than accumulated without bound — and flushed once
    :meth:`set_owner` runs (previously they crashed the receive callback
    with an ``AttributeError``). Both the buffered and the dropped count
    surface in :class:`TransportStats` as ``datagrams_buffered_early`` /
    ``datagrams_dropped_early``."""

    _MAX_EARLY_DATAGRAMS = 128

    def __init__(self, owner: Optional["UdpTransport"] = None) -> None:
        self._owner = owner
        self._early: List[Tuple[bytes, tuple]] = []
        self._early_dropped = 0

    def set_owner(self, owner: "UdpTransport") -> Tuple[int, int]:
        """Attach the owning transport and flush buffered datagrams;
        returns ``(buffered, dropped)`` counts from the ownerless window."""
        self._owner = owner
        early, self._early = self._early, []
        for data, addr in early:
            owner._on_datagram(data, addr)
        return len(early), self._early_dropped

    def datagram_received(self, data: bytes, addr) -> None:
        if self._owner is None:
            if len(self._early) < self._MAX_EARLY_DATAGRAMS:
                self._early.append((data, addr))
            else:
                self._early_dropped += 1
            return
        self._owner._on_datagram(data, addr)

    def error_received(self, exc) -> None:  # pragma: no cover - OS specific
        pass


class _PooledConn:
    """One established TCP connection in a peer's pool."""

    __slots__ = ("reader", "writer", "last_used")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        last_used: float,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.last_used = last_used


class _PeerChannel:
    """Pooled reliable (TCP) connections to a single peer.

    A send first tries pooled idle connections — a stale one (the peer
    restarted since we last talked) is discarded without consuming a
    retry attempt — then falls back to opening a fresh connection, with
    up to ``reliable_connect_retries`` retries spaced by jittered
    exponential backoff. At most ``reliable_pool_size`` idle connections
    are retained; the transport's reaper closes ones idle longer than
    ``reliable_idle_timeout``.
    """

    __slots__ = ("_owner", "_host", "_port", "_idle", "_in_flight")

    def __init__(self, owner: "UdpTransport", host: str, port: int) -> None:
        self._owner = owner
        self._host = host
        self._port = port
        self._idle: List[_PooledConn] = []
        self._in_flight = 0

    @property
    def _stats(self) -> TransportStats:
        return self._owner.stats

    @property
    def idle_count(self) -> int:
        return len(self._idle)

    @property
    def unused(self) -> bool:
        return not self._idle and self._in_flight == 0

    async def send(self, frame: bytes) -> bool:
        """Deliver one frame; returns ``False`` on permanent failure."""
        self._in_flight += 1
        try:
            if await self._send_on_pooled(frame):
                return True
            return await self._send_on_fresh(frame)
        finally:
            self._in_flight -= 1

    async def _send_on_pooled(self, frame: bytes) -> bool:
        while self._idle:
            conn = self._idle.pop()
            if conn.writer.is_closing():
                self._stats.incr("conns_closed_error")
                continue
            try:
                conn.writer.write(frame)
                await conn.writer.drain()
            except asyncio.CancelledError:
                await _close_writer(conn.writer)
                raise
            except OSError:
                self._stats.incr("conns_closed_error")
                await _close_writer(conn.writer)
                continue
            self._stats.incr("conns_reused")
            self._stats.incr("reliable_send_ok")
            self._checkin(conn)
            return True
        return False

    async def _send_on_fresh(self, frame: bytes) -> bool:
        opts = self._owner.config
        for attempt in range(opts.reliable_connect_retries + 1):
            if attempt:
                self._stats.incr("reliable_connect_retries")
                await asyncio.sleep(self._backoff_delay(attempt))
            if self._owner.closed:
                return False
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self._host, self._port),
                    opts.reliable_connect_timeout,
                )
            except (OSError, asyncio.TimeoutError):
                self._stats.incr("connect_failures")
                continue
            self._stats.incr("conns_opened")
            try:
                writer.write(frame)
                await writer.drain()
            except asyncio.CancelledError:
                await _close_writer(writer)
                raise
            except OSError:
                self._stats.incr("conns_closed_error")
                await _close_writer(writer)
                continue
            self._stats.incr("reliable_send_ok")
            self._checkin(
                _PooledConn(reader, writer, self._owner.loop_time())
            )
            return True
        self._stats.incr("reliable_send_failed")
        return False

    def _backoff_delay(self, attempt: int) -> float:
        opts = self._owner.config
        delay = min(
            opts.reliable_backoff_max,
            opts.reliable_backoff_base * (2 ** (attempt - 1)),
        )
        return delay * random.uniform(0.5, 1.5)

    def _checkin(self, conn: _PooledConn) -> None:
        if conn.writer.is_closing():
            return
        if len(self._idle) >= self._owner.config.reliable_pool_size:
            self._stats.incr("conns_closed_surplus")
            conn.writer.close()
            return
        conn.last_used = self._owner.loop_time()
        self._idle.append(conn)

    async def reap_idle(self, now: float, idle_timeout: float) -> None:
        """Close pooled connections idle longer than ``idle_timeout``."""
        keep: List[_PooledConn] = []
        reap: List[_PooledConn] = []
        for conn in self._idle:
            if now - conn.last_used > idle_timeout or conn.writer.is_closing():
                reap.append(conn)
            else:
                keep.append(conn)
        self._idle = keep
        for conn in reap:
            self._stats.incr("conns_closed_idle")
            await _close_writer(conn.writer)

    async def close(self) -> None:
        idle, self._idle = self._idle, []
        for conn in idle:
            await _close_writer(conn.writer)


class UdpTransport:
    """Satisfies :class:`repro.runtime.Transport` over real sockets.

    Create with :meth:`UdpTransport.create` inside a running event loop.
    The reliable channel is fire-and-forget from the node's perspective;
    permanent failures (connect retries exhausted) are reported through
    :attr:`on_reliable_failure` and counted in :attr:`stats`. Every
    transport in :mod:`repro.transport` exposes the same hook with the
    same semantics (:class:`~repro.transport.sim.SimTransport` fires it
    for partition-severed reliable sends), so the node's local-health
    accounting and the sync engine's error handling are transport-agnostic.

    The datagram path is pluggable: this class is the default
    ``"asyncio"`` backend (one ``sendto``/callback per datagram);
    :class:`repro.transport.fastudp.BatchedUdpTransport` subclasses it,
    replacing only the datagram path with a batched-syscall
    :class:`~repro.transport.fastudp.PacketPump` while inheriting the
    whole pooled reliable channel. Use
    :func:`repro.transport.fastudp.create_udp_transport` to pick a
    backend from :attr:`SwimConfig.transport_backend`.
    """

    #: Backend name reported in stats/metrics (overridden by subclasses).
    backend = "asyncio"

    def __init__(
        self, local_address: str, config: Optional[SwimConfig] = None
    ) -> None:
        self._local_address = local_address
        self.config = config if config is not None else SwimConfig()
        self._handler: Optional[Callable[[bytes, str, bool], None]] = None
        self._udp: Optional[asyncio.DatagramTransport] = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._closed = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._channels: Dict[str, _PeerChannel] = {}
        self._pending_sends: set = set()
        self._reaper: Optional[asyncio.Task] = None
        self._stats = TransportStats()
        self._faults: Optional[FaultInjector] = None
        #: Called with the destination address when a reliable send fails
        #: permanently (wired to the node's local-health hook by
        #: :class:`UdpMember`).
        self.on_reliable_failure: Optional[Callable[[str], None]] = None

    @classmethod
    async def create(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[SwimConfig] = None,
    ) -> "UdpTransport":
        """Bind the datagram socket, then listen on the same TCP port.

        With ``port=0`` the kernel draws the UDP port, and about one draw
        in 3,000 lands on a number some TCP socket already holds: that
        draw is closed and another made, :data:`PORT_DRAWS` at most. An
        explicit port that is taken raises at once. Either way a failed
        listen leaves no socket behind.
        """
        draws = 1 if port else PORT_DRAWS
        while True:
            self = await cls._open_datagram(host, port, config)
            try:
                await self._start_reliable(*parse_address(self._local_address))
                return self
            except BaseException as exc:  # a cancelled create leaks nothing either
                self._close_datagram()
                draws -= 1
                taken = isinstance(exc, OSError) and exc.errno == errno.EADDRINUSE
                if not (taken and draws):
                    raise

    @classmethod
    async def _open_datagram(
        cls, host: str, port: int, config: Optional[SwimConfig]
    ) -> "UdpTransport":
        """A transport with its datagram half bound (what differs per
        backend); :meth:`_close_datagram` undoes it."""
        loop = asyncio.get_running_loop()
        udp_transport, protocol = await loop.create_datagram_endpoint(
            _UdpProtocol, local_addr=(host, port)
        )
        udp_sock = udp_transport.get_extra_info("socket")
        if udp_sock is not None:
            _request_socket_buffers(udp_sock)
        bound_host, bound_port = udp_transport.get_extra_info("sockname")[:2]
        self = cls(f"{bound_host}:{bound_port}", config)
        self._loop = loop
        self._udp = udp_transport
        buffered, dropped = protocol.set_owner(self)
        if buffered:
            self._stats.incr("datagrams_buffered_early", buffered)
        if dropped:
            self._stats.incr("datagrams_dropped_early", dropped)
        return self

    def _close_datagram(self) -> None:
        self._udp.close()

    async def _start_reliable(self, host: str, port: int) -> None:
        """Start the TCP side channel (server + idle reaper) on the same
        host/port the datagram socket is bound to. Shared by every
        backend — the reliable channel is backend-independent."""
        self._tcp_server = await asyncio.start_server(
            self._on_tcp_connection, host=host, port=port
        )
        self._reaper = self._loop.create_task(self._reap_idle_loop())

    @property
    def local_address(self) -> str:
        return self._local_address

    @property
    def stats(self) -> TransportStats:
        """Channel-level counters (see :class:`TransportStats`)."""
        return self._stats

    @property
    def closed(self) -> bool:
        return self._closed

    def use_stats(self, stats: TransportStats) -> None:
        """Redirect counting into ``stats`` (folding in anything already
        counted), so transport events surface in a node's telemetry."""
        stats.merge(self._stats)
        stats.backend = self.backend
        self._stats = stats

    def loop_time(self) -> float:
        return self._loop.time()

    # ------------------------------------------------------------------ #
    # Fault injection (see repro.faults and docs/SOAK.md)
    # ------------------------------------------------------------------ #

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        """The active injector, or ``None`` (introspection for tests)."""
        return self._faults

    def set_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Arm (or with ``None`` disarm) a fault plan on the live
        transport: the one way a plan reaches a real member. The soak
        launcher uses it through the member process's plan file, which
        arms an already-converged cluster against a shared wall-clock
        epoch."""
        self._faults = FaultInjector(plan) if plan is not None else None

    def _fault_drop_datagram(self, peer: str, outbound: bool) -> bool:
        if self._faults is None:
            return False
        if self._faults.drop_datagram(peer, time.time(), outbound):
            self._stats.incr(
                "faults_datagrams_dropped_out"
                if outbound
                else "faults_datagrams_dropped_in"
            )
            return True
        return False

    def _fault_block_reliable(self, peer: str) -> bool:
        if self._faults is None:
            return False
        if self._faults.block_reliable(peer, time.time()):
            self._stats.incr("faults_reliable_blocked")
            return True
        return False

    def pooled_connections(self, destination: str) -> int:
        """Idle pooled connections to ``destination`` (introspection)."""
        channel = self._channels.get(destination)
        return channel.idle_count if channel is not None else 0

    def bind(self, handler: Callable[[bytes, str, bool], None]) -> None:
        self._handler = handler

    def send(self, destination: str, payload: bytes, reliable: bool = False) -> None:
        if self._closed:
            return
        if reliable:
            if self._fault_block_reliable(destination):
                self._stats.incr("reliable_send_failed")
                if self.on_reliable_failure is not None:
                    self.on_reliable_failure(destination)
                return
            task = asyncio.ensure_future(self._send_reliable(destination, payload))
            self._pending_sends.add(task)
            task.add_done_callback(self._pending_sends.discard)
        else:
            if self._fault_drop_datagram(destination, outbound=True):
                return
            try:
                self._udp.sendto(payload, parse_address(destination))
            except (OSError, ValueError):
                self._stats.incr("udp_send_error")
                return
            # One datagram per syscall is what defines this backend; the
            # counter/batch pair makes that visible next to the batched
            # backend's numbers on the same dashboards.
            self._stats.incr("udp_send_syscalls")
            self._stats.record_batch("send", 1)

    async def _send_reliable(self, destination: str, payload: bytes) -> None:
        try:
            host, port = parse_address(destination)
        except ValueError:
            self._stats.incr("reliable_send_failed")
            return
        channel = self._channels.get(destination)
        if channel is None:
            channel = self._channels[destination] = _PeerChannel(self, host, port)
        addr = self._local_address.encode("utf-8")
        frame = _FRAME.pack(len(addr), len(payload)) + addr + payload
        ok = await channel.send(frame)
        if not ok and not self._closed and self.on_reliable_failure is not None:
            self.on_reliable_failure(destination)

    async def _on_tcp_connection(self, reader, writer) -> None:
        """Serve one inbound reliable connection: a loop of length-prefixed
        frames until the peer closes (peers pool connections, so many
        frames per connection is the common case).

        Neither wait is the peer's to choose. Between frames the
        connection may idle for twice ``reliable_idle_timeout`` — an
        honest peer's reaper closes its pooled end after one, so it never
        races this close; once a frame has begun, the rest of it is due
        within ``reliable_connect_timeout``."""
        opts = self.config
        try:
            while True:
                try:
                    start = await asyncio.wait_for(
                        reader.read(_FRAME.size), 2 * opts.reliable_idle_timeout
                    )
                except asyncio.TimeoutError:
                    self._stats.incr("conns_closed_idle")
                    return
                if not start:
                    return
                try:
                    frame = await asyncio.wait_for(
                        _rest_of_frame(reader, start), opts.reliable_connect_timeout
                    )
                except (
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    UnicodeDecodeError,
                ):
                    self._stats.incr("frames_truncated")
                    return
                if frame is None:
                    self._stats.incr("frames_oversized")
                    return
                addr, payload = frame
                self._stats.incr("frames_received")
                if self._faults is not None and self._faults.partitioned_from(
                    addr, time.time()
                ):
                    # Inbound half of a partition: the peer's frame made
                    # it through TCP before both sides armed, or only
                    # this side carries the window — drop it here so the
                    # cut is symmetric regardless.
                    self._stats.incr("faults_reliable_blocked")
                    continue
                if self._handler is not None:
                    self._handler(payload, addr, True)
        except OSError:
            pass
        finally:
            await _close_writer(writer)

    def _on_datagram(self, data: bytes, addr) -> None:
        self._stats.incr("udp_recv_syscalls")
        self._stats.record_batch("recv", 1)
        source = f"{addr[0]}:{addr[1]}"
        if self._fault_drop_datagram(source, outbound=False):
            return
        if self._handler is not None:
            self._handler(data, source, False)

    async def _reap_idle_loop(self) -> None:
        idle_timeout = self.config.reliable_idle_timeout
        interval = max(0.05, idle_timeout / 4)
        while True:
            await asyncio.sleep(interval)
            now = self.loop_time()
            for address, channel in list(self._channels.items()):
                await channel.reap_idle(now, idle_timeout)
                if channel.unused:
                    del self._channels[address]

    async def close(self) -> None:
        self._closed = True
        if self._reaper is not None:
            self._reaper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reaper
            self._reaper = None
        pending = list(self._pending_sends)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for channel in self._channels.values():
            await channel.close()
        self._channels.clear()
        self._close_datagram()
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()


class UdpMember:
    """A fully wired SWIM/Lifeguard member on real sockets.

    The asyncio analogue of what :class:`~repro.sim.runtime.SimCluster`
    builds per member in the simulator. Transport events are folded into
    ``node.telemetry.transport`` and permanent reliable-send failures
    feed the node's local-health hook.

    When ``config.admin_port`` is set (``0`` = ephemeral), an
    :class:`~repro.ops.http.AdminServer` is started alongside the member:
    its metrics registry snapshots this node at scrape time, the node's
    ack-latency hook feeds the probe-RTT histogram, and membership events
    are teed into the server's bounded event stream.
    """

    def __init__(self, node: SwimNode, transport: UdpTransport, admin=None) -> None:
        self.node = node
        self.transport = transport
        #: The attached :class:`~repro.ops.http.AdminServer`, or ``None``.
        self.admin = admin

    @classmethod
    async def create(
        cls,
        name: str,
        config: Optional[SwimConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        listener: Optional[EventListener] = None,
        rng: Optional[random.Random] = None,
        meta: bytes = b"",
        on_user_event=None,
    ) -> "UdpMember":
        config = config if config is not None else SwimConfig.lifeguard()
        # Late import: fastudp subclasses UdpTransport, so the factory
        # lives there and cannot be imported at module load time.
        from repro.transport.fastudp import create_udp_transport

        transport = await create_udp_transport(host, port, config=config)
        scheduler = AsyncioScheduler()
        node = SwimNode(
            name,
            config,
            clock=scheduler.time,
            scheduler=scheduler,
            transport=transport,
            rng=rng,
            listener=listener,
            meta=meta,
            on_user_event=on_user_event,
        )
        transport.bind(node.handle_packet)
        transport.use_stats(node.telemetry.transport)
        transport.on_reliable_failure = node.note_reliable_send_failure
        admin = None
        if config.admin_port is not None:
            from repro.ops.http import AdminServer

            try:
                admin = await AdminServer.start(
                    node, host=config.admin_host, port=config.admin_port
                )
            except OSError:
                await transport.close()
                raise
        return cls(node, transport, admin)

    @property
    def address(self) -> str:
        return self.transport.local_address

    @property
    def admin_address(self) -> Optional[str]:
        """``host:port`` of the admin API, or ``None`` when disabled."""
        return self.admin.address if self.admin is not None else None

    def start(self) -> None:
        self.node.start()

    def join(self, seed_addresses) -> None:
        self.node.join(seed_addresses)

    async def stop(self) -> None:
        if self.node.running:
            self.node.stop()
        if self.admin is not None:
            await self.admin.close()
        await self.transport.close()
