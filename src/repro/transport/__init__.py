"""Transports binding the sans-IO protocol node to an actual datapath.

* :class:`~repro.transport.sim.SimTransport` — the simulated network.
* :class:`~repro.transport.inmem.InMemoryFabric` — zero-latency direct
  delivery for unit tests (synchronous, no scheduler involvement).
* :class:`~repro.transport.udp.UdpRuntime` — real asyncio UDP/TCP for
  deploying the library on an actual network.
* :class:`~repro.transport.fastudp.BatchedUdpTransport` — the
  batched-syscall (``recvmmsg``/``sendmmsg``) datagram fast path;
  select a backend with
  :func:`~repro.transport.fastudp.create_udp_transport` via
  ``SwimConfig(transport_backend=...)``.
"""

from repro.transport.fastudp import (
    BatchedUdpTransport,
    PacketPump,
    create_udp_transport,
    mmsg_available,
)
from repro.transport.inmem import InMemoryFabric, InMemoryTransport
from repro.transport.sim import SimTransport
from repro.transport.udp import AsyncioScheduler, UdpMember, UdpTransport

__all__ = [
    "AsyncioScheduler",
    "BatchedUdpTransport",
    "InMemoryFabric",
    "InMemoryTransport",
    "PacketPump",
    "SimTransport",
    "UdpMember",
    "UdpTransport",
    "create_udp_transport",
    "mmsg_available",
]
