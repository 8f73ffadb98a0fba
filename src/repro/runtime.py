"""Runtime interfaces that make the protocol core sans-IO.

A :class:`~repro.swim.node.SwimNode` never touches sockets, wall clocks or
event loops directly. It is constructed with:

* a **clock** — a zero-argument callable returning the current time in
  seconds (virtual under the simulator, ``loop.time()`` under asyncio);
* a **scheduler** — something that can run a callback at an absolute time
  and cancel it;
* a **transport** — something that can deliver opaque bytes to a named
  peer over a lossy datagram channel or a reliable channel.

These are defined as :class:`typing.Protocol` so the simulator, the
asyncio runtime and the in-memory test drivers all satisfy them without
inheriting from anything.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

#: Zero-argument callable returning the current time in seconds.
Clock = Callable[[], float]


@runtime_checkable
class TimerHandle(Protocol):
    """Handle to a scheduled callback."""

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent; a no-op if the
        callback already ran)."""


@runtime_checkable
class Scheduler(Protocol):
    """Schedules callbacks at absolute times on the owning runtime."""

    def call_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` at absolute time ``when`` (seconds)."""


@runtime_checkable
class Transport(Protocol):
    """Delivers packets to peers addressed by name.

    ``reliable=False`` models the UDP path (may drop, may delay);
    ``reliable=True`` models the TCP path used for memberlist's push-pull
    sync and fallback probe (delivered in order, never silently dropped
    while the peer is reachable).

    "Reliable" is a per-message ordering/integrity guarantee while a
    connection holds, not end-to-end delivery confirmation: the real
    transport (:class:`repro.transport.udp.UdpTransport`) pools
    connections per peer and retries transient connect failures with
    jittered exponential backoff, but a send whose retries are exhausted
    is dropped and reported out-of-band — via the transport's
    ``on_reliable_failure`` callback, which :class:`~repro.transport.udp.
    UdpMember` wires to :meth:`SwimNode.note_reliable_send_failure
    <repro.swim.node.SwimNode.note_reliable_send_failure>` so persistent
    failures count as local-health evidence. Protocol code must therefore
    tolerate the loss of any individual reliable message (anti-entropy is
    periodic; the fallback probe is redundant with indirect probes).

    The node hands ``send`` immutable ``bytes`` it never touches again,
    so a transport may keep the payload by reference (the simulator, the
    in-memory fabric and both UDP backends do).
    """

    @property
    def local_address(self) -> str:
        """The address other members can use to reach this transport."""

    def send(self, destination: str, payload: bytes, reliable: bool = False) -> None:
        """Fire-and-forget delivery of ``payload`` to ``destination``."""
