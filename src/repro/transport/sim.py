"""Transport adapter for the simulated network."""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.network import SimNetwork


def _unbound(payload: bytes, from_address: str, reliable: bool) -> None:
    """What a transport that was never bound does with a packet: drop it."""


class SimTransport:
    """Binds one member name to a :class:`~repro.sim.network.SimNetwork`.

    Satisfies :class:`repro.runtime.Transport`. Inbound packets go
    straight from the network to the handler installed with :meth:`bind`
    (it is the network's endpoint for the address); until then they are
    dropped.

    Like :class:`repro.transport.udp.UdpTransport`, the adapter exposes an
    :attr:`on_reliable_failure` hook that fires (with the destination
    address) when a reliable send is severed by a simulated partition —
    the fabric's analogue of exhausting TCP connect retries — so
    Lifeguard's ``RELIABLE_SEND_FAILED`` evidence flows identically under
    simulation and on real sockets.
    """

    __slots__ = ("_address", "_network", "_on_reliable_failure")

    def __init__(self, address: str, network: SimNetwork) -> None:
        self._address = address
        self._network = network
        #: Called with the destination address when a reliable send fails
        #: permanently (same contract as the UDP transport's hook).
        self._on_reliable_failure: Optional[Callable[[str], None]] = None
        network.register(address, _unbound)
        network.register_failure_handler(address, self._on_failure)

    @property
    def on_reliable_failure(self) -> Optional[Callable[[str], None]]:
        return self._on_reliable_failure

    @on_reliable_failure.setter
    def on_reliable_failure(self, handler: Optional[Callable[[str], None]]) -> None:
        self._on_reliable_failure = handler

    @property
    def local_address(self) -> str:
        return self._address

    def bind(self, handler: Callable[[bytes, str, bool], None]) -> None:
        """Install the inbound packet handler
        (``handler(payload, from_address, reliable)``)."""
        self._network.redirect(self._address, handler)

    def send(self, destination: str, payload: bytes, reliable: bool = False) -> None:
        self._network.send(self._address, destination, payload, reliable)

    def close(self) -> None:
        self._network.unregister(self._address)

    def _on_failure(self, destination: str) -> None:
        if self._on_reliable_failure is not None:
            self._on_reliable_failure(destination)
