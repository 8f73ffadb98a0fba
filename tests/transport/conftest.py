"""Shared fixtures: the transport-backend parity matrix.

Every test that takes the ``backend`` fixture runs once per real UDP
datagram backend, so the whole fault suite exercises the batched
fast path (:mod:`repro.transport.fastudp`) as well as the stock
asyncio path. The ``"batched"`` backend needs no skip: where
``recvmmsg``/``sendmmsg`` are unavailable it degrades to a portable
per-datagram drain with identical semantics — only tests asserting
*actual* multi-datagram syscalls skip on ``mmsg_available()``.
"""

import pytest

from repro.config import SwimConfig
from repro.transport.fastudp import create_udp_transport
from tests.leaks import nothing_leaked  # noqa: F401  (autouse in this package)

TRANSPORT_BACKENDS = ("asyncio", "batched")


@pytest.fixture(params=TRANSPORT_BACKENDS)
def backend(request):
    """Name of the datagram backend the test should run against."""
    return request.param


async def make_transport(backend, config=None, host="127.0.0.1", port=0):
    """Create a transport of the requested backend (inside a loop)."""
    config = config if config is not None else SwimConfig()
    return await create_udp_transport(
        host, port, config=config.replace(transport_backend=backend)
    )
