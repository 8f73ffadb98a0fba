"""Shared fixtures: the transport-backend parity matrix.

Every test that takes the ``backend`` fixture runs once per real UDP
datagram backend, so the whole fault suite exercises the batched
fast path (:mod:`repro.transport.fastudp`) as well as the stock
asyncio path. The ``"batched"`` backend needs no skip: where
``recvmmsg``/``sendmmsg`` are unavailable it degrades to a portable
per-datagram drain with identical semantics — only tests asserting
*actual* multi-datagram syscalls skip on ``mmsg_available()``.
"""

import contextlib
import gc
import os

import pytest

from repro.config import SwimConfig
from repro.transport.fastudp import create_udp_transport

TRANSPORT_BACKENDS = ("asyncio", "batched")


def open_sockets():
    """Descriptors of this process that are sockets, as ``{fd: inode
    link}``; ``None`` where there is no ``/proc`` to ask."""
    try:
        fds = os.listdir("/proc/self/fd")
    except OSError:
        return None
    sockets = {}
    for fd in fds:
        try:
            link = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed by now
            continue
        if link.startswith("socket:"):
            sockets[int(fd)] = link
    return sockets


@contextlib.contextmanager
def assert_no_leaked_sockets():
    """No socket is open at exit that was not open at entry."""
    before = open_sockets()
    yield
    if before is not None:
        gc.collect()
        leaked = {
            fd: link
            for fd, link in open_sockets().items()
            if before.get(fd) != link
        }
        assert not leaked, f"sockets left open: {leaked}"


@pytest.fixture(autouse=True)
def no_leaked_sockets():
    """Every test leaves the process's sockets as it found them (what
    ``benchmarks/perf`` asserts after every rep, lifted into tier 1). A
    module whose fixtures outlive a test overrides this and wraps the
    fixture instead."""
    with assert_no_leaked_sockets():
        yield


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
