"""Transport creation: the UDP socket and the TCP listener share one
port number, and a listen that fails must take the datagram half down
with it — on both backends, with nothing left open.

``create(port=0)`` lets the kernel draw the UDP port; about one draw in
3,000 lands on a number some TCP socket already holds, so a refused
paired listen is drawn again (a bounded number of times) instead of
failing whatever asked. An explicit port is the caller's choice and
raises at once.
"""

import asyncio
import errno
import socket

import pytest

from repro.transport import udp
from tests.leaks import open_sockets
from tests.transport.conftest import make_transport

needs_proc = pytest.mark.skipif(
    open_sockets() is None, reason="no /proc/self/fd to count sockets in"
)


async def _settled_sockets():
    # A closed asyncio datagram endpoint releases its socket one loop
    # turn later (connection_lost is scheduled, not called).
    await asyncio.sleep(0)
    await asyncio.sleep(0)
    return open_sockets()


@pytest.fixture
def refused_listens(monkeypatch):
    """Make the first ``refusals[0]`` paired TCP listens fail the way a
    taken port does; returns ``[refusals, calls]`` for the test to set
    and read."""
    state = [0, 0]
    real = asyncio.start_server

    async def start_server(*args, **kwargs):
        state[1] += 1
        if state[1] <= state[0]:
            raise OSError(errno.EADDRINUSE, "address already in use")
        return await real(*args, **kwargs)

    monkeypatch.setattr(asyncio, "start_server", start_server)
    return state


@needs_proc
class TestFailedListenLeavesNothingBehind:
    def test_taken_explicit_port_raises_at_once(self, backend):
        async def scenario():
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                listener.bind(("127.0.0.1", 0))
                listener.listen(1)
                port = listener.getsockname()[1]
                before = await _settled_sockets()
                with pytest.raises(OSError) as excinfo:
                    await make_transport(backend, port=port)
                assert excinfo.value.errno == errno.EADDRINUSE
                assert await _settled_sockets() == before
            finally:
                listener.close()

        asyncio.run(scenario())

    def test_explicit_port_is_never_redrawn(self, backend, refused_listens):
        refused_listens[0] = 1

        async def scenario():
            probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
            probe.close()
            before = await _settled_sockets()
            with pytest.raises(OSError):
                await make_transport(backend, port=port)
            assert refused_listens[1] == 1
            assert await _settled_sockets() == before

        asyncio.run(scenario())


@needs_proc
class TestPortZeroRedraws:
    def test_refused_paired_listen_is_drawn_again(self, backend, refused_listens):
        refused_listens[0] = 2

        async def scenario():
            before = await _settled_sockets()
            transport = await make_transport(backend)
            assert refused_listens[1] == 3
            # The two failed draws are closed: what is open now is one
            # datagram socket and one listener.
            assert len(await _settled_sockets()) == len(before) + 2
            host, port = udp.parse_address(transport.local_address)
            assert transport._tcp_server.sockets[0].getsockname() == (host, port)
            await transport.close()
            assert await _settled_sockets() == before

        asyncio.run(scenario())

    def test_draws_are_bounded(self, backend, refused_listens):
        refused_listens[0] = 10**6

        async def scenario():
            before = await _settled_sockets()
            with pytest.raises(OSError) as excinfo:
                await make_transport(backend)
            assert excinfo.value.errno == errno.EADDRINUSE
            assert refused_listens[1] == udp.PORT_DRAWS
            assert await _settled_sockets() == before

        asyncio.run(scenario())

    def test_another_error_is_not_retried(self, backend, monkeypatch):
        calls = []

        async def start_server(*args, **kwargs):
            calls.append(args)
            raise OSError(errno.EMFILE, "too many open files")

        monkeypatch.setattr(asyncio, "start_server", start_server)

        async def scenario():
            before = await _settled_sockets()
            with pytest.raises(OSError) as excinfo:
                await make_transport(backend)
            assert excinfo.value.errno == errno.EMFILE
            assert len(calls) == 1
            assert await _settled_sockets() == before

        asyncio.run(scenario())
