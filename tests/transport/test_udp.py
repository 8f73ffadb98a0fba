"""Tests for the real UDP/TCP runtime (localhost only).

Datagram-path tests take the ``backend`` fixture (see conftest.py) and
run against both the stock asyncio path and the batched fast path —
the parity matrix from ISSUE 8.
"""

import asyncio

import pytest

from repro.config import SwimConfig
from repro.metrics.event_log import ClusterEventLog
from repro.swim.events import EventKind
from repro.swim.state import MemberState
from repro.transport.udp import UdpMember, parse_address
from tests.transport.conftest import make_transport


def fast_config(**overrides):
    params = dict(
        probe_interval=0.25,
        probe_timeout=0.12,
        gossip_interval=0.08,
        push_pull_interval=1.5,
        reconnect_interval=0.0,
    )
    params.update(overrides)
    return SwimConfig.lifeguard(**params)


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:7946") == ("127.0.0.1", 7946)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_address("no-port")
        with pytest.raises(ValueError):
            parse_address(":123")
        with pytest.raises(ValueError):
            parse_address("127.0.0.1:65536")


class TestUdpTransport:
    def test_datagram_round_trip(self, backend):
        async def scenario():
            a = await make_transport(backend)
            b = await make_transport(backend)
            received = asyncio.get_running_loop().create_future()
            # Payload may arrive as a memoryview into a reused receive
            # slot (batched backend): materialise inside the handler,
            # exactly as real handlers must.
            b.bind(lambda p, s, r: received.set_result((bytes(p), s, r)))
            a.send(b.local_address, b"hello")
            payload, source, reliable = await asyncio.wait_for(received, 5)
            assert payload == b"hello"
            assert source == a.local_address
            assert reliable is False
            assert a.backend == backend
            assert a.stats.get("udp_send_syscalls") >= 1
            assert b.stats.get("udp_recv_syscalls") >= 1
            await a.close()
            await b.close()

        asyncio.run(scenario())

    def test_reliable_round_trip_carries_canonical_address(self, backend):
        async def scenario():
            a = await make_transport(backend)
            b = await make_transport(backend)
            received = asyncio.get_running_loop().create_future()
            b.bind(lambda p, s, r: received.set_result((bytes(p), s, r)))
            a.send(b.local_address, b"sync", reliable=True)
            payload, source, reliable = await asyncio.wait_for(received, 5)
            assert payload == b"sync"
            assert source == a.local_address  # not the ephemeral TCP port
            assert reliable is True
            await a.close()
            await b.close()

        asyncio.run(scenario())

    def test_send_to_bad_address_does_not_crash(self, backend):
        async def scenario():
            a = await make_transport(backend)
            a.send("not-an-address", b"x")
            a.send("127.0.0.1:1", b"x", reliable=True)  # likely refused
            await asyncio.sleep(0.2)
            assert a.stats.get("udp_send_error") == 1
            await a.close()

        asyncio.run(scenario())

    def test_burst_round_trip(self, backend):
        """Many datagrams queued in one tick all arrive (this is the
        sendmmsg coalescing path on the batched backend)."""

        async def scenario():
            a = await make_transport(backend)
            b = await make_transport(backend)
            got = []
            done = asyncio.get_running_loop().create_future()

            def on_packet(p, s, r):
                got.append(bytes(p))
                if len(got) == 50 and not done.done():
                    done.set_result(None)

            b.bind(on_packet)
            for i in range(50):
                a.send(b.local_address, b"m%03d" % i)
            await asyncio.wait_for(done, 5)
            assert sorted(got) == [b"m%03d" % i for i in range(50)]
            assert a.stats.get("udp_send_syscalls") >= 1
            await a.close()
            await b.close()

        asyncio.run(scenario())


class TestUdpCluster:
    def test_join_detect_failure(self, backend):
        async def scenario():
            log = ClusterEventLog()
            config = fast_config(transport_backend=backend)
            members = [
                await UdpMember.create(f"u{i}", config, listener=log)
                for i in range(4)
            ]
            seed = members[0]
            seed.start()
            for member in members[1:]:
                member.start()
                member.join([seed.address])
            await asyncio.sleep(2.5)
            assert all(len(m.node.members) == 4 for m in members)
            assert all(
                m.node.telemetry.transport.backend == backend for m in members
            )

            victim = members[2]
            await victim.stop()
            await asyncio.sleep(6.0)
            failures = [
                e
                for e in log.events
                if e.kind is EventKind.FAILED and e.subject == "u2"
            ]
            assert failures, "victim should be declared failed"
            survivors = [m for m in members if m is not victim]
            for member in survivors:
                assert member.node.members.get("u2").state is MemberState.DEAD
                await member.stop()

        asyncio.run(scenario())
