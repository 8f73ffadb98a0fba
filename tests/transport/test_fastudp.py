"""Unit tests for the batched fast path (repro.transport.fastudp).

The parity matrix in test_udp.py / test_udp_faults.py proves the
batched backend behaves like the asyncio one; these tests cover what
is *specific* to the fast path: actual multi-datagram syscall batches
(skipped with a reason where recvmmsg/sendmmsg are unavailable), the
portable fallback, the zero-allocation ``send_encoded`` path, and
backend selection.
"""

import asyncio

import pytest

from repro.config import SwimConfig
from repro.swim import codec
from repro.swim.messages import Ack, Ping
from repro.transport import fastudp
from repro.transport.fastudp import (
    BatchedUdpTransport,
    create_udp_transport,
    mmsg_available,
)
from repro.transport.udp import UdpTransport

requires_mmsg = pytest.mark.skipif(
    not mmsg_available(),
    reason="recvmmsg/sendmmsg not available on this platform; the "
    "batched backend runs its portable per-datagram fallback here",
)


def batched_config(**overrides):
    params = dict(transport_backend="batched")
    params.update(overrides)
    return SwimConfig(**params)


class TestBackendSelection:
    def test_factory_default_is_plain_asyncio_transport(self):
        async def scenario():
            t = await create_udp_transport(config=SwimConfig())
            assert type(t) is UdpTransport
            assert t.backend == "asyncio"
            await t.close()

        asyncio.run(scenario())

    def test_factory_batched(self):
        async def scenario():
            t = await create_udp_transport(config=batched_config())
            assert type(t) is BatchedUdpTransport
            assert t.backend == "batched"
            assert t.pump.uses_mmsg == mmsg_available()
            await t.close()

        asyncio.run(scenario())

    def test_unset_config_means_asyncio(self):
        assert SwimConfig().transport_backend == "asyncio"

    def test_backend_tag_follows_use_stats(self):
        async def scenario():
            from repro.metrics.telemetry import TransportStats

            t = await create_udp_transport(config=batched_config())
            stats = TransportStats()
            t.use_stats(stats)
            assert stats.backend == "batched"
            assert t.pump.stats is stats
            await t.close()

        asyncio.run(scenario())


@requires_mmsg
class TestSyscallBatching:
    def test_same_tick_sends_coalesce_into_one_sendmmsg(self):
        async def scenario():
            a = await create_udp_transport(config=batched_config())
            b = await create_udp_transport(config=batched_config())
            got = []
            done = asyncio.get_running_loop().create_future()

            def on_packet(p, s, r):
                got.append(bytes(p))
                if len(got) == 20 and not done.done():
                    done.set_result(None)

            b.bind(on_packet)
            # 20 sends in one event-loop tick: one sendmmsg.
            for i in range(20):
                a.send(b.local_address, b"x%02d" % i)
            await asyncio.wait_for(done, 5)
            assert a.stats.get("udp_send_syscalls") == 1
            assert a.stats.batches[("send", 20)] == 1
            # The receiver drained them in far fewer syscalls than
            # datagrams (timing may split the batch, but not 20 ways).
            assert b.stats.get("udp_recv_syscalls") < 20
            await a.close()
            await b.close()

        asyncio.run(scenario())

    def test_bursts_larger_than_batch_size_split(self):
        async def scenario():
            a = await create_udp_transport(
                config=batched_config(transport_batch_size=8)
            )
            b = await create_udp_transport(config=batched_config())
            got = []
            done = asyncio.get_running_loop().create_future()

            def on_packet(p, s, r):
                got.append(bytes(p))
                if len(got) == 20 and not done.done():
                    done.set_result(None)

            b.bind(on_packet)
            for i in range(20):
                a.send(b.local_address, b"y%02d" % i)
            await asyncio.wait_for(done, 5)
            assert a.stats.get("udp_send_syscalls") == 3  # 8 + 8 + 4
            assert a.stats.batches[("send", 8)] == 2
            assert a.stats.batches[("send", 4)] == 1
            await a.close()
            await b.close()

        asyncio.run(scenario())

    def test_oversized_datagram_is_truncation_counted_by_receiver(self):
        async def scenario():
            a = await create_udp_transport(config=batched_config())
            b = await create_udp_transport(config=batched_config())
            delivered = []
            b.bind(lambda p, s, r: delivered.append(bytes(p)))
            big = b"z" * (fastudp.PacketPump.DATAGRAM_SIZE + 100)
            a.send(b.local_address, big)
            for _ in range(50):
                await asyncio.sleep(0.01)
                if b.stats.get("datagrams_truncated"):
                    break
            assert b.stats.get("datagrams_truncated") == 1
            assert delivered == []  # dropped, not delivered mangled
            await a.close()
            await b.close()

        asyncio.run(scenario())


class TestPortableFallback:
    def test_round_trip_without_mmsg(self, monkeypatch):
        """Force the portable per-datagram fallback and prove the pump
        still moves traffic with correct stats semantics."""
        monkeypatch.setattr(fastudp, "HAVE_MMSG", False)

        async def scenario():
            a = await create_udp_transport(config=batched_config())
            b = await create_udp_transport(config=batched_config())
            assert a.pump.uses_mmsg is False
            got = []
            done = asyncio.get_running_loop().create_future()

            def on_packet(p, s, r):
                got.append((bytes(p), s))
                if len(got) == 10 and not done.done():
                    done.set_result(None)

            b.bind(on_packet)
            for i in range(10):
                a.send(b.local_address, b"f%d" % i)
            await asyncio.wait_for(done, 5)
            assert sorted(p for p, _ in got) == [b"f%d" % i for i in range(10)]
            assert all(s == a.local_address for _, s in got)
            # Fallback is honest: one syscall per datagram, batch size 1.
            assert a.stats.get("udp_send_syscalls") == 10
            assert a.stats.batches[("send", 1)] == 10
            assert b.stats.batches[("recv", 1)] == 10
            await a.close()
            await b.close()

        asyncio.run(scenario())


class TestSendEncoded:
    def test_send_encoded_is_wire_identical_to_encode_plus_send(self):
        async def scenario():
            a = await create_udp_transport(config=batched_config())
            b = await create_udp_transport(config=batched_config())
            got = []
            done = asyncio.get_running_loop().create_future()

            def on_packet(p, s, r):
                got.append(bytes(p))
                if len(got) == 3 and not done.done():
                    done.set_result(None)

            b.bind(on_packet)
            messages = [Ping(1, "t", "s"), Ack(2, "s"), Ping(3, "u", "v")]
            # Scratch is reused across all three sends in one tick: the
            # pump must have copied each before the next overwrites it.
            for m in messages:
                n = a.send_encoded(b.local_address, m)
                assert n == len(codec.encode(m))
            await asyncio.wait_for(done, 5)
            assert sorted(got) == sorted(codec.encode(m) for m in messages)
            await a.close()
            await b.close()

        asyncio.run(scenario())

    def test_node_scratch_path_only_on_buffer_send_transports(self):
        assert BatchedUdpTransport.supports_buffer_send is True
        assert not getattr(UdpTransport, "supports_buffer_send", False)
