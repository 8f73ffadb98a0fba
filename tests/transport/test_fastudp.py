"""Unit tests for the batched fast path (repro.transport.fastudp).

The parity matrix in test_udp.py / test_udp_faults.py proves the
batched backend behaves like the asyncio one; these tests cover what
is *specific* to the fast path: actual multi-datagram syscall batches
(skipped with a reason where recvmmsg/sendmmsg are unavailable), the
portable fallback, replies leaving with the drain that caused them,
``send_encoded``, and backend selection.
"""

import asyncio
import math

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


class TestRepliesLeaveWithTheirBatch:
    """Datagrams queued while a received batch is being handled are
    flushed when that drain ends — not one event-loop turn later — and a
    drain that ends early leaves the pump able to send."""

    BATCH = 8
    N = 20  # > BATCH, <= BATCH * max_drain: one drain receives them all

    async def _pair(self):
        a = await create_udp_transport(config=batched_config())
        b = await create_udp_transport(
            config=batched_config(transport_batch_size=self.BATCH)
        )
        return a, b

    def _echoes(self, a, count):
        got = []
        done = asyncio.get_running_loop().create_future()

        def on_reply(p, s, r):
            got.append(bytes(p))
            if len(got) == count and not done.done():
                done.set_result(None)

        a.bind(on_reply)
        return got, done

    def _run_reply_burst(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            a, b = await self._pair()
            got, done = self._echoes(a, self.N)
            seen = []

            def next_turn():
                # Scheduled from the first handled datagram, so it runs
                # ahead of anything the drain itself could schedule.
                seen.append(
                    (b.stats.get("udp_send_syscalls"), b.pump.pending_sends)
                )

            def on_packet(p, s, r):
                if not seen and not b.pump.pending_sends:
                    loop.call_soon(next_turn)
                b.send(s, b"re:" + bytes(p))

            b.bind(on_packet)
            for i in range(self.N):
                a.send(b.local_address, b"q%02d" % i)
            await asyncio.wait_for(done, 5)
            assert got == [b"re:q%02d" % i for i in range(self.N)]
            stats = b.stats
            await a.close()
            await b.close()
            return seen, stats

        return asyncio.run(scenario())

    @requires_mmsg
    def test_replies_are_on_the_wire_before_the_next_loop_turn(self):
        seen, stats = self._run_reply_burst()
        syscalls = math.ceil(self.N / self.BATCH)
        assert seen == [(syscalls, 0)]
        assert stats.get("udp_send_syscalls") == syscalls
        assert stats.batches[("send", self.BATCH)] == self.N // self.BATCH
        assert stats.batches[("send", self.N % self.BATCH)] == 1

    def test_portable_fallback_flushes_with_the_drain_too(self, monkeypatch):
        monkeypatch.setattr(fastudp, "HAVE_MMSG", False)
        seen, stats = self._run_reply_burst()
        assert seen == [(self.N, 0)]
        assert stats.batches[("send", 1)] == self.N

    @pytest.mark.parametrize("have_mmsg", [True, False])
    def test_a_raising_handler_does_not_wedge_later_sends(
        self, monkeypatch, have_mmsg
    ):
        if have_mmsg and not mmsg_available():
            pytest.skip("recvmmsg/sendmmsg not available on this platform")
        monkeypatch.setattr(fastudp, "HAVE_MMSG", have_mmsg)

        async def scenario():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
            a, b = await self._pair()
            got, done = self._echoes(a, 2)

            def on_packet(p, s, r):
                b.send(s, b"before the error")
                raise RuntimeError("handler bug")

            b.bind(on_packet)
            a.send(b.local_address, b"q")
            for _ in range(100):
                await asyncio.sleep(0.01)
                if errors:
                    break
            assert [type(ctx["exception"]) for ctx in errors] == [RuntimeError]
            # Outside a drain again: this one schedules its own flush.
            b.send(a.local_address, b"after the error")
            await asyncio.wait_for(done, 5)
            assert got == [b"before the error", b"after the error"]
            assert b.pump.pending_sends == 0
            await a.close()
            await b.close()

        asyncio.run(scenario())

    def test_an_armed_writer_keeps_the_queue_in_order(self):
        async def scenario():
            a, b = await self._pair()
            got, done = self._echoes(a, self.N + 1)
            b.bind(lambda p, s, r: b.send(s, b"re:" + bytes(p)))
            # A full socket buffer, as the flush sees it: one datagram
            # stays queued behind the writer callback. Replies handled
            # meanwhile must queue behind it, not overtake it.
            b.pump._outbox.append((b"first", b.pump._resolve(a.local_address)))
            b.pump._arm_writer()
            for i in range(self.N):
                a.send(b.local_address, b"q%02d" % i)
            await asyncio.wait_for(done, 5)
            assert got[0] == b"first"
            assert sorted(got[1:]) == [b"re:q%02d" % i for i in range(self.N)]
            assert b.pump.pending_sends == 0 and not b.pump._writer_armed
            await a.close()
            await b.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("have_mmsg", [True, False])
    def test_close_mid_drain_is_clean(self, monkeypatch, have_mmsg):
        if have_mmsg and not mmsg_available():
            pytest.skip("recvmmsg/sendmmsg not available on this platform")
        monkeypatch.setattr(fastudp, "HAVE_MMSG", have_mmsg)

        async def scenario():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
            a, b = await self._pair()
            handled = []

            def on_packet(p, s, r):
                handled.append(bytes(p))
                b.send(s, b"re:" + bytes(p))
                b.pump.close()

            b.bind(on_packet)
            for i in range(self.N):
                a.send(b.local_address, b"q%02d" % i)
            for _ in range(100):
                await asyncio.sleep(0.01)
                if handled:
                    break
            await asyncio.sleep(0.05)
            # At most the rest of the syscall batch already received is
            # still handed over; nothing is read from, or written to, the
            # closed descriptor.
            assert 1 <= len(handled) <= self.BATCH
            assert errors == []
            assert b.pump.pending_sends == 0
            assert b.stats.get("udp_recv_error") == 0
            assert b.stats.get("udp_send_error") == 0
            await a.close()
            await b.close()

        asyncio.run(scenario())

    def test_a_buffer_is_copied_at_enqueue(self):
        async def scenario():
            a, b = await self._pair()
            got, done = self._echoes(a, 2)
            scratch = bytearray(b"one")
            b.pump.send(scratch, a.local_address)
            scratch[:] = b"two"
            b.pump.send(memoryview(scratch), a.local_address)
            scratch[:] = b"xxx"
            await asyncio.wait_for(done, 5)
            assert got == [b"one", b"two"]
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
            # Three sends in one tick: each datagram is its own bytes.
            for m in messages:
                n = a.send_encoded(b.local_address, m)
                assert n == len(codec.encode(m))
            await asyncio.wait_for(done, 5)
            assert sorted(got) == sorted(codec.encode(m) for m in messages)
            await a.close()
            await b.close()

        asyncio.run(scenario())
