"""Unit tests for the batched fast path (repro.transport.fastudp).

The parity matrix in test_udp.py / test_udp_faults.py proves the
batched backend behaves like the asyncio one; these tests cover what
is *specific* to the fast path: actual multi-datagram syscall batches
(skipped with a reason where recvmmsg/sendmmsg are unavailable), the
portable fallback, runs of same-size datagrams sent as one
``UDP_SEGMENT`` header (skipped where the kernel lacks it), replies
leaving with the drain that caused them, ``send_encoded``, and backend
selection.
"""

import asyncio
import ctypes
import errno
import math
import socket

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


def _gso_available():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        return fastudp.udp_segment_available(sock)


requires_gso = pytest.mark.skipif(
    not _gso_available(),
    reason="UDP_SEGMENT not available on this kernel; the pump sends "
    "one datagram per mmsghdr here",
)


@pytest.fixture
def sendmmsg_calls(monkeypatch):
    """Every ``sendmmsg`` the pumps make, as a list per call of
    ``(segments, segment_size, iov_len)`` per mmsghdr (a header without
    a control message is one segment of its whole length)."""
    calls = []
    real = fastudp._sendmmsg

    def recording(fd, hdrs, vlen, flags):
        headers = []
        for i in range(vlen):
            hdr = hdrs[i].msg_hdr
            length = hdr.msg_iov[0].iov_len
            if hdr.msg_controllen:
                cmsg = ctypes.cast(
                    hdr.msg_control, ctypes.POINTER(fastudp._SegmentCmsg)
                )[0]
                assert (cmsg.cmsg_level, cmsg.cmsg_type) == (17, 103)
                size = cmsg.segment_size
                headers.append((length // size, size, length))
            else:
                headers.append((1, length, length))
        calls.append(headers)
        return real(fd, hdrs, vlen, flags)

    monkeypatch.setattr(fastudp, "_sendmmsg", recording)
    return calls


def _receiver(transport, count):
    """Bind ``transport`` to collect payloads; the future resolves once
    ``count`` have arrived."""
    got = []
    done = asyncio.get_running_loop().create_future()

    def on_packet(p, s, r):
        got.append(bytes(p))
        if len(got) == count and not done.done():
            done.set_result(None)

    transport.bind(on_packet)
    return got, done


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

    # -- runs of same-size datagrams to one peer (UDP_SEGMENT) ---------

    @requires_gso
    def test_a_same_size_burst_leaves_as_one_header(self, sendmmsg_calls):
        async def scenario():
            a = await create_udp_transport(config=batched_config())
            b = await create_udp_transport(config=batched_config())
            assert a.pump.groups_runs
            sent = [b"r%03d" % i for i in range(20)]
            got, done = _receiver(b, len(sent))
            for payload in sent:
                a.send(b.local_address, payload)
            await asyncio.wait_for(done, 5)
            assert sendmmsg_calls == [[(20, 4, 80)]]
            # The receiver sees the datagrams, not the run: byte-equal,
            # one per payload, in order.
            assert got == sent
            assert a.stats.batches == {("send", 20): 1}
            await a.close()
            await b.close()

        asyncio.run(scenario())

    @requires_gso
    def test_interleaved_peers_and_sizes_keep_order_and_boundaries(
        self, sendmmsg_calls
    ):
        async def scenario():
            a = await create_udp_transport(config=batched_config())
            b = await create_udp_transport(config=batched_config())
            c = await create_udp_transport(config=batched_config())
            # Runs of 1 to 4, switching peer or size between them.
            plan = []
            for i in range(30):
                peer = (b, c)[i % 3 == 2]
                size = 5 + i % 4
                for j in range(1 + i % 4):
                    plan.append((peer, bytes([65 + j]) * size + b"%03d" % i))
            for_b = [p for peer, p in plan if peer is b]
            for_c = [p for peer, p in plan if peer is c]
            got_b, done_b = _receiver(b, len(for_b))
            got_c, done_c = _receiver(c, len(for_c))
            for peer, payload in plan:
                a.send(peer.local_address, payload)
            await asyncio.wait_for(asyncio.gather(done_b, done_c), 5)
            assert got_b == for_b and got_c == for_c
            headers = [h for call in sendmmsg_calls for h in call]
            assert sum(n for n, _, _ in headers) == len(plan)
            assert max(n for n, _, _ in headers) == 4
            await a.close()
            await b.close()
            await c.close()

        asyncio.run(scenario())

    @requires_gso
    @pytest.mark.parametrize("size, count", [(1, 140), (1000, 40)])
    def test_a_run_stays_within_the_segment_cap_slot_and_batch(
        self, sendmmsg_calls, size, count
    ):
        async def scenario():
            a = await create_udp_transport(
                config=batched_config(transport_batch_size=128)
            )
            b = await create_udp_transport(config=batched_config())
            sent = [(b"%04d" % i * size)[:size] for i in range(count)]
            got, done = _receiver(b, count)
            for payload in sent:
                a.send(b.local_address, payload)
            await asyncio.wait_for(done, 5)
            assert sorted(got) == sorted(sent)
            slot = fastudp.PacketPump.DATAGRAM_SIZE
            for call in sendmmsg_calls:
                assert sum(n for n, _, _ in call) <= 128
                for segments, _, length in call:
                    assert segments <= fastudp.MAX_SEGMENTS
                    assert length <= slot
            # Both limits are reached, not just respected.
            longest = max(n for call in sendmmsg_calls for n, _, _ in call)
            assert longest == min(fastudp.MAX_SEGMENTS, slot // size)
            await a.close()
            await b.close()

        asyncio.run(scenario())

    def test_without_udp_segment_every_datagram_has_its_own_header(
        self, monkeypatch, sendmmsg_calls
    ):
        monkeypatch.setattr(fastudp, "udp_segment_available", lambda sock: False)

        async def scenario():
            a = await create_udp_transport(config=batched_config())
            b = await create_udp_transport(config=batched_config())
            assert not a.pump.groups_runs
            sent = [b"s%03d" % i for i in range(20)]
            got, done = _receiver(b, len(sent))
            for payload in sent:
                a.send(b.local_address, payload)
            await asyncio.wait_for(done, 5)
            assert sendmmsg_calls == [[(1, 4, 4)] * 20]
            assert got == sent
            await a.close()
            await b.close()

        asyncio.run(scenario())

    @requires_gso
    def test_a_refused_run_is_resent_as_single_datagrams(self, monkeypatch):
        refused = []
        real = fastudp._sendmmsg

        def refusing(fd, hdrs, vlen, flags):
            # A kernel that will not cut this run (say, a segment above
            # the route MTU) refuses the first header with EINVAL.
            if hdrs[0].msg_hdr.msg_controllen:
                refused.append(vlen)
                ctypes.set_errno(errno.EINVAL)
                return -1
            return real(fd, hdrs, vlen, flags)

        monkeypatch.setattr(fastudp, "_sendmmsg", refusing)

        async def scenario():
            a = await create_udp_transport(config=batched_config())
            b = await create_udp_transport(config=batched_config())
            sent = [b"t%03d" % i for i in range(12)] + [b"tail", b"u" * 9]
            got, done = _receiver(b, len(sent))
            for payload in sent:
                a.send(b.local_address, payload)
            await asyncio.wait_for(done, 5)
            assert got == sent  # nothing lost, nothing reordered
            assert refused == [2]  # the 13-run and the single after it
            assert a.stats.get("udp_gso_refused") == 1
            assert a.stats.get("udp_send_error") == 0
            assert a.stats.batches == {("send", 14): 1}
            await a.close()
            await b.close()

        asyncio.run(scenario())

    @requires_gso
    def test_a_refused_width_is_refused_once_per_pump(self, monkeypatch):
        calls = []
        real = fastudp._sendmmsg

        def mtu_of_seven(fd, hdrs, vlen, flags):
            # Like a route whose MTU leaves room for 7-byte segments:
            # a run of wider ones fails, and sendmmsg reports the
            # headers it sent before it.
            headers = []
            for i in range(vlen):
                hdr = hdrs[i].msg_hdr
                length = hdr.msg_iov[0].iov_len
                if hdr.msg_controllen:
                    size = ctypes.cast(
                        hdr.msg_control, ctypes.POINTER(fastudp._SegmentCmsg)
                    )[0].segment_size
                    if size > 7:
                        if i == 0:
                            calls.append("refused")
                            ctypes.set_errno(errno.EINVAL)
                            return -1
                        vlen = i
                        break
                    headers.append((length // size, size, length))
                else:
                    headers.append((1, length, length))
            calls.append(headers)
            return real(fd, hdrs, vlen, flags)

        monkeypatch.setattr(fastudp, "_sendmmsg", mtu_of_seven)

        async def scenario():
            a = await create_udp_transport(config=batched_config())
            b = await create_udp_transport(config=batched_config())
            for round_ in range(3):
                sent = [b"w%d%06d" % (round_, i) for i in range(10)]
                sent += [b"n%03d" % i for i in range(10)]
                got, done = _receiver(b, len(sent))
                for payload in sent:
                    a.send(b.local_address, payload)
                await asyncio.wait_for(done, 5)
                assert got == sent
            # One failed call in the pump's life, not one per flush; the
            # narrower runs are still grouped.
            flush = [[(1, 8, 8)] * 10 + [(10, 4, 40)]]
            assert calls == ["refused"] + flush * 3
            assert a.stats.get("udp_gso_refused") == 1
            assert a.stats.get("udp_send_error") == 0
            await a.close()
            await b.close()

        asyncio.run(scenario())

    def test_empty_datagrams_each_have_their_own_header(self, sendmmsg_calls):
        # A segment size of 0 would be no UDP_SEGMENT at all: the kernel
        # would send one empty datagram for the whole run.
        async def scenario():
            a = await create_udp_transport(config=batched_config())
            b = await create_udp_transport(config=batched_config())
            sent = [b""] * 5 + [b"x"] + [b""] * 3
            got, done = _receiver(b, len(sent))
            for payload in sent:
                a.send(b.local_address, payload)
            await asyncio.wait_for(done, 5)
            assert got == sent
            assert sendmmsg_calls == [
                [(1, 0, 0)] * 5 + [(1, 1, 1)] + [(1, 0, 0)] * 3
            ]
            assert a.stats.batches == {("send", 9): 1}
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
