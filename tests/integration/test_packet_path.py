"""Packet-path soak: high-volume traffic over the batched backend.

Two real :class:`UdpMember` processes on loopback exchange tens of
thousands of datagrams through the recvmmsg/sendmmsg fast path while
the SWIM protocol runs underneath. The test proves the reused
receive slots at volume: every datagram that arrives decodes cleanly
(zero codec errors — a reused-buffer bug would corrupt frames under
exactly this kind of load), and the burst traffic never starves the
probe loop into a false suspicion.

CI's transport matrix runs it at reduced volume via the
``PACKET_SOAK_MESSAGES`` environment variable.
"""

import asyncio
import os

import pytest

from repro.config import SwimConfig
from repro.metrics.event_log import ClusterEventLog
from repro.swim import codec
from repro.swim.events import EventKind
from repro.swim.messages import Ack, Ping
from repro.transport.fastudp import mmsg_available
from repro.transport.udp import UdpMember

SOAK_MESSAGES = int(os.environ.get("PACKET_SOAK_MESSAGES", "10000"))

#: Injected probe seqs start far above anything the nodes generate
#: themselves, so soak acks never collide with real probe acks.
_SEQ_BASE = 1 << 20


def _soak_config():
    return SwimConfig.lifeguard(
        transport_backend="batched",
        probe_interval=0.4,
        probe_timeout=0.2,
        gossip_interval=0.1,
        push_pull_interval=5.0,
        reconnect_interval=0.0,
    )


def _instrument(member, counters):
    """Rebind the member's transport through a counting wrapper that
    independently re-decodes every datagram before handing it to the
    node, so codec failures are visible (the node swallows them)."""
    original = member.node.handle_packet

    def wrapped(payload, source, reliable=False):
        data = bytes(payload)  # materialise: the view dies with this call
        try:
            message = codec.decode(data)
        except codec.CodecError:
            counters["codec_errors"] += 1
        else:
            if isinstance(message, Ack) and message.seq_no >= _SEQ_BASE:
                counters["soak_acks"] += 1
        original(data, source, reliable)

    member.transport.bind(wrapped)


class TestPacketPathSoak:
    def test_high_volume_batched_traffic_is_clean(self):
        async def scenario():
            log = ClusterEventLog()
            config = _soak_config()
            a = await UdpMember.create("soak-a", config, listener=log)
            b = await UdpMember.create("soak-b", config, listener=log)
            counters = {"codec_errors": 0, "soak_acks": 0}
            _instrument(a, counters)
            _instrument(b, counters)

            a.start()
            b.start()
            b.join([a.address])
            for _ in range(100):
                await asyncio.sleep(0.05)
                if len(a.node.members) == 2 and len(b.node.members) == 2:
                    break
            assert len(a.node.members) == 2
            assert len(b.node.members) == 2

            # Drive the soak: bursts of pings from a's socket to b; b's
            # node acks each one back through the same fast path.
            sent = 0
            while sent < SOAK_MESSAGES:
                burst = min(128, SOAK_MESSAGES - sent)
                for i in range(burst):
                    ping = Ping(_SEQ_BASE + sent + i, "soak-b", "soak-a")
                    a.transport.send(b.address, codec.encode(ping))
                sent += burst
                await asyncio.sleep(0.002)

            # Wait for the ack stream to drain (loopback may still shed
            # a little under burst pressure; require near-complete
            # delivery, not perfection).
            target = int(SOAK_MESSAGES * 0.9)
            for _ in range(200):
                if counters["soak_acks"] >= target:
                    break
                await asyncio.sleep(0.05)

            assert counters["codec_errors"] == 0
            assert counters["soak_acks"] >= target, (
                f"only {counters['soak_acks']}/{SOAK_MESSAGES} soak acks "
                "made the round trip"
            )

            # The protocol survived the load: both members still see each
            # other alive and nobody was suspected or declared failed.
            suspicious = [
                e
                for e in log.events
                if e.kind in (EventKind.SUSPECTED, EventKind.FAILED)
            ]
            assert suspicious == []
            assert len(a.node.members) == 2
            assert len(b.node.members) == 2

            # On Linux the volume must actually have exercised batching.
            if mmsg_available():
                recv_batches = b.node.telemetry.transport.batches
                assert any(
                    size > 1 and count > 0
                    for (direction, size), count in recv_batches.items()
                    if direction == "recv"
                )

            await a.stop()
            await b.stop()

        asyncio.run(scenario())
