"""The probe round trip held to its parent commit (see
``probe_path_vectors.py`` for how the fixture was captured).

Three things changed shape in PR 20 and none may change behaviour: the
encoders (one table, fused packs), the decode cache (probe kinds never
enter it) and ``SwimNode._send_to_address`` (a packet with nothing to
carry is the encoded primary itself).
"""

import json
import random
from pathlib import Path

import pytest

from repro.config import LifeguardFlags, SwimConfig
from repro.sim.scheduler import EventScheduler
from repro.swim import codec
from repro.swim.broadcast import BroadcastQueue
from repro.swim.messages import (
    Ack,
    Alive,
    Compound,
    Dead,
    Nack,
    Ping,
    PingReq,
    Suspect,
    ZoneClaim,
)
from repro.swim.node import SwimNode
from repro.swim.state import MemberState

from tests.swim import probe_path_vectors as vectors
from tests.swim.test_compound_walk import _frame

PARENT = json.loads(
    (Path(__file__).parent / "fixtures" / "probe_path_parent.json").read_text()
)


def _framed(*parts: bytes) -> bytes:
    """Compound framing, spelled independently of the codec."""
    return _frame(parts)


# --------------------------------------------------------------------- #
# (1) One encoder, byte-identical to the parent's
# --------------------------------------------------------------------- #


class TestWireVectors:
    def test_every_wire_tag_has_a_vector(self):
        tags = {name for name in vars(codec) if name.startswith("T_")}
        assert set(PARENT["wire"]) == set(vectors.MESSAGES) == tags
        for tag, wire in PARENT["wire"].items():
            assert bytes.fromhex(wire)[0] == getattr(codec, tag)

    @pytest.mark.parametrize("tag", sorted(vectors.MESSAGES))
    def test_encodes_as_at_the_parent(self, tag):
        message = vectors.MESSAGES[tag]
        wire = bytes.fromhex(PARENT["wire"][tag])
        assert codec.encode(message) == wire
        out = bytearray(b"\xaa")
        assert codec.encode_into(message, out) == len(wire)
        assert out == b"\xaa" + wire
        other = vectors.MESSAGES["T_ACK"]
        assert codec.encode(Compound((other, message))) == _framed(
            bytes.fromhex(PARENT["wire"]["T_ACK"]), wire
        )
        assert codec.decode(wire) == message

    @pytest.mark.parametrize(
        "build",
        [
            lambda name: Ping(1, name, "s"),
            lambda name: Ping(1, "t", name),
            lambda name: PingReq(1, name, "s", True),
            lambda name: PingReq(1, "t", name),
            lambda name: Ack(1, name),
            lambda name: Nack(1, name),
            lambda name: Suspect(1, name, "s"),
            lambda name: Suspect(1, "m", name),
            lambda name: Dead(1, name, "s"),
            lambda name: Dead(1, "m", name),
            lambda name: ZoneClaim(name, "m", 1, 0),
            lambda name: ZoneClaim("z", name, 1, 0),
        ],
    )
    def test_fused_encoders_refuse_a_256_byte_name(self, build):
        assert len(codec.encode(build("x" * 255))) > 255
        # 128 two-byte characters: the limit is on the encoded length.
        for name in ("x" * 256, "é" * 128):
            with pytest.raises(codec.CodecError) as excinfo:
                codec.encode(build(name))
            assert str(excinfo.value) == "string too long for wire format: 256 bytes"

    def test_a_subclass_encodes_as_its_message_type(self):
        class TracedPing(Ping):
            pass

        assert codec.encode(TracedPing(7, "t", "s")) == codec.encode(Ping(7, "t", "s"))

    def test_anything_else_is_refused(self):
        with pytest.raises(codec.CodecError) as excinfo:
            codec.encode(object())
        assert str(excinfo.value) == "cannot encode object"


# --------------------------------------------------------------------- #
# (2) Probe kinds never enter the decode cache
# --------------------------------------------------------------------- #


def _probe_messages(count):
    kinds = (
        lambda i: Ping(i, "m007", "m012"),
        lambda i: PingReq(i, "m007", "m012", bool(i & 4)),
        lambda i: Ack(i, "m007"),
        lambda i: Nack(i, "m012"),
    )
    return [kinds[i % 4](i) for i in range(count)]


class TestProbeKindsBypassTheDecodeCache:
    def test_ten_thousand_probe_packets_leave_the_cache_alone(self):
        codec._DECODE_CACHE.clear()
        gossip = codec.encode(Suspect(3, "m007", "m001"))
        suspect = codec.decode(gossip)
        assert codec._DECODE_CACHE == {gossip: suspect}
        messages = _probe_messages(10_000)
        assert len(messages) > codec._DECODE_CACHE_LIMIT
        for index, message in enumerate(messages):
            wire = codec.encode(message)
            packet = _framed(wire, gossip)
            if index & 1:
                wire, packet = memoryview(bytearray(wire)), memoryview(packet)
            assert codec.decode(wire) == message
            assert codec.decode(packet) == Compound((message, suspect))
        # Nothing was inserted, so nothing was pushed out either.
        assert codec._DECODE_CACHE == {gossip: suspect}
        assert codec.decode(gossip) is suspect

    def test_no_probe_message_is_ever_a_cache_value(self):
        codec._DECODE_CACHE.clear()
        for tag, wire in PARENT["wire"].items():
            wire = bytes.fromhex(wire)
            codec.decode(wire)
            codec.decode(_framed(wire))
            codec.decode(_framed(_framed(wire)))
        cached = {type(message) for message in codec._DECODE_CACHE.values()}
        assert cached and not cached & {Ping, PingReq, Ack, Nack}

    @pytest.mark.parametrize("tag", vectors.PROBE_TAGS)
    @pytest.mark.parametrize("make", [bytes, bytearray, memoryview])
    def test_truncations_raise_what_the_parent_raised(self, tag, make):
        wire = bytes.fromhex(PARENT["wire"][tag])
        expected = PARENT["truncations"][tag]
        assert len(expected) == len(wire)
        for cut, text in enumerate(expected):
            with pytest.raises(codec.CodecError) as excinfo:
                codec.decode(make(wire[:cut]))
            assert str(excinfo.value) == text
        with pytest.raises(codec.CodecError) as excinfo:
            codec.decode(make(wire + b"\x00"))
        assert str(excinfo.value) == "1 trailing bytes after message"

    @pytest.mark.parametrize("tag", vectors.PROBE_TAGS)
    def test_invalid_utf8_is_still_refused(self, tag):
        wire = bytearray.fromhex(PARENT["wire"][tag])
        wire[-1 if tag != "T_PING_REQ" else -2] = 0xFF
        for packet in (bytes(wire), _framed(bytes(wire))):
            with pytest.raises(codec.CodecError, match="invalid UTF-8 in string"):
                codec.decode(packet)


# --------------------------------------------------------------------- #
# (3) A packet costs what it carries
# --------------------------------------------------------------------- #


class _RecordingTransport:
    local_address = "a"

    def __init__(self):
        self.sent = []

    def send(self, destination, payload, reliable=False):
        self.sent.append((destination, payload, reliable))


def _node(**config):
    scheduler = EventScheduler()
    transport = _RecordingTransport()
    node = SwimNode(
        "a",
        SwimConfig.lifeguard(**config),
        clock=scheduler.clock,
        scheduler=scheduler,
        transport=transport,
        rng=random.Random(1),
    )
    for name in ("b", "c", "d"):
        node.members.add(name, name, 1, MemberState.ALIVE, 0.0)
    return node, transport


@pytest.fixture
def payload_selects(monkeypatch):
    """Counts ``BroadcastQueue.get_payloads`` calls."""
    calls = []
    original = BroadcastQueue.get_payloads

    def counting(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(BroadcastQueue, "get_payloads", counting)
    return calls


class TestBareSendPath:
    @pytest.mark.parametrize("reliable", [False, True])
    def test_empty_queues_send_the_encoded_primary_itself(
        self, reliable, payload_selects
    ):
        node, transport = _node()
        primary = Ack(41, "a")
        node._send_to_address("b", primary, reliable=reliable)
        encoded = codec.encode(primary)
        [(destination, packet, was_reliable)] = transport.sent
        assert (destination, packet, was_reliable) == ("b", encoded, reliable)
        assert type(packet) is bytes
        assert packet == codec.pack_encoded_with_piggyback(encoded, [])
        assert payload_selects == []
        telemetry = node.telemetry
        assert (telemetry.msgs_sent, telemetry.bytes_sent) == (1, len(encoded))
        assert dict(telemetry.msgs_by_kind) == {"ack": 1}
        assert dict(telemetry.bytes_by_kind) == {"ack": len(encoded)}
        assert telemetry.reliable_msgs_sent == int(reliable)
        assert telemetry.reliable_bytes_sent == (len(encoded) if reliable else 0)

    def test_a_pending_broadcast_selects_the_compound_path(self, payload_selects):
        node, transport = _node()
        claim = Suspect(1, "c", "a")
        node.broadcasts.enqueue(claim)
        node._send_to_address("b", Ping(1, "b", "a"))
        assert transport.sent[0][1] == _framed(
            codec.encode(Ping(1, "b", "a")), codec.encode(claim)
        )
        # The user queue is asked exactly when it holds something.
        assert payload_selects == [node.broadcasts]
        event = node.broadcast_event(b"deploy")
        node._send_to_address("b", Ping(2, "b", "a"))
        assert transport.sent[1][1] == _framed(
            codec.encode(Ping(2, "b", "a")), codec.encode(claim), codec.encode(event)
        )
        assert payload_selects[1:] == [node.broadcasts, node.user_broadcasts]

    def test_a_pending_user_event_selects_the_compound_path(self, payload_selects):
        node, transport = _node()
        event = node.broadcast_event(b"deploy")
        node._send_to_address("b", Ack(2, "a"))
        assert transport.sent[0][1] == _framed(
            codec.encode(Ack(2, "a")), codec.encode(event)
        )
        assert payload_selects == [node.broadcasts, node.user_broadcasts]

    def test_a_buddy_payload_selects_the_compound_path(self):
        node, transport = _node(gossip_enabled=False)
        assert node.config.flags.buddy_system
        node.members.apply_claim("b", MemberState.SUSPECT, 1, 0.0)
        node._send_ping("b", node.members.get("b").address, 9)
        assert transport.sent[0][1] == _framed(
            codec.encode(Ping(9, "b", "a")), codec.encode(Suspect(1, "b", "a"))
        )
        # ... and with nothing mandatory the same ping goes bare.
        node._send_ping("c", node.members.get("c").address, 10)
        assert transport.sent[1][1] == codec.encode(Ping(10, "c", "a"))

    def test_a_piggyback_free_send_ignores_the_queues(self, payload_selects):
        node, transport = _node()
        node.broadcasts.enqueue(Suspect(1, "c", "a"))
        node._send_to_address("b", Dead(1, "a", "a"), piggyback=False)
        assert transport.sent[0][1] == codec.encode(Dead(1, "a", "a"))
        assert payload_selects == []

    def test_gossip_disabled_sends_bare_whatever_is_queued(self, payload_selects):
        node, transport = _node(
            gossip_enabled=False, flags=LifeguardFlags(buddy_system=False)
        )
        node.broadcasts.enqueue(Alive(2, "c", "c"))
        node._send_to_address("b", Ack(3, "a"))
        assert transport.sent[0][1] == codec.encode(Ack(3, "a"))
        assert payload_selects == []

    def test_a_seeded_run_sends_the_packets_it_sent_at_the_parent(self):
        run = vectors.recorded_run()
        assert len(run) == len(PARENT["run"])
        for index, (now, then) in enumerate(zip(run, PARENT["run"])):
            assert now == then, f"packet {index} differs"
        bare = sum(1 for line in run if not line.split()[2].startswith("09"))
        # Both sides of the choice are in the run.
        assert 0 < bare < len(run)


class TestGossipRound:
    """A gossip tick selects once for all its targets and packs each
    distinct payload list once."""

    @staticmethod
    def _tick(node, transport):
        transport.sent.clear()
        node._gossip_tick()
        return [packet for _, packet, _ in transport.sent]

    def test_one_selection_per_gossip_tick(self, payload_selects):
        node, transport = _node()
        node.start()
        node.broadcasts.enqueue(Suspect(1, "c", "a"))
        packets = self._tick(node, transport)
        assert len(packets) == node.config.gossip_fanout == 3
        assert payload_selects == [node.broadcasts]
        # A quiet tick selects nothing at all.
        node.broadcasts.clear()
        assert self._tick(node, transport) == []
        assert payload_selects == [node.broadcasts]

    def test_every_target_gets_the_same_packet_while_nothing_retires(self):
        node, transport = _node()
        node.start()
        claims = [Suspect(1, "c", "a"), Alive(2, "d", "d")]
        for claim in claims:
            node.broadcasts.enqueue(claim)
        first, *others = self._tick(node, transport)
        assert first == _framed(*map(codec.encode, reversed(claims)))
        assert all(packet is first for packet in others) and len(others) == 2
        assert [transmits for _, transmits, _ in node.broadcasts.entries()] == [3, 3]

    def test_the_packet_is_repacked_after_an_entry_retires_mid_round(self):
        node, transport = _node()
        node.start()
        limit = node.broadcasts.current_limit()
        old, fresh = Suspect(1, "c", "a"), Alive(2, "d", "d")
        node.broadcasts.enqueue(old)
        # Two transmissions short of the limit: the round's second packet
        # retires it, and the third carries the fresh claim alone.
        node.broadcasts.get_payloads(1000, codec.COMPOUND_PART_OVERHEAD, limit - 2)
        node.broadcasts.enqueue(fresh)
        first, second, third = self._tick(node, transport)
        assert first == _framed(codec.encode(fresh), codec.encode(old))
        assert second is first
        assert third == codec.encode(fresh)
        assert node.broadcasts.peek("c") is None
        assert [transmits for _, transmits, _ in node.broadcasts.entries()] == [3]
