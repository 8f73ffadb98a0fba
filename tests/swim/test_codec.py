"""Tests for the binary wire codec, including round-trip fuzzing."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.swim import codec
from repro.swim.messages import (
    Ack,
    Alive,
    Compound,
    Dead,
    Nack,
    Ping,
    PingReq,
    PushPull,
    Suspect,
    UserEvent,
    ZoneClaim,
)

from tests.swim.test_compound_walk import _frame

_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=32
)
_seqs = st.integers(min_value=0, max_value=2**32 - 1)
_incs = st.integers(min_value=0, max_value=2**64 - 1)


def _messages_strategy():
    ping = st.builds(Ping, _seqs, _names, _names)
    ping_req = st.builds(PingReq, _seqs, _names, _names, st.booleans())
    ack = st.builds(Ack, _seqs, _names)
    nack = st.builds(Nack, _seqs, _names)
    suspect = st.builds(Suspect, _incs, _names, _names)
    alive = st.builds(Alive, _incs, _names, _names, st.binary(max_size=64))
    dead = st.builds(Dead, _incs, _names, _names)
    user_event = st.builds(UserEvent, _names, _seqs, st.binary(max_size=128))
    states = st.lists(
        st.tuples(
            _names,
            _names,
            _incs,
            st.integers(min_value=0, max_value=3),
            st.binary(max_size=32),
            st.integers(min_value=0, max_value=2**32 - 1),
        ),
        max_size=8,
    ).map(tuple)
    push_pull = st.builds(PushPull, _names, states, st.booleans(), st.booleans())
    return st.one_of(
        ping, ping_req, ack, nack, suspect, alive, dead, user_event, push_pull
    )


class TestRoundTrips:
    @pytest.mark.parametrize(
        "message",
        [
            Ping(1, "target", "source"),
            Ping(2**32 - 1, "t", "s"),
            PingReq(7, "target", "origin", want_nack=True),
            PingReq(7, "target", "origin", want_nack=False),
            Ack(42, "who"),
            Nack(42, "who"),
            Suspect(3, "member", "accuser"),
            Alive(4, "member", "10.0.0.1:7946"),
            Alive(4, "member", "10.0.0.1:7946", meta=b"role=web,dc=eu"),
            Dead(5, "member", "declarer"),
            UserEvent("origin", 17, b"deploy finished"),
            UserEvent("origin", 0, b""),
            PushPull("src", (), join=True),
            PushPull(
                "src",
                (
                    ("a", "a:1", 7, 0, b"", 0),
                    ("b", "b:2", 9, 2, b"tag", 12_500),
                ),
                is_reply=True,
            ),
        ],
    )
    def test_exact_round_trip(self, message):
        assert codec.decode(codec.encode(message)) == message

    def test_compound_round_trip(self):
        compound = Compound((Ping(1, "t", "s"), Suspect(2, "m", "x"), Ack(3, "y")))
        assert codec.decode(codec.encode(compound)) == compound

    def test_nested_compound_round_trip(self):
        inner = Compound((Ack(1, "a"),))
        outer = Compound((Ping(2, "t", "s"), inner))
        assert codec.decode(codec.encode(outer)) == outer

    @given(_messages_strategy())
    def test_round_trip_property(self, message):
        assert codec.decode(codec.encode(message)) == message

    @given(st.lists(_messages_strategy(), min_size=1, max_size=6))
    def test_compound_round_trip_property(self, parts):
        compound = Compound(tuple(parts))
        assert codec.decode(codec.encode(compound)) == compound

    def test_unicode_names(self):
        message = Alive(1, "nœud-1", "hôte:1")
        assert codec.decode(codec.encode(message)) == message


class TestWireFormat:
    def test_messages_are_compact(self):
        """A bare ping should be tens of bytes, not hundreds (Table VI
        measures bytes; a bloated codec would skew it)."""
        assert len(codec.encode(Ping(1, "m012", "m031"))) < 20
        assert len(codec.encode(Suspect(1, "m012", "m031"))) < 25

    def test_push_pull_scales_linearly(self):
        small = PushPull("s", tuple(("m%d" % i, "a%d" % i, 1, 0) for i in range(2)))
        large = PushPull("s", tuple(("m%d" % i, "a%d" % i, 1, 0) for i in range(20)))
        small_len, large_len = len(codec.encode(small)), len(codec.encode(large))
        per_entry = (large_len - small_len) / 18
        assert per_entry < 25

    def test_compound_size_formula(self):
        parts = [codec.encode(Ack(i, "x")) for i in range(3)]
        packed = codec.pack_with_piggyback(Ping(9, "t", "s"), parts)
        expected = codec.compound_size(
            [len(codec.encode(Ping(9, "t", "s")))] + [len(p) for p in parts]
        )
        assert len(packed) == expected

    def test_no_piggyback_sends_bare(self):
        bare = codec.pack_with_piggyback(Ping(9, "t", "s"), [])
        assert bare == codec.encode(Ping(9, "t", "s"))

    def test_string_length_limit(self):
        with pytest.raises(codec.CodecError):
            codec.encode(Ack(1, "x" * 300))


class TestDecodeErrors:
    def test_empty_packet(self):
        with pytest.raises(codec.CodecError):
            codec.decode(b"")

    def test_unknown_tag(self):
        with pytest.raises(codec.CodecError):
            codec.decode(b"\xff\x00\x00")

    def test_truncated_body(self):
        encoded = codec.encode(Ping(1, "target", "source"))
        with pytest.raises(codec.CodecError):
            codec.decode(encoded[:-3])

    def test_trailing_garbage(self):
        encoded = codec.encode(Ack(1, "x")) + b"zz"
        with pytest.raises(codec.CodecError):
            codec.decode(encoded)

    def test_empty_compound(self):
        with pytest.raises(codec.CodecError):
            codec.decode(bytes((codec.T_COMPOUND, 0, 0)))

    def test_truncated_compound_part(self):
        compound = codec.encode(Compound((Ack(1, "x"),)))
        with pytest.raises(codec.CodecError):
            codec.decode(compound[:-1])

    @pytest.mark.parametrize("as_buffer", [bytes, bytearray, memoryview])
    def test_state_tag_out_of_range(self, as_buffer):
        """A well-framed push-pull entry or zone claim whose state byte
        names no ``MemberState`` is refused by the decoder — whatever
        precedes it in the packet, on either entry path (with and
        without a meta), warm or cold — rather than handed to a merge
        that cannot represent it."""
        good = ("ok", "1.1.1.1:2", 1, 0, b"", 0)
        for state_value in range(4, 256):
            bad = ("a", "1.1.1.1:1", 1, state_value, b"", 0)
            for message in (
                PushPull("x", (bad,)),
                PushPull("x", (good, good, bad, good)),
                PushPull("x", (good, bad[:4] + (b"meta", 7))),
                ZoneClaim("z", "m", 1, state_value),
                Compound((Ack(1, "x"), ZoneClaim("z", "m", 1, state_value))),
                Compound((Ack(1, "x"), PushPull("x", (good,) * 8 + (bad,)))),
            ):
                packet = as_buffer(codec.encode(message))
                for _ in range(2):
                    with pytest.raises(
                        codec.CodecError, match=f"invalid member state {state_value}$"
                    ):
                        codec.decode(packet)
        for state_value in range(4):
            for message in (
                PushPull("x", (("a", "1.1.1.1:1", 1, state_value, b"", 0),)),
                ZoneClaim("z", "m", 1, state_value),
            ):
                assert codec.decode(as_buffer(codec.encode(message))) == message

    @given(st.binary(max_size=64))
    def test_fuzz_never_crashes(self, data):
        """Arbitrary bytes either decode or raise CodecError — nothing
        else (no unhandled exceptions, no hangs)."""
        try:
            codec.decode(data)
        except codec.CodecError:
            pass

    @given(_messages_strategy(), st.integers(min_value=0, max_value=16))
    def test_fuzz_truncations(self, message, cut):
        encoded = codec.encode(message)
        if cut == 0:
            return
        truncated = encoded[:-cut] if cut < len(encoded) else b""
        try:
            codec.decode(truncated)
        except codec.CodecError:
            pass


class TestDecodeCache:
    def test_cache_returns_equal_messages(self):
        a = codec.decode(codec.encode(Suspect(1, "m", "s")))
        b = codec.decode(codec.encode(Suspect(1, "m", "s")))
        assert a == b

    def test_cache_does_not_confuse_distinct_payloads(self):
        a = codec.decode(codec.encode(Suspect(1, "m", "s")))
        b = codec.decode(codec.encode(Suspect(2, "m", "s")))
        assert a != b

    def test_cache_overflow_resets(self):
        for i in range(codec._DECODE_CACHE_LIMIT + 10):
            codec.decode(codec.encode(Suspect(i, "x", "y")))
        assert 0 < len(codec._DECODE_CACHE) <= codec._DECODE_CACHE_LIMIT + 1

    def test_a_decoded_claim_encodes_as_the_bytes_it_arrived_as(self):
        codec._DECODE_CACHE.clear()
        claim = Suspect(4, "m", "s")
        wire = codec.encode(claim)
        decoded = codec.decode(wire)
        assert codec.encode(decoded) is wire
        assert codec.encode(Compound((decoded,))) == codec.encode(Compound((claim,)))
        assert decoded == claim and repr(decoded) == repr(claim)
        # Other gossip is encoded anew: an Alive's zone tag has two
        # spellings of "no zone", so what arrived is not always what
        # encoding gives.
        for other in (Dead(4, "m", "s"), Alive(4, "m", "a:1")):
            wire = codec.encode(other)
            assert codec.encode(codec.decode(wire)) is not wire


def _gossip_packet(i: int) -> bytes:
    return codec.pack_compound(
        [codec.encode(Suspect(i, "m", "s")), codec.encode(Alive(i, "m", "a:1"))]
    )


class _SpyCache(dict):
    """A packet cache that records every lookup and store."""

    def __init__(self):
        super().__init__()
        self.lookups = []
        self.stores = []

    def get(self, key, default=None):
        self.lookups.append(key)
        return super().get(key, default)

    def __setitem__(self, key, value):
        self.stores.append(key)
        super().__setitem__(key, value)


class TestPacketCache:
    """Whole gossip-only compounds: decoded once, then looked up."""

    def test_cache_never_exceeds_its_bound(self):
        codec._PACKET_CACHE.clear()
        for i in range(2 * codec._PACKET_CACHE_LIMIT + 10):
            codec.decode(_gossip_packet(i))
            assert 0 < len(codec._PACKET_CACHE) <= codec._PACKET_CACHE_LIMIT

    def test_a_repeated_packet_is_the_same_message(self):
        packet = _gossip_packet(1)
        first = codec.decode(packet)
        assert codec.decode(bytearray(packet)) is first
        assert first == Compound((Suspect(1, "m", "s"), Alive(1, "m", "a:1")))

    @pytest.mark.parametrize(
        "primary", [Ping(7, "b", "a"), Ack(7, "a"), PingReq(7, "b", "a", True), Nack(7, "a")]
    )
    def test_a_probe_led_compound_is_never_looked_up_or_stored(
        self, primary, monkeypatch
    ):
        spy = _SpyCache()
        monkeypatch.setattr(codec, "_PACKET_CACHE", spy)
        packet = codec.pack_encoded_with_piggyback(
            codec.encode(primary), [codec.encode(Suspect(1, "m", "s"))]
        )
        for _ in range(2):
            assert codec.decode(packet).parts[0] == primary
        assert spy.lookups == spy.stores == [] and not spy
        # A gossip-led packet, by contrast, is looked up and stored.
        codec.decode(_gossip_packet(1))
        assert spy.lookups == spy.stores == [_gossip_packet(1)]

    @pytest.mark.parametrize(
        "last", [b"\xff", codec.encode(Alive(1, "m", "a:1"))[:-1]],
        ids=["unknown-tag", "truncated"],
    )
    def test_a_corrupt_last_part_raises_alike_and_is_never_stored(
        self, last, monkeypatch
    ):
        spy = _SpyCache()
        monkeypatch.setattr(codec, "_PACKET_CACHE", spy)
        packet = codec.pack_compound([codec.encode(Suspect(1, "m", "s")), last])
        errors = []
        for _ in range(2):
            with pytest.raises(codec.CodecError) as excinfo:
                codec.decode(packet)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        assert spy.lookups == [packet, packet]
        assert spy.stores == [] and not spy

    @given(st.lists(_messages_strategy(), min_size=1, max_size=6))
    def test_a_warm_decode_equals_a_cold_one(self, parts):
        packet = codec.pack_compound([codec.encode(part) for part in parts])
        codec._PACKET_CACHE.clear()
        codec._DECODE_CACHE.clear()
        cold = codec.decode(packet)
        warm = codec.decode(packet)
        assert warm == cold == Compound(tuple(parts))
        assert [type(part) for part in warm.parts] == [type(p) for p in parts]


def _parent_probe_decode(buf: bytes):
    """What the parent's ``decode`` did with a packet tagged ``T_PING`` or
    ``T_ACK``: its field-by-field branch of ``_decode_at``, then the
    trailing-bytes check."""
    seq_no, offset = codec._get_u32(buf, 1)
    if buf[0] == codec.T_PING:
        target, offset = codec._get_str(buf, offset)
        source, offset = codec._get_str(buf, offset)
        message = Ping(seq_no, target, source)
    else:
        source, offset = codec._get_str(buf, offset)
        message = Ack(seq_no, source)
    if offset != len(buf):
        raise codec.CodecError(f"{len(buf) - offset} trailing bytes after message")
    return message


def _outcome(decode, buf):
    try:
        return decode(buf)
    except codec.CodecError as exc:
        return f"CodecError: {exc}"


def _variants(wire: bytes):
    """Every prefix (the empty one and the whole packet included) and
    every one-byte corruption of ``wire``."""
    for cut in range(len(wire) + 1):
        yield wire[:cut]
    for at in range(len(wire)):
        for value in range(256):
            if value != wire[at]:
                yield wire[:at] + bytes((value,)) + wire[at + 1 :]


class TestProbeDecodeAsAtTheParent:
    """A well-formed ping or ack decodes in one step; everything else
    must still be decoded, or refused with the same error, as the
    parent's field decoders did: alone, and as a compound's first part.
    A corruption that moves the tag off ``T_PING`` / ``T_ACK`` leaves
    the probe branches, and ``decode`` is only asked not to crash."""

    _RIDER = Suspect(3, "m007", "m001")

    @pytest.mark.parametrize(
        "message",
        [
            Ping(0xDEADBEEF, "m007", "mémbre-012"),
            Ping(0, "", ""),
            Ack(0xFFFFFFFF, "mémbre"),
            Ack(7, ""),
        ],
        ids=repr,
    )
    def test_every_prefix_and_corruption(self, message):
        rider = codec.encode(self._RIDER)
        checked = 0
        for buf in _variants(codec.encode(message)):
            framed = _frame([buf, rider])
            if not buf or buf[0] not in (codec.T_PING, codec.T_ACK):
                _outcome(codec.decode, buf)
                _outcome(codec.decode, framed)
                continue
            expected = _outcome(_parent_probe_decode, buf)
            assert _outcome(codec.decode, buf) == expected, buf.hex()
            if not isinstance(expected, str):
                expected = Compound((expected, self._RIDER))
            assert _outcome(codec.decode, framed) == expected, framed.hex()
            checked += 1
        assert checked > 255

    # A probe-led compound: the probe decoded where it lies, the gossip
    # tail after it looked up whole in the tail cache. Each must return
    # or raise exactly what the general walk does, cache cold or warm.

    _LEADS = [
        Ping(0xDEADBEEF, "m007", "m012"),
        Ack(41, "m007"),
        PingReq(9, "m007", "m012", True),
    ]
    _GOSSIP = [
        Alive(5, "m003", "127.0.0.1:20003"),
        _RIDER,
        Dead(2, "m009", "m001"),
        Alive(7, "m004", "127.0.0.1:20004", b"meta" * 30),
        UserEvent("m002", 11, b"payload"),
    ]

    @staticmethod
    def _walk(buf):
        message, offset = codec._decode_compound(buf, 1, 1)
        if offset != len(buf):
            raise codec.CodecError(
                f"{len(buf) - offset} trailing bytes after message"
            )
        return message

    def _packet(self, lead, riders):
        return _frame([codec.encode(lead), *map(codec.encode, riders)])

    @pytest.mark.parametrize("lead", _LEADS, ids=repr)
    @pytest.mark.parametrize("riders", [1, 2, 3, 4, 5])
    def test_a_probe_led_compound_decodes_as_the_walk(self, lead, riders):
        # The Buddy System's Suspect rides in every one of them.
        gossip = self._GOSSIP[:riders] if riders > 1 else [self._RIDER]
        packet = self._packet(lead, gossip)
        expected = Compound((lead, *gossip))
        codec._TAIL_CACHE.clear()
        assert self._walk(packet) == expected
        cold = codec.decode(packet)
        assert packet[len(codec.encode(lead)) + 5 :] in codec._TAIL_CACHE
        warm = codec.decode(memoryview(bytearray(packet)))
        assert cold == warm == expected
        assert list(map(type, warm.parts)) == list(map(type, expected.parts))
        # Another probe with the same gossip is served from the cache.
        other = dataclasses.replace(lead, seq_no=lead.seq_no ^ 1)
        assert codec.decode(self._packet(other, gossip)) == Compound((other, *gossip))

    @pytest.mark.parametrize("lead", _LEADS, ids=repr)
    def test_every_prefix_and_corruption_of_a_probe_led_compound(self, lead):
        packet = self._packet(lead, self._GOSSIP[:3])
        checked = 0
        for warm in (False, True):
            codec._TAIL_CACHE.clear()
            if warm:
                codec.decode(packet)
            for buf in _variants(packet):
                if not buf or buf[0] != codec.T_COMPOUND:
                    continue
                expected = _outcome(self._walk, buf)
                assert _outcome(codec.decode, buf) == expected, buf.hex()
                checked += 1
        assert checked > 2 * 255 * (len(packet) - 1)

    def test_a_tail_is_never_served_under_another_part_count(self):
        lead, gossip = self._LEADS[0], self._GOSSIP[:3]
        parts = [codec.encode(lead), *map(codec.encode, gossip)]
        codec._TAIL_CACHE.clear()
        assert codec.decode(_frame(parts)) == Compound((lead, *gossip))
        assert len(codec._TAIL_CACHE) == 1
        for count in range(8):
            if count == len(parts):
                continue
            buf = _frame(parts, count=count)
            for _ in range(2):
                outcome = _outcome(codec.decode, buf)
                assert outcome == _outcome(self._walk, buf)
                assert isinstance(outcome, str), count
        assert len(codec._TAIL_CACHE) == 1
        assert codec.decode(_frame(parts)) == Compound((lead, *gossip))

    def test_only_clean_gossip_tails_are_stored(self):
        lead = codec.encode(self._LEADS[1])
        rider = codec.encode(self._RIDER)
        codec._TAIL_CACHE.clear()
        for parts in (
            [lead, rider, b"\xff"],  # a corrupt part
            [lead, rider, rider[:-1]],  # a truncated one
            [lead, rider, codec.encode(Ack(3, "m001"))],  # a probe among the gossip
        ):
            _outcome(codec.decode, _frame(parts))
        # A part count one short leaves the last part as trailing bytes.
        _outcome(codec.decode, _frame([lead, rider, rider], count=2))
        assert not codec._TAIL_CACHE

    def test_the_tail_cache_never_exceeds_its_bound(self):
        codec._TAIL_CACHE.clear()
        for i in range(2 * codec._TAIL_CACHE_LIMIT + 10):
            codec.decode(self._packet(Ping(i, "m007", "m012"), [Suspect(i, "m", "s")]))
            assert 0 < len(codec._TAIL_CACHE) <= codec._TAIL_CACHE_LIMIT
