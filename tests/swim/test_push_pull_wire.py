"""The push-pull wire path against reference models kept here.

Send side: ``join_states`` strings a table together out of claims
packed once; the reference is a per-entry encoder that restates the
layout field by field and shares nothing. Receive side: ``decode``
checks such a table with one ``split`` against the cache of validated
entries and walks any other entry by entry; the reference is the same
decoder with the cache emptied first, which can only walk. What a member
table sends and how it merges what it receives are held to the table's
model in ``test_member_table.py``.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.swim import codec
from repro.swim.member_map import MAX_STATE_AGE_MS, MemberMap
from repro.swim.messages import Compound, PushPull
from repro.swim.roster import Roster
from repro.swim.state import MemberState

#: Includes two-, three- and four-byte UTF-8 sequences.
_NAMES = ["la", "lb", "m0", "m1", "nœud-2", "ノード3", "m-𝟜", "x" * 255]
_ADDRESSES = ["10.0.0.1:7946", "hôte:1", "a"]
_METAS = [b"", b"role=db", b"\x00\xff", b"m" * codec.MAX_META_SIZE]


def _reference_states(entries) -> bytes:
    """``u16`` count + entries, one field at a time."""
    out = struct.pack(">H", len(entries))
    for name, address, incarnation, state_value, meta, age_ms in entries:
        for text in (name, address):
            raw = text.encode("utf-8")
            out += struct.pack(">B", len(raw)) + raw
        out += struct.pack(">Q", incarnation)
        out += struct.pack(">B", state_value)
        out += struct.pack(">H", len(meta)) + meta
        out += struct.pack(">I", age_ms)
    return out


def _reference_push_pull(source, states_wire, join=False, is_reply=False) -> bytes:
    raw = source.encode("utf-8")
    flags = (1 if join else 0) | (2 if is_reply else 0)
    return (
        bytes((codec.T_PUSH_PULL, len(raw))) + raw + bytes((flags,)) + states_wire
    )


_entries = st.lists(
    st.tuples(
        st.sampled_from(_NAMES),
        st.sampled_from(_ADDRESSES),
        st.integers(0, 2**64 - 1),
        st.integers(0, 3),
        st.sampled_from(_METAS) | st.binary(max_size=16),
        st.integers(0, 2**32 - 1),
    ),
    max_size=12,
).map(tuple)


# --------------------------------------------------------------------- #
# Send side
# --------------------------------------------------------------------- #


def test_snapshot_age_saturates_in_the_reference_too():
    members = MemberMap("la", "la:1", random.Random(0))
    now = 2 * MAX_STATE_AGE_MS / 1000.0
    entry = ("la", "la:1", 1, 0, b"", MAX_STATE_AGE_MS)
    assert members.snapshot(now).wire == _reference_states([entry])


@given(_entries, st.booleans(), st.booleans())
def test_hand_built_entries_match_reference_encoder(entries, join, is_reply):
    message = PushPull("src", entries, join, is_reply)
    packed = codec.pack_states(entries)
    assert packed.wire == _reference_states(entries)
    assert packed == entries and len(packed) == len(entries)
    wire = _reference_push_pull("src", packed.wire, join, is_reply)
    assert codec.encode(message) == wire
    scratch = bytearray(b"\x00")
    assert codec.encode_into(message, scratch) == len(wire)
    assert scratch[1:] == wire


@given(_entries, st.booleans(), st.booleans())
def test_round_trip_when_states_are_the_wire_form(entries, join, is_reply):
    message = PushPull("src", codec.pack_states(entries), join, is_reply)
    decoded = codec.decode(codec.encode(message))
    assert decoded == message and message == decoded
    assert decoded.states == entries
    assert list(message.iter_entries()) == list(decoded.iter_entries())
    assert message != PushPull("src", entries + (("z", "z", 0, 0, b"", 0),))


def test_short_hand_built_entries_default_meta_and_age():
    packed = codec.pack_states([("a", "b", 1, 2), ("c", "d", 3, 0, b"m")])
    assert list(packed) == [("a", "b", 1, 2, b"", 0), ("c", "d", 3, 0, b"m", 0)]
    clamped = codec.pack_states([("a", "b", 1, 0, b"", 2**40), ("a", "b", 1, 0, b"", -5)])
    assert [entry[5] for entry in clamped] == [0xFFFFFFFF, 0]


class TestUnencodableTables:
    """What the wire format cannot carry raises the encoder's error —
    same type, same message — whether the entries come from a table or
    were built by hand."""

    @staticmethod
    def _encode_table(members: MemberMap) -> bytes:
        return codec.encode(PushPull("la", members.snapshot(1.0)))

    @pytest.mark.parametrize(
        "name, address", [("n" * 256, "a"), ("é" * 128, "a"), ("n", "a" * 256)]
    )
    def test_over_long_string(self, name, address):
        members = MemberMap("la", "la:1", random.Random(0))
        members.add(name, address, 1, MemberState.ALIVE, 0.0)
        expected = "string too long for wire format: 256 bytes"
        with pytest.raises(codec.CodecError, match=expected):
            self._encode_table(members)
        with pytest.raises(codec.CodecError, match=expected):
            codec.encode(PushPull("la", ((name, address, 1, 0),)))
        # Still refused the second time: nothing half-built was cached.
        with pytest.raises(codec.CodecError, match=expected):
            self._encode_table(members)

    def test_over_long_meta(self):
        meta = b"m" * (codec.MAX_META_SIZE + 1)
        members = MemberMap("la", "la:1", random.Random(0))
        members.add("m0", "a", 1, MemberState.ALIVE, 0.0, meta)
        expected = "byte field too long: 513 > 512"
        with pytest.raises(codec.CodecError, match=expected):
            self._encode_table(members)
        with pytest.raises(codec.CodecError, match=expected):
            codec.encode(PushPull("la", (("m0", "a", 1, 0, meta),)))
        members.set_local_meta(meta)
        with pytest.raises(codec.CodecError, match=expected):
            self._encode_table(members)

    def test_too_many_entries(self):
        roster = Roster()
        roster.extend((f"m{i}", "a", b"", "") for i in range(0xFFFF))
        members = MemberMap("la", "la:1", random.Random(0), roster=roster)
        members.add_many(range(len(roster)), 1, MemberState.ALIVE, 0.0)
        assert len(members) == 0x10000
        expected = "too many states in push-pull"
        with pytest.raises(codec.CodecError, match=expected):
            self._encode_table(members)
        with pytest.raises(codec.CodecError, match=expected):
            codec.encode(PushPull("la", (("m", "a", 1, 0),) * 0x10000))
        members.merge_claim("m0", MemberState.DEAD, 1, 0.0)
        members.reclaim_dead(10.0, 1.0)
        assert len(members.snapshot(10.0)) == 0xFFFF


class TestPackedClaimsBelongToTheRoster:
    """n tables over one roster hold n packed claims, not n x n."""

    def test_every_map_joins_the_same_entry_objects(self):
        roster = Roster()
        roster.extend((f"m{i:02d}", f"m{i:02d}:1", b"", "") for i in range(64))
        maps = [
            MemberMap(f"m{i:02d}", f"m{i:02d}:1", random.Random(i), roster=roster)
            for i in range(64)
        ]
        for members in maps:
            members.add_many(range(64), 1, MemberState.ALIVE, 0.0)
        assert roster.entries == [] and roster.alive == set()
        first = maps[0].snapshot(3.0)
        packed = list(roster.entries)
        assert roster.alive == set(packed) and len(roster.alive) == 64
        snapshots = [first] + [members.snapshot(3.0) for members in maps[1:]]
        # Nobody after the first packed (or published) anything.
        assert list(map(id, roster.entries)) == list(map(id, packed))
        # Every member ALIVE at incarnation 1 since 0.0, the map's own first.
        held = [(f"m{i:02d}", f"m{i:02d}:1", 1, 0, b"", 3000) for i in range(64)]
        for k, snapshot in enumerate(snapshots):
            table = [held[k], *held[:k], *held[k + 1 :]]
            assert snapshot.wire == _reference_states(table)

    def test_a_replaced_record_is_published_by_its_holder_only(self):
        roster = Roster()
        maps = [
            MemberMap(name, f"{name}:1", random.Random(i), roster=roster)
            for i, name in enumerate(("la", "lb", "lc"))
        ]
        for members in maps:
            members.add_many(range(3), 1, MemberState.ALIVE, 0.0)
            members.snapshot()
        la, lb, lc = maps
        shared = roster.records[lc._local_id]
        # One observer hears lc moved: copy-on-write, seen by nobody else.
        lb.merge_claim("lc", MemberState.ALIVE, 2, 1.0, address="lc:2")
        assert la._records[lc._local_id] is shared
        assert ("lc", "lc:2", 2, 0, b"", 1000) in list(lb.snapshot(1.0))
        assert roster.published_records[lc._local_id] is lb._records[lc._local_id]
        assert ("lc", "lc:1", 1, 0, b"", 1000) in list(la.snapshot(1.0))
        assert roster.published_records[lc._local_id] is shared
        # lc re-announces itself: the roster's record changes for lc and
        # whoever is seeded from the roster afterwards.
        lc.set_local_meta(b"v2")
        assert roster.records[lc._local_id] is lc._records[lc._local_id]
        assert roster.records[lc._local_id] is not shared
        assert ("lc", "lc:1", 1, 0, b"v2", 1000) in list(lc.snapshot(1.0))
        assert ("lc", "lc:1", 1, 0, b"", 1000) in list(la.snapshot(1.0))


# --------------------------------------------------------------------- #
# Receive side
# --------------------------------------------------------------------- #


def _plain(message):
    """A decoded message with every push-pull's states spelled out: the
    bytes, and the entry tuples read back through ``split``."""
    if isinstance(message, Compound):
        return tuple(_plain(part) for part in message.parts)
    if isinstance(message, PushPull):
        states = message.states
        assert type(states) is codec.PackedStates and len(states) == len(states.split()[0])
        return (message.source, states.wire, tuple(states), message.join, message.is_reply)
    return message


def _outcome(buf):
    try:
        return _plain(codec.decode(buf))
    except codec.CodecError as exc:
        return ("CodecError", str(exc))


def _cold(buf):
    """What the sequential walk makes of ``buf``: with no entry known,
    no ``split`` can succeed."""
    codec._ENTRY_CACHE.clear()
    return _outcome(buf)


def _three_kinds(buf):
    scratch = bytearray(buf)
    return buf, scratch, memoryview(scratch)


#: Ages whose four bytes also occur inside entries: all zeros (every
#: incarnation), 0x00000001 (incarnation 1), "abcd" and "\x00\x00\x07\xd0"
#: (names, addresses and metas below).
_AGES = [0, 1, 5000, 0x61626364, 2000, MAX_STATE_AGE_MS]
_AGED_NAMES = _NAMES[:7] + ["abcd", "\x00\x00\x07\u0400"]
_AGED_ADDRESSES = _ADDRESSES + ["xabcd:1"]
_AGED_METAS = _METAS[:3] + [b"abcd", b"\x00\x00\x07\xd0"]


@st.composite
def _tables(draw, names=_AGED_NAMES):
    """State entries as a sender would string them together: usually one
    age throughout (what ``join_states`` turns into a separator), now and
    then mixed, possibly the same subject (or entry) more than once."""
    entries = draw(
        st.lists(
            st.tuples(
                st.sampled_from(names),
                st.sampled_from(_AGED_ADDRESSES),
                st.sampled_from([0, 1, 2, 2**64 - 1]),
                st.integers(0, 3),
                st.sampled_from(_AGED_METAS),
                st.sampled_from(_AGES),
            ),
            max_size=8,
        )
    )
    if draw(st.integers(0, 3)):
        age = draw(st.sampled_from(_AGES))
        entries = [entry[:5] + (age,) for entry in entries]
    return tuple(entries)


def _packets(tables=_entries | _tables()):
    push_pull = st.builds(PushPull, st.sampled_from(_NAMES), tables, st.booleans())
    return st.one_of(
        push_pull.map(codec.encode),
        # Inside a compound a large push-pull is decoded in place.
        st.lists(push_pull, min_size=1, max_size=3)
        .map(lambda parts: codec.encode(Compound(tuple(parts)))),
    )


@given(_tables())
def test_join_is_byte_equal_to_the_per_entry_encoder(entries):
    claims = [codec.pack_entry(*entry[:5]) for entry in entries]
    ages = [codec.pack_age(entry[5]) for entry in entries]
    reference = codec.pack_states(entries)
    assert reference.wire == _reference_states(entries)
    order = range(len(entries))
    assert codec.join_states(order, claims, ages).wire == reference.wire
    if len(set(ages)) == 1:
        assert codec.join_states(order, claims, ages[0]).wire == reference.wire
    # In another order, out of columns that hold more than the table.
    backwards = codec.pack_states(entries[::-1]).wire
    assert codec.join_states(order[::-1], claims + [b""], ages + [b"\0" * 4]).wire == backwards
    assert codec.join_states((), [b""], codec.pack_age(7)).wire == codec.pack_states(()).wire


@settings(deadline=None, max_examples=60)
@given(_packets())
def test_warm_decode_equals_cold_decode_at_every_truncation(packet):
    expected = [_cold(packet[:cut]) for cut in range(len(packet) + 1)]
    assert expected[-1] == _outcome(packet)  # warms every entry
    for cut in range(len(packet) + 1):
        for buf in _three_kinds(packet[:cut]):
            assert _outcome(buf) == expected[cut]
    codec._ENTRY_CACHE.clear()
    assert _outcome(memoryview(bytearray(packet))) == expected[-1]


@settings(deadline=None, max_examples=40)
@given(_packets(_tables()), st.data())
def test_warm_decode_equals_cold_decode_under_every_substitution(packet, data):
    """One byte replaced anywhere -- a length, a state tag, a byte of the
    separator itself -- is refused with the walk's error or decodes to
    what the walk decodes, whether or not the untouched entries are
    known."""
    values = (0x00, 0xFF, data.draw(st.integers(0, 255)))
    for index in range(len(packet)):
        for value in {packet[index] ^ 0x01, *values} - {packet[index]}:
            broken = packet[:index] + bytes((value,)) + packet[index + 1 :]
            expected = _cold(broken)
            codec._ENTRY_CACHE.clear()
            _outcome(packet)  # every entry of the original is known
            for buf in _three_kinds(broken):
                assert _outcome(buf) == expected


def test_one_bad_entry_refuses_the_packet_whole():
    entries = tuple((f"m{i}", "a:1", 1, 0, b"", 5000) for i in range(6))
    packet = codec.encode(PushPull("src", entries))
    assert _outcome(packet)[2] == entries
    at = packet.index(b"\x02m4") + 3 + 4 + 8  # its state tag
    bad = packet[:at] + b"\x09" + packet[at + 1 :]
    for buf in _three_kinds(bad):
        with pytest.raises(codec.CodecError, match="invalid member state 9"):
            codec.decode(buf)


@given(_entries | _tables())
def test_decode_survives_entry_cache_eviction(entries):
    """A cache that overflows within one small packet changes nothing."""
    packet = codec.encode(PushPull("src", entries))
    expected = _cold(packet)
    saved = codec._ENTRY_CACHE_LIMIT
    codec._ENTRY_CACHE_LIMIT = 2
    codec._ENTRY_CACHE.clear()
    try:
        for _ in range(2):
            for buf in _three_kinds(packet):
                assert _outcome(buf) == expected
            assert len(codec._ENTRY_CACHE) <= 2
    finally:
        codec._ENTRY_CACHE_LIMIT = saved


def test_entry_cache_resets_at_its_limit():
    codec._ENTRY_CACHE.clear()
    entries = tuple(
        (f"m{i}", "a", 1, 0, b"", 0) for i in range(codec._ENTRY_CACHE_LIMIT + 10)
    )
    decoded = codec.decode(codec.encode(PushPull("src", entries)))
    assert 0 < len(codec._ENTRY_CACHE) <= codec._ENTRY_CACHE_LIMIT
    # Most of what was validated is no longer cached; reading it back
    # decodes it again.
    assert decoded.states == entries
    assert codec.decode(codec.encode(PushPull("src", entries))) == decoded


def test_nothing_decoded_or_cached_aliases_the_receive_buffer():
    codec._ENTRY_CACHE.clear()
    # Large enough to be decoded in place rather than interned whole.
    entries = (("m0", "a:1", 1, 0, b"", 5), ("m1", "b:2", 2, 3, b"m" * 100, 6))
    packet = codec.encode(PushPull("src", entries))
    assert len(packet) > codec._CACHEABLE_MAX_LEN
    buffer = bytearray(packet)
    decoded = codec.decode(memoryview(buffer))
    buffer[:] = b"\xee" * len(buffer)  # the transport reuses its buffer
    assert decoded == PushPull("src", entries)
    assert decoded.states.wire == codec.pack_states(entries).wire
    assert all(type(entry) is bytes for entry in codec._ENTRY_CACHE)
    assert all(type(entry) is bytes for entry in decoded.states.split()[0])
    assert codec.decode(packet) == decoded
    for entry in decoded.states:
        assert type(entry[4]) is bytes


def _every_cached_entry_is_valid():
    """Each key re-read field by field, from nothing, gives its value."""
    for entry, fields in list(codec._ENTRY_CACHE.items()):
        assert entry == _reference_states([fields + (0,)])[2:-4]
        assert 0 <= fields[3] <= 3


def test_invalid_utf8_is_never_cached():
    codec._ENTRY_CACHE.clear()
    good = codec.encode(PushPull("s", (("ab", "cd", 1, 0),)))
    bad = good.replace(b"\x02ab", b"\x02\xff\xfe")
    for _ in range(2):
        with pytest.raises(codec.CodecError, match="invalid UTF-8"):
            codec.decode(bad)
        assert codec._ENTRY_CACHE == {}


@settings(deadline=None, max_examples=60)
@given(_packets(_tables()), st.data())
def test_the_cache_holds_only_what_the_per_field_decoder_accepted(packet, data):
    codec._ENTRY_CACHE.clear()
    for _ in range(8):
        index = data.draw(st.integers(0, len(packet) - 1))
        broken = bytearray(packet)
        broken[index] = data.draw(st.integers(0, 255))
        _outcome(broken[: data.draw(st.integers(index, len(packet)))])
        _outcome(broken)
        _every_cached_entry_is_valid()
    _outcome(packet)
    _every_cached_entry_is_valid()


def test_a_wire_too_short_for_its_count_is_the_codecs_error():
    for wire in (b"", b"\x00"):
        states = codec.PackedStates(wire)
        with pytest.raises(codec.CodecError, match="truncated u16"):
            len(states)
        with pytest.raises(codec.CodecError, match="truncated u16"):
            list(states)
    assert len(codec.PackedStates(b"\x00\x00")) == 0
