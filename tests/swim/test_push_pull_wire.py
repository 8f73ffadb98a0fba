"""The push-pull path against reference models kept here.

Send side: ``MemberMap.snapshot`` packs its columns straight into wire
form from entry heads cached on the roster's records; the reference is a
per-entry encoder that restates the layout field by field and shares
nothing. Receive side: the decode loop looks entry heads up in a cache;
the reference is the same decoder with the cache emptied first.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.swim import codec
from repro.swim.member_map import MAX_STATE_AGE_MS, MemberMap, Roster
from repro.swim.messages import Compound, PushPull
from repro.swim.state import MemberState

_STATES = list(MemberState)
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


def _reference_entries(members: MemberMap, now: float):
    """The table read one member view at a time (``Member.snapshot``
    goes through the view's properties, not the snapshot loop)."""
    return [member.snapshot(now) for member in members.members()]


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

_observer = st.integers(0, 1)
_table_op = st.one_of(
    st.tuples(
        st.just("add"), _observer, st.sampled_from(_NAMES),
        st.sampled_from(_ADDRESSES), st.sampled_from(_METAS),
        st.sampled_from(_STATES), st.sampled_from([0, 1, 3, 2**64 - 1]),
    ),
    # Replaces the observer's record for the subject (copy-on-write)
    # whenever the claim applies and says something new.
    st.tuples(
        st.just("merge"), _observer, st.sampled_from(_NAMES),
        st.sampled_from(_STATES), st.integers(0, 5),
        st.none() | st.sampled_from(_ADDRESSES),
        st.none() | st.sampled_from(_METAS),
        st.floats(0.0, 30.0),
    ),
    # Replaces the roster's record for the observer itself.
    st.tuples(st.just("meta"), _observer, st.sampled_from(_METAS)),
    # Frees ids, which a later add takes up again.
    st.tuples(st.just("reclaim"), _observer, st.floats(0.0, 5.0)),
    st.tuples(st.just("bump"), _observer),
    # Ages far past what the u32 millisecond field holds.
    st.tuples(st.just("wait"), st.sampled_from([0.0, 0.0004, 1.0, 5.0e6])),
)


@settings(deadline=None, max_examples=200)
@given(ops=st.lists(_table_op, max_size=40), preseed=st.booleans())
def test_snapshot_bytes_match_reference_encoder(ops, preseed):
    roster = Roster()
    maps = [
        MemberMap(name, f"{name}:7946", random.Random(i), roster=roster)
        for i, name in enumerate(("la", "lb"))
    ]
    if preseed:
        roster.extend((n, f"{n}:1", b"", "") for n in _NAMES[2:5])
        for members in maps:
            members.add_many(range(len(roster)), 1, MemberState.ALIVE, 0.0)
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "wait":
            now += op[1]
            continue
        members = maps[op[1]]
        if kind == "add":
            _, _, name, address, meta, state, incarnation = op
            if name not in members:
                members.add(name, address, incarnation, state, now, meta)
        elif kind == "merge":
            _, _, name, state, incarnation, address, meta, age = op
            members.merge_claim(
                name, state, incarnation, now, address=address, meta=meta, age=age
            )
        elif kind == "meta":
            members.set_local_meta(op[2])
        elif kind == "reclaim":
            members.reclaim_dead(now, op[2])
        elif kind == "bump":
            members.bump_local_incarnation(0)
        for members in maps:
            snapshot = members.snapshot(now)
            entries = _reference_entries(members, now)
            assert snapshot.wire == _reference_states(entries)
            assert len(snapshot) == len(entries) == len(members)
            assert list(snapshot) == entries
            assert codec.encode(
                PushPull(members.local_name, snapshot, is_reply=True)
            ) == _reference_push_pull(
                members.local_name, snapshot.wire, is_reply=True
            )


def test_snapshot_age_saturates_in_the_reference_too():
    members = MemberMap("la", "la:1", random.Random(0))
    now = 2 * MAX_STATE_AGE_MS / 1000.0
    (entry,) = _reference_entries(members, now)
    assert entry[5] == MAX_STATE_AGE_MS
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


class TestHeadsBelongToRosterRecords:
    """n tables over one roster hold n entry heads, not n x n."""

    def test_every_map_references_the_same_head_objects(self):
        roster = Roster()
        roster.extend((f"m{i:02d}", f"m{i:02d}:1", b"", "") for i in range(64))
        maps = [
            MemberMap(f"m{i:02d}", f"m{i:02d}:1", random.Random(i), roster=roster)
            for i in range(64)
        ]
        for members in maps:
            members.add_many(range(64), 1, MemberState.ALIVE, 0.0)
        assert all(record.head is None for record in roster.records)
        snapshots = [members.snapshot(3.0) for members in maps]
        for sid in range(64):
            heads = {id(members._records[sid].head) for members in maps}
            assert heads == {id(roster.records[sid].head)}
        for members, snapshot in zip(maps, snapshots):
            assert snapshot.wire == _reference_states(_reference_entries(members, 3.0))

    def test_a_replaced_record_gets_its_own_head(self):
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
        assert lb._records[lc._local_id].head is None
        assert ("lc", "lc:2", 2, 0, b"", 1000) in list(lb.snapshot(1.0))
        assert ("lc", "lc:1", 1, 0, b"", 1000) in list(la.snapshot(1.0))
        assert shared.head is la._records[lc._local_id].head is not None
        # lc re-announces itself: the roster's record (and head) changes
        # for lc and whoever is seeded from the roster afterwards.
        lc.set_local_meta(b"v2")
        assert roster.records[lc._local_id] is lc._records[lc._local_id]
        assert roster.records[lc._local_id] is not shared
        assert ("lc", "lc:1", 1, 0, b"v2", 1000) in list(lc.snapshot(1.0))
        assert ("lc", "lc:1", 1, 0, b"", 1000) in list(la.snapshot(1.0))


# --------------------------------------------------------------------- #
# Receive side
# --------------------------------------------------------------------- #


def _outcome(buf):
    try:
        return codec.decode(buf)
    except codec.CodecError as exc:
        return ("CodecError", str(exc))


def _cold(buf):
    codec._HEAD_CACHE.clear()
    return _outcome(buf)


def _packets():
    push_pull = st.builds(PushPull, st.sampled_from(_NAMES), _entries, st.booleans())
    return st.one_of(
        push_pull.map(codec.encode),
        # Inside a compound a large push-pull is decoded in place.
        st.lists(push_pull, min_size=1, max_size=3)
        .map(lambda parts: codec.encode(Compound(tuple(parts)))),
    )


@settings(deadline=None, max_examples=60)
@given(_packets())
def test_warm_decode_equals_cold_decode_at_every_truncation(packet):
    expected = [_cold(packet[:cut]) for cut in range(len(packet) + 1)]
    assert expected[-1] == codec.decode(packet)  # warms every head
    scratch = bytearray(packet)
    for cut in range(len(packet) + 1):
        assert _outcome(packet[:cut]) == expected[cut]
        assert _outcome(memoryview(scratch)[:cut]) == expected[cut]
        assert _outcome(scratch[:cut]) == expected[cut]
    codec._HEAD_CACHE.clear()
    assert _outcome(memoryview(scratch)) == expected[-1]


@given(_entries)
def test_decode_survives_head_cache_eviction(entries):
    """A cache that overflows within one small packet changes nothing."""
    packet = codec.encode(PushPull("src", entries))
    expected = _cold(packet)
    saved = codec._HEAD_CACHE_LIMIT
    codec._HEAD_CACHE_LIMIT = 2
    codec._HEAD_CACHE.clear()
    try:
        for _ in range(2):
            assert _outcome(packet) == expected
            assert _outcome(memoryview(bytearray(packet))) == expected
            assert len(codec._HEAD_CACHE) <= 2
    finally:
        codec._HEAD_CACHE_LIMIT = saved


def test_head_cache_resets_at_its_limit():
    codec._HEAD_CACHE.clear()
    entries = tuple(
        (f"m{i}", "a", 1, 0, b"", 0) for i in range(codec._HEAD_CACHE_LIMIT + 10)
    )
    decoded = codec.decode(codec.encode(PushPull("src", entries)))
    assert decoded.states == entries
    assert 0 < len(codec._HEAD_CACHE) <= codec._HEAD_CACHE_LIMIT
    assert codec.decode(codec.encode(PushPull("src", entries))) == decoded


def test_nothing_decoded_or_cached_aliases_the_receive_buffer():
    codec._HEAD_CACHE.clear()
    # Large enough to be decoded in place rather than interned whole.
    entries = (("m0", "a:1", 1, 0, b"", 5), ("m1", "b:2", 2, 3, b"m" * 100, 6))
    packet = codec.encode(PushPull("src", entries))
    assert len(packet) > codec._CACHEABLE_MAX_LEN
    buffer = bytearray(packet)
    decoded = codec.decode(memoryview(buffer))
    buffer[:] = b"\xee" * len(buffer)  # the transport reuses its buffer
    assert decoded == PushPull("src", entries)
    assert all(type(head) is bytes for head in codec._HEAD_CACHE)
    assert codec.decode(packet) == decoded
    for entry in decoded.states:
        assert type(entry[4]) is bytes


def test_invalid_utf8_is_never_cached():
    codec._HEAD_CACHE.clear()
    good = codec.encode(PushPull("s", (("ab", "cd", 1, 0),)))
    bad = good.replace(b"\x02ab", b"\x02\xff\xfe")
    for _ in range(2):
        with pytest.raises(codec.CodecError, match="invalid UTF-8"):
            codec.decode(bad)
        assert codec._HEAD_CACHE == {}
