"""The compound walk against a naive recursive reference decoder.

``codec.decode`` walks a compound in one loop straight against the
decode cache. The reference below is the algorithm it replaced, kept
here as the model: one recursive call per compound level, one full
decode per part, small parts decoded on their own slice and large ones
where they lie. Both must agree on every input — the message decoded,
or the exact :class:`CodecError` text — for ``bytes``, ``bytearray``
and ``memoryview``, with the cache cold and warm. Only the fields of a
single non-compound message come from the production field decoders
(``codec._decode_at``), which the walk does not touch.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.swim import codec
from repro.swim.messages import Ack, Compound, Ping, Suspect

from tests.swim.test_codec_equivalence import _messages

_U16 = struct.Struct(">H")
_SMALL = 96  # parts up to this size are decoded on their own slice


def _get_u16(buf, offset):
    if offset + 2 > len(buf):
        raise codec.CodecError("truncated u16")
    return _U16.unpack_from(buf, offset)[0], offset + 2


def _reference_at(buf, offset, depth):
    if offset >= len(buf) or buf[offset] != codec.T_COMPOUND:
        return codec._decode_at(buf, offset)
    if depth + 1 > codec.MAX_COMPOUND_DEPTH:
        raise codec.CodecError(
            f"compound nested deeper than {codec.MAX_COMPOUND_DEPTH}"
        )
    count, offset = _get_u16(buf, offset + 1)
    if count == 0:
        raise codec.CodecError("empty compound")
    parts = []
    for _ in range(count):
        length, offset = _get_u16(buf, offset)
        end = offset + length
        if end > len(buf):
            raise codec.CodecError("truncated compound part")
        if length <= _SMALL:
            parts.append(_reference(buf[offset:end], depth + 1))
        else:
            part, consumed = _reference_at(buf, offset, depth + 1)
            if consumed != end:
                raise codec.CodecError(
                    f"{end - consumed} trailing bytes after message"
                )
            parts.append(part)
        offset = end
    return Compound(tuple(parts)), offset


def _reference(buf, depth=0):
    message, offset = _reference_at(buf, 0, depth)
    if offset != len(buf):
        raise codec.CodecError(f"{len(buf) - offset} trailing bytes after message")
    return message


def _outcome(decode, buf):
    try:
        return ("ok", decode(buf))
    except codec.CodecError as exc:
        return ("error", str(exc))


def _assert_matches_reference(wire: bytes) -> None:
    expected = _outcome(_reference, wire)
    for make in (bytes, bytearray, lambda b: memoryview(bytearray(b))):
        codec._DECODE_CACHE.clear()
        assert _outcome(codec.decode, make(wire)) == expected  # cold
        assert _outcome(codec.decode, make(wire)) == expected  # warm


def _frame(parts, count=None) -> bytes:
    """Compound framing, spelled independently of the codec; ``count``
    overrides the part count the header announces."""
    announced = len(parts) if count is None else count
    out = [bytes((codec.T_COMPOUND,)), _U16.pack(announced)]
    for part in parts:
        out.append(_U16.pack(len(part)))
        out.append(part)
    return b"".join(out)


def _nest(inner: bytes, levels: int) -> bytes:
    """``inner`` wrapped in ``levels`` one-part compounds."""
    for _ in range(levels):
        inner = _frame([inner])
    return inner


_leaves = st.one_of(
    _messages().map(codec.encode),
    st.just(b""),  # a zero-length part
    st.binary(max_size=12),  # a part that is not a message
)


def _parts(depth):
    if depth == 0:
        return _leaves
    return st.one_of(_leaves, _compounds(depth))


def _compounds(depth):
    """Wire compounds nesting at most ``depth`` deep. The announced part
    count is mostly right; one too few leaves trailing bytes, one too
    many runs off the end, and no parts at all announces zero."""
    return st.builds(
        lambda parts, skew: _frame(parts, max(0, len(parts) + skew)),
        st.lists(_parts(depth - 1), max_size=4),
        st.sampled_from([0, 0, 0, 0, -1, 1]),
    )


# One level more than the decoder accepts, so the bound is crossed too.
_wires = _compounds(codec.MAX_COMPOUND_DEPTH + 1)


class TestCompoundWalkMatchesReference:
    @settings(deadline=None, max_examples=300)
    @given(_wires)
    def test_whole_packet(self, wire):
        _assert_matches_reference(wire)

    @settings(deadline=None, max_examples=60)
    @given(_wires)
    def test_every_truncation_offset(self, wire):
        for cut in range(len(wire)):
            _assert_matches_reference(wire[:cut])

    @settings(deadline=None, max_examples=150)
    @given(_wires, st.binary(min_size=1, max_size=4))
    def test_trailing_bytes(self, wire, extra):
        _assert_matches_reference(wire + extra)

    @settings(deadline=None, max_examples=300)
    @given(_wires, st.data())
    def test_one_corrupt_byte(self, wire, data):
        index = data.draw(st.integers(0, len(wire) - 1))
        value = data.draw(st.integers(0, 255))
        _assert_matches_reference(wire[:index] + bytes((value,)) + wire[index + 1 :])

    def test_large_part_decoded_in_place_reads_past_its_length(self):
        # A part too large to cache is decoded where it lies, so a
        # length that sells it short shows as *negative* trailing bytes
        # rather than as a truncation — reference and walk alike.
        big = codec.encode(Ping(1, "t" * 60, "s" * 60))
        wire = bytearray(_frame([big, codec.encode(Ack(2, "a"))]))
        wire[3:5] = _U16.pack(len(big) - 3)
        assert _outcome(_reference, bytes(wire)) == (
            "error",
            "-3 trailing bytes after message",
        )
        _assert_matches_reference(bytes(wire))

    def test_parts_share_the_decode_cache_with_whole_packets(self):
        part = codec.encode(Suspect(3, "m", "s"))
        codec._DECODE_CACHE.clear()
        whole = codec.decode(part)
        compound = codec.decode(_frame([part, part]))
        assert compound.parts[0] is whole and compound.parts[1] is whole


class TestNestingBound:
    """Compounds may nest (round-trip-tested one deep) and the decoder
    used to recurse per level: a datagram of 2,000 nested one-part
    compounds raised RecursionError, not CodecError."""

    BUFFERS = [bytes, bytearray, lambda b: memoryview(bytearray(b))]

    @pytest.mark.parametrize("make", BUFFERS)
    @pytest.mark.parametrize("inner", [Ack(1, "a"), Ping(1, "t" * 60, "s" * 60)])
    def test_at_the_bound_decodes(self, make, inner):
        # Small inner parts nest on slices, large ones in place.
        wire = _nest(codec.encode(inner), codec.MAX_COMPOUND_DEPTH)
        message = codec.decode(make(wire))
        for _ in range(codec.MAX_COMPOUND_DEPTH):
            assert isinstance(message, Compound)
            (message,) = message.parts
        assert message == inner

    @pytest.mark.parametrize("make", BUFFERS)
    @pytest.mark.parametrize("inner", [Ack(1, "a"), Ping(1, "t" * 60, "s" * 60)])
    def test_just_over_the_bound_is_refused(self, make, inner):
        wire = _nest(codec.encode(inner), codec.MAX_COMPOUND_DEPTH + 1)
        with pytest.raises(codec.CodecError, match="nested deeper than"):
            codec.decode(make(wire))

    @pytest.mark.parametrize("make", BUFFERS)
    def test_hostile_depth_is_a_codec_error(self, make):
        wire = _nest(codec.encode(Ack(1, "a")), 2000)
        assert len(wire) == 10_007
        with pytest.raises(codec.CodecError, match="nested deeper than"):
            codec.decode(make(wire))

    def test_one_deep_still_round_trips(self):
        nested = Compound((Ping(2, "t", "s"), Compound((Ack(1, "a"),))))
        assert codec.decode(codec.encode(nested)) == nested
