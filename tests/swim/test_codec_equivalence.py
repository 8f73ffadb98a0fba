"""Differential tests: buffer decode vs bytes decode, encode_into vs encode.

The guard on :func:`repro.swim.codec.decode`'s door: every behaviour of
``decode(bytes)`` — successful decodes AND every ``CodecError`` on
truncated/corrupted/oversized input — must be reproduced exactly by
``decode(memoryview)`` and ``decode(bytearray)`` (which copy once on the
way in, so nothing decoded aliases a receive buffer), and
``encode_into`` must be byte-identical to ``encode``. Hypothesis
generates the messages; the corruption fuzzers derive broken buffers
from valid ones.
"""

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
)

_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=32,
)
_zones = st.one_of(st.just(""), _names)
_seqs = st.integers(min_value=0, max_value=2**32 - 1)
_incs = st.integers(min_value=0, max_value=2**64 - 1)


def _messages():
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
    )
    # Half the tables under one age, as an undisturbed sender joins them
    # and ``decode`` then splits them.
    states = st.tuples(states, st.none() | st.integers(0, 2**32 - 1)).map(
        lambda drawn: tuple(
            entry if drawn[1] is None else entry[:5] + (drawn[1],)
            for entry in drawn[0]
        )
    )
    return st.one_of(
        st.builds(Ping, _seqs, _names, _names),
        st.builds(PingReq, _seqs, _names, _names, st.booleans()),
        st.builds(Ack, _seqs, _names),
        st.builds(Nack, _seqs, _names),
        st.builds(Suspect, _incs, _names, _names),
        st.builds(Alive, _incs, _names, _names, st.binary(max_size=64), _zones),
        st.builds(Dead, _incs, _names, _names),
        st.builds(UserEvent, _names, _seqs, st.binary(max_size=128)),
        st.builds(PushPull, _names, states, st.booleans(), st.booleans()),
    )


def _packets():
    """Wire packets: single messages and compounds (never interned)."""
    single = _messages().map(codec.encode)
    compound = (
        st.lists(_messages(), min_size=1, max_size=6)
        .map(lambda parts: Compound(tuple(parts)))
        .map(codec.encode)
    )
    return st.one_of(single, compound)


def _decode_outcome(buf):
    """Normalise decode to a comparable outcome: the message, or the
    CodecError marker. The error *message* is intentionally excluded —
    both paths must agree on success/failure and on the decoded value,
    not on prose."""
    try:
        return ("ok", codec.decode(buf))
    except codec.CodecError:
        return ("error",)


class TestDecodeEquivalence:
    @given(_messages())
    def test_memoryview_decode_matches_bytes_decode(self, message):
        data = codec.encode(message)
        via_bytes = codec.decode(data)
        via_view = codec.decode(memoryview(data))
        via_bytearray = codec.decode(bytearray(data))
        assert via_bytes == message
        assert via_view == message
        assert via_bytearray == message

    @given(_messages())
    def test_writable_view_decode_matches(self, message):
        """memoryviews of *writable* buffers are unhashable — the decode
        cache's keys must be coerced, never the view itself."""
        data = codec.encode(message)
        assert codec.decode(memoryview(bytearray(data))) == message

    @given(st.lists(_messages(), min_size=1, max_size=6))
    def test_compound_decode_equivalence(self, parts):
        compound = Compound(tuple(parts))
        data = codec.encode(compound)
        assert codec.decode(memoryview(data)) == codec.decode(data)

    @given(_messages())
    def test_decoded_fields_do_not_alias_the_buffer(self, message):
        """Zero-copy decode must materialise retained bytes: mutating
        the receive buffer afterwards must not mutate the Message."""
        buf = bytearray(codec.encode(message))
        decoded = codec.decode(memoryview(buf))
        for i in range(len(buf)):
            buf[i] = 0xFF
        assert decoded == message

    @given(_messages())
    def test_inner_decode_is_view_safe(self, message):
        """The non-interned inner decoder (what compound parts and large
        packets hit) only ever sees ``bytes`` — views are copied at the
        door — and agrees with the entry point on a view even for small
        messages the entry point would intern."""
        data = codec.encode(message)
        from_bytes, end = codec._decode_at(data, 0)
        assert from_bytes == codec.decode(memoryview(data)) == message
        assert end == len(data)


class TestErrorEquivalence:
    @given(_packets(), st.data())
    def test_truncation_fails_identically(self, data_bytes, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(data_bytes) - 1))
        truncated = data_bytes[:cut]
        assert _decode_outcome(truncated) == _decode_outcome(
            memoryview(truncated)
        )

    @given(_packets(), st.data())
    def test_corruption_fails_identically(self, data_bytes, data):
        index = data.draw(
            st.integers(min_value=0, max_value=len(data_bytes) - 1)
        )
        value = data.draw(st.integers(min_value=0, max_value=255))
        corrupted = bytearray(data_bytes)
        corrupted[index] = value
        frozen = bytes(corrupted)
        # Both paths agree — whether the flip is fatal, survivable, or
        # silently decodes to a different (but identical between paths)
        # message.
        assert _decode_outcome(frozen) == _decode_outcome(memoryview(frozen))

    @given(_packets(), st.binary(min_size=1, max_size=8))
    def test_trailing_garbage_fails_identically(self, data_bytes, tail):
        padded = data_bytes + tail
        assert _decode_outcome(padded) == _decode_outcome(memoryview(padded))

    @pytest.mark.parametrize(
        "raw",
        [
            b"",  # empty packet
            bytes((0xEE,)),  # unknown type tag
            bytes((codec.T_COMPOUND,)),  # compound header cut short
            # Alive whose meta length field exceeds MAX_META_SIZE.
            bytes((codec.T_ALIVE,))
            + b"\x00" * 8
            + b"\x01a"
            + b"\x01b"
            + (codec.MAX_META_SIZE + 1).to_bytes(2, "big"),
            # UserEvent whose payload length exceeds MAX_USER_PAYLOAD.
            bytes((codec.T_USER_EVENT,))
            + b"\x01a"
            + b"\x00" * 4
            + (codec.MAX_USER_PAYLOAD + 1).to_bytes(2, "big"),
        ],
    )
    def test_handcrafted_malformed_buffers(self, raw):
        outcome = _decode_outcome(raw)
        assert outcome == ("error",)
        assert _decode_outcome(memoryview(raw)) == outcome
        assert _decode_outcome(bytearray(raw)) == outcome


class TestEncodeIntoPinning:
    @given(_messages())
    def test_encode_into_is_byte_identical(self, message):
        out = bytearray()
        n = codec.encode_into(message, out)
        assert bytes(out) == codec.encode(message)
        assert n == len(out)

    @given(st.lists(_messages(), min_size=1, max_size=6))
    def test_encode_into_compound_is_byte_identical(self, parts):
        compound = Compound(tuple(parts))
        out = bytearray()
        codec.encode_into(compound, out)
        assert bytes(out) == codec.encode(compound)

    @given(_messages(), _messages())
    def test_encode_into_appends(self, first, second):
        out = bytearray()
        n1 = codec.encode_into(first, out)
        n2 = codec.encode_into(second, out)
        assert out[:n1] == codec.encode(first)
        assert out[n1 : n1 + n2] == codec.encode(second)

    @given(_messages(), st.lists(_messages().map(codec.encode), max_size=4))
    def test_pack_with_piggyback_into_is_byte_identical(self, primary, extra):
        encoded = codec.encode(primary)
        out = bytearray()
        n = codec.pack_encoded_with_piggyback_into(encoded, extra, out)
        assert bytes(out) == codec.pack_encoded_with_piggyback(encoded, extra)
        assert n == len(out)

    @given(_messages())
    def test_scratch_reuse_round_trip(self, message):
        """The steady-state transport pattern: clear + encode_into +
        decode a view of the scratch."""
        scratch = bytearray()
        for _ in range(3):
            del scratch[:]
            codec.encode_into(message, scratch)
            assert codec.decode(memoryview(scratch)) == message