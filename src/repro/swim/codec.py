"""Compact binary wire format.

The message-load experiment (Table VI) measures *bytes sent*, so the codec
matters: it must produce realistically compact packets, the way memberlist
does with msgpack. We use a hand-rolled struct-based format that is within
a few bytes of msgpack for these message shapes:

* 1 type byte;
* integers as fixed-width big-endian (u32 for sequence numbers, u64 for
  incarnations);
* strings as ``u8 length + UTF-8 bytes`` (member names / addresses are
  short);
* compound: type byte, u16 part count, then each part as
  ``u16 length + encoded part``.

A push-pull carries the sender's whole member table as a u16 count and
that many state entries, and this module is the only place the entry
layout is spelled::

    entry := claim age
    claim := u8 len, name, u8 len, address, u64 incarnation, u8 state,
             u16 len, meta
    age   := u32 milliseconds since the state last changed

The claim -- the entry up to its age -- says nothing of who reports it
or when, so the same bytes recur in every snapshot until the claim
changes. :func:`pack_entry` spells it once per published claim
(:meth:`repro.swim.roster.Roster.publish`), :func:`join_states`
strings a table together out of those, and on the way in one cache
keyed by exactly those bytes (filled only by :func:`_decode_entry`) lets
:func:`_decode_states` check a table that shares one age with a
``split`` instead of a walk. :class:`PackedStates` is a push-pull's
states on both sides of the wire; :func:`pack_states` builds one from
entry tuples field by field and is the reference encoder.

Encoding and decoding round-trip exactly; a corrupt or truncated packet
raises :class:`CodecError` rather than yielding garbage, and so does one
whose compounds nest deeper than :data:`MAX_COMPOUND_DEPTH`.

:func:`decode` accepts ``bytes``, ``bytearray`` or ``memoryview`` input
and copies anything that is not ``bytes`` once, at the door: everything
behind it slices and looks up plain ``bytes``, so nothing in a decoded
:class:`Message` (or in a cache key) aliases a receive buffer the
transport is about to reuse, and a compound part costs one allocation.
The differential suite (``tests/swim/test_codec_equivalence.py``) holds
the three input kinds to identical messages *and* identical
:class:`CodecError` behavior.

The four sequence-numbered probe kinds (``Ping``, ``PingReq``, ``Ack``,
``Nack``) never repeat byte for byte, so they are decoded without
touching the decode cache — a lookup could only miss, and an insert
would push out the gossip parts that do repeat. Whole gossip-only
compounds repeat as well (a gossip round sends one packet to all its
targets) and have a small cache of their own, and so does the gossip a
probe carries: the bytes after a compound's leading probe are looked up
whole (:func:`_decode_probe_led`). A ``Suspect`` decoded into the part
cache keeps the bytes it arrived as, and :func:`encode` returns those
instead of encoding it again.
"""

from __future__ import annotations

import struct
from operator import concat
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.swim.messages import (
    Ack,
    Alive,
    Compound,
    Dead,
    Message,
    Nack,
    Ping,
    PingReq,
    PushPull,
    StateEntry,
    Suspect,
    UserEvent,
    ZoneClaim,
    ZoneDigest,
)
from repro.swim.state import MemberState

# Wire type tags.
T_PING = 0x01
T_PING_REQ = 0x02
T_ACK = 0x03
T_NACK = 0x04
T_SUSPECT = 0x05
T_ALIVE = 0x06
T_DEAD = 0x07
T_PUSH_PULL = 0x08
T_COMPOUND = 0x09
T_USER_EVENT = 0x0A
# Hierarchical zones (repro.zones). A zoneless Alive still encodes as
# T_ALIVE, so flat-cluster traffic is byte-identical to earlier versions.
T_ALIVE_Z = 0x0B
T_ZONE_DIGEST = 0x0C
T_ZONE_CLAIM = 0x0D

#: Application metadata limit per member (memberlist's MetaMaxSize).
MAX_META_SIZE = 512
#: User event payload limit (fits comfortably in one UDP packet).
MAX_USER_PAYLOAD = 1024

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
#: Incarnation + state tag: a zone claim's body, and what precedes the
#: meta of a push-pull state entry.
_U64_U8 = struct.Struct(">QB")
#: Fixed body of a zone digest: four u32 state counts, the zone's max
#: incarnation and a u64 hash of its membership view.
_ZONE_DIGEST_BODY = struct.Struct(">IIIIQQ")
#: Everything up to the first string body of a probe message (tag,
#: sequence number, string length) and of a suspect / dead claim (tag,
#: incarnation, string length), in one pack.
_pack_probe_head = struct.Struct(">BIB").pack
_pack_claim_head = struct.Struct(">BQB").pack

# Pre-bound struct methods: the push-pull loops run once per state entry
# per sync round, where attribute lookups on the Struct objects are
# measurable.
_pack_u16 = _U16.pack
_pack_u64_u8 = _U64_U8.pack
_unpack_u16_from = _U16.unpack_from
_unpack_u32_from = _U32.unpack_from
#: A probe message's sequence number and first string length.
_unpack_u32_u8_from = struct.Struct(">IB").unpack_from
_unpack_u64_u8_from = _U64_U8.unpack_from

#: Highest state tag a state entry or zone claim may carry.
_MAX_STATE_VALUE = max(MemberState)

# A state entry up to its age is validated once: keyed by exactly those
# bytes, filled only by ``_decode_entry`` after every field checked out,
# values the decoded ``(name, address, incarnation, state value, meta)``
# -- a hit yields what decoding would have. Emptied when full. One key
# per claim in circulation: ~350 bytes with short names and no meta
# (~3 MB at the limit), at most ~2.3 KB (two 255-byte strings and a
# 512-byte meta, held as key and decoded), ~19 MB.
_ENTRY_CACHE: dict = {}
_ENTRY_CACHE_LIMIT = 8192


class CodecError(ValueError):
    """Raised when a packet cannot be decoded."""


#: Anything :func:`decode` accepts; what is not ``bytes`` is copied once.
Buffer = Union[bytes, bytearray, memoryview]


def _too_long(raw: bytes) -> CodecError:
    return CodecError(f"string too long for wire format: {len(raw)} bytes")


def _put_str(out: List[bytes], value: str) -> None:
    raw = value.encode("utf-8")
    if len(raw) > 255:
        raise _too_long(raw)
    out.append(bytes((len(raw),)))
    out.append(raw)


def _put_bytes(out: List[bytes], value: bytes, limit: int) -> None:
    if len(value) > limit:
        raise CodecError(f"byte field too long: {len(value)} > {limit}")
    out.append(_U16.pack(len(value)))
    out.append(value)


def _get_bytes(buf: bytes, offset: int) -> Tuple[bytes, int]:
    length, offset = _get_u16(buf, offset)
    end = offset + length
    if end > len(buf):
        raise CodecError("truncated byte field")
    return buf[offset:end], end


def _get_str(buf: bytes, offset: int) -> Tuple[str, int]:
    if offset >= len(buf):
        raise CodecError("truncated string length")
    length = buf[offset]
    offset += 1
    end = offset + length
    if end > len(buf):
        raise CodecError("truncated string body")
    try:
        return buf[offset:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8 in string: {exc}") from exc


def pack_states_count(count: int) -> bytes:
    """The ``u16`` entry count that opens a push-pull's states."""
    if count > 0xFFFF:
        raise CodecError("too many states in push-pull")
    return _pack_u16(count)


def pack_entry(
    name: str, address: str, incarnation: int, state_value: int, meta: bytes = b""
) -> bytes:
    """A state entry up to its age: what is claimed about ``name``."""
    name_raw = name.encode("utf-8")
    address_raw = address.encode("utf-8")
    if len(name_raw) > 255:
        raise _too_long(name_raw)
    if len(address_raw) > 255:
        raise _too_long(address_raw)
    if len(meta) > MAX_META_SIZE:
        raise CodecError(f"byte field too long: {len(meta)} > {MAX_META_SIZE}")
    claimed = _pack_u64_u8(incarnation, state_value) + _pack_u16(len(meta)) + meta
    return b"%c%b%c%b%b" % (
        len(name_raw), name_raw, len(address_raw), address_raw, claimed
    )


#: ``pack_age(age_ms)``: the age that closes a state entry.
pack_age = _U32.pack


def join_states(
    order: Sequence[int], entries: Sequence[bytes], ages: Union[bytes, Iterable[bytes]]
) -> "PackedStates":
    """Wire form of the table whose ``order[i]``-th :func:`pack_entry`
    result in ``entries`` comes ``i``-th, from their :func:`pack_age`
    results index by index -- or the one age the whole table shares,
    which then is the separator of one ``join`` (and of the receiver's
    ``split``: :func:`_decode_states`)."""
    head = pack_states_count(len(order))
    if ages.__class__ is not bytes:
        aged = list(map(concat, entries, ages))
        return PackedStates(head + b"".join(map(aged.__getitem__, order)))
    body = ages.join(map(entries.__getitem__, order))
    return PackedStates(b"%b%b%b" % (head, body, ages if order else b""))


class PackedStates:
    """A push-pull's states in wire form: the ``u16`` count and the
    entries, exactly as they travel.

    What :meth:`repro.swim.member_map.MemberMap.snapshot` returns and a
    :class:`~repro.swim.messages.PushPull` carries on either side of the
    wire: :func:`encode` appends ``wire`` as it is, and :func:`decode`
    hands over the bytes it validated along with what the validation
    learned (:meth:`split`), not a tuple per entry. Reads like the tuple
    of entry tuples it encodes — ``len``, iteration, ``==`` against
    one — by decoding itself; unhashable, like any other container that
    compares by content across types.
    """

    __slots__ = ("wire", "_split")

    def __init__(
        self, wire: bytes, split: Optional[Tuple[List[bytes], List[bytes]]] = None
    ) -> None:
        self.wire = wire
        self._split = split

    def __len__(self) -> int:
        return _get_u16(self.wire, 0)[0]

    def split(self) -> Tuple[List[bytes], List[bytes]]:
        """``(entries up to their ages, ages)`` in wire form, index by
        index, for :func:`read_entry`; validated (a sender's own table
        on first use). Not to be mutated."""
        if self._split is None:
            self._split = _decode_states(self.wire, 2, len(self))[:2]
        return self._split

    def __iter__(self) -> Iterator[StateEntry]:
        """The one per-field decode for whoever wants entry tuples."""
        return map(read_entry, *self.split())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is PackedStates:
            return self.wire == other.wire  # type: ignore[attr-defined]
        if isinstance(other, (tuple, list)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedStates({len(self)} entries, {len(self.wire)} bytes)"


def pack_states(entries: Sequence[tuple]) -> PackedStates:
    """Wire form of hand-built state entries, ``(name, address,
    incarnation, state value[, meta[, age in ms]])`` each.

    The per-entry, field-by-field encoder, and the reference for
    :func:`join_states`: a member table strings together the
    :func:`pack_entry` of each published claim and must come out byte
    for byte the same.
    """
    pieces = [pack_states_count(len(entries))]
    append = pieces.append
    for entry in entries:
        age_ms = entry[5] if len(entry) > 5 else 0
        append(pack_entry(*entry[:5]))
        # State age in milliseconds, saturating at the u32 ceiling
        # (~49 days) so arbitrarily old entries still encode.
        append(pack_age(min(max(int(age_ms), 0), 0xFFFFFFFF)))
    return PackedStates(b"".join(pieces))


def encode(message: Message) -> bytes:
    """Encode any protocol message to its wire representation."""
    encoder = _ENCODERS.get(message.__class__)
    if encoder is None:
        # A subclass of a message type encodes as that type.
        for kind, encoder in _ENCODERS.items():
            if isinstance(message, kind):
                break
        else:
            raise CodecError(f"cannot encode {type(message).__name__}")
    return encoder(message)


def encode_into(message: Message, out: bytearray) -> int:
    """Append :func:`encode`'s output to ``out``; returns bytes appended."""
    wire = encode(message)
    out += wire
    return len(wire)


# One encoder per message class. The fixed-shape kinds — two integers and
# one or two short strings — are a single fused struct pack plus the
# strings; ``%c`` writes a string's one-byte length.


def _encode_ping(message: Union[Ping, PingReq], tag: int = T_PING) -> bytes:
    target = message.target.encode("utf-8")
    source = message.source.encode("utf-8")
    if len(target) > 255:
        raise _too_long(target)
    if len(source) > 255:
        raise _too_long(source)
    return b"%b%b%c%b" % (
        _pack_probe_head(tag, message.seq_no, len(target)),
        target,
        len(source),
        source,
    )


def _encode_ping_req(message: PingReq) -> bytes:
    # A ping under its own tag, then the flag.
    return _encode_ping(message, T_PING_REQ) + (
        b"\x01" if message.want_nack else b"\x00"
    )


def _reply_encoder(tag: int):
    def encode_reply(message: Union[Ack, Nack]) -> bytes:
        source = message.source.encode("utf-8")
        if len(source) > 255:
            raise _too_long(source)
        return _pack_probe_head(tag, message.seq_no, len(source)) + source

    return encode_reply


def _claim_encoder(tag: int):
    def encode_claim(message: Union[Suspect, Dead]) -> bytes:
        # A suspect claim decoded from the wire carries the bytes it
        # arrived as (:func:`_decode_small`): re-gossiped unchanged, it
        # is not encoded again.
        wire = getattr(message, "_wire", None)
        if wire is not None:
            return wire
        member = message.member.encode("utf-8")
        sender = message.sender.encode("utf-8")
        if len(member) > 255:
            raise _too_long(member)
        if len(sender) > 255:
            raise _too_long(sender)
        return b"%b%b%c%b" % (
            _pack_claim_head(tag, message.incarnation, len(member)),
            member,
            len(sender),
            sender,
        )

    return encode_claim


def _encode_zone_claim(message: ZoneClaim) -> bytes:
    zone = message.zone.encode("utf-8")
    member = message.member.encode("utf-8")
    if len(zone) > 255:
        raise _too_long(zone)
    if len(member) > 255:
        raise _too_long(member)
    return b"%c%c%b%c%b%b" % (
        T_ZONE_CLAIM,
        len(zone),
        zone,
        len(member),
        member,
        _pack_u64_u8(message.incarnation, message.state_value),
    )


def _encode_alive(message: Alive) -> bytes:
    # A zoneless Alive keeps the tag (and bytes) it had before zones.
    out = [
        bytes((T_ALIVE_Z if message.zone else T_ALIVE,)),
        _U64.pack(message.incarnation),
    ]
    _put_str(out, message.member)
    _put_str(out, message.address)
    _put_bytes(out, message.meta, MAX_META_SIZE)
    if message.zone:
        _put_str(out, message.zone)
    return b"".join(out)


def _encode_user_event(message: UserEvent) -> bytes:
    out = [bytes((T_USER_EVENT,))]
    _put_str(out, message.origin)
    out.append(_U32.pack(message.seq_no))
    _put_bytes(out, message.payload, MAX_USER_PAYLOAD)
    return b"".join(out)


def _encode_push_pull(message: PushPull) -> bytes:
    out = [bytes((T_PUSH_PULL,))]
    _put_str(out, message.source)
    out.append(bytes(((1 if message.join else 0) | (2 if message.is_reply else 0),)))
    states = message.states
    if states.__class__ is not PackedStates:
        states = pack_states(states)
    out.append(states.wire)
    return b"".join(out)


def _encode_zone_digest(message: ZoneDigest) -> bytes:
    out = [bytes((T_ZONE_DIGEST,))]
    _put_str(out, message.zone)
    _put_str(out, message.source)
    out.append(
        _ZONE_DIGEST_BODY.pack(
            message.alive,
            message.suspect,
            message.dead,
            message.left,
            message.max_incarnation,
            message.view_hash,
        )
    )
    return b"".join(out)


def _encode_compound(message: Compound) -> bytes:
    if len(message.parts) > 0xFFFF:
        raise CodecError("too many parts in compound")
    return pack_compound([encode(part) for part in message.parts])


_ENCODERS = {
    Ping: _encode_ping,
    PingReq: _encode_ping_req,
    Ack: _reply_encoder(T_ACK),
    Nack: _reply_encoder(T_NACK),
    Suspect: _claim_encoder(T_SUSPECT),
    Alive: _encode_alive,
    Dead: _claim_encoder(T_DEAD),
    UserEvent: _encode_user_event,
    PushPull: _encode_push_pull,
    ZoneDigest: _encode_zone_digest,
    ZoneClaim: _encode_zone_claim,
    Compound: _encode_compound,
}


# Gossip payloads are retransmitted lambda*log(n) times by many members,
# so identical byte strings are decoded over and over during churn. All
# messages are immutable (frozen dataclasses), so caching decodes of
# small single messages is safe and cuts simulation time substantially.
# Keys are the ``bytes`` of a whole non-compound packet or compound part
# other than a probe message, never empty; filled only after the bytes
# decoded cleanly.
_DECODE_CACHE: dict = {}
_DECODE_CACHE_LIMIT = 8192
_CACHEABLE_MAX_LEN = 96

# Whole gossip-only compounds recur byte for byte too: a gossip round
# sends one packet to every fanout target, and the same queue goes out
# again next tick. Keyed by the whole packet, filled only after it
# decoded cleanly, emptied when full. The bound keeps it small: 256
# packets of at most one datagram (~1.4 KB here) hold ~0.4 MB of keys,
# and their parts are the part cache's own messages.
_PACKET_CACHE: dict = {}
_PACKET_CACHE_LIMIT = 256

# The gossip a probe carries recurs the same way: a member piggybacks
# its queue on every ping and ack until the queue moves on. Keyed by the
# bytes after a compound's leading probe message up to the end of the
# packet, values the tuple of parts they decoded to; filled only after
# they decoded cleanly and only with gossip parts (no probe message
# among them), emptied when full, with the packet cache's bound.
_TAIL_CACHE: dict = {}
_TAIL_CACHE_LIMIT = 256
_PROBE_KINDS = frozenset((Ping, PingReq, Ack, Nack))

#: How deep compounds may nest on the way in, the outermost counting as
#: one. No sender here nests at all (a packet is one compound of plain
#: parts); the bound keeps a hostile datagram of compounds within
#: compounds from recursing the decoder, and then the receiver's
#: dispatch, to the interpreter's limit.
MAX_COMPOUND_DEPTH = 4


def decode(buf: Buffer) -> Message:
    """Decode one wire packet back into a message.

    The one entry point per packet, and the one place a ``bytearray`` or
    ``memoryview`` is copied. A probe message (tags up to ``T_NACK``:
    each carries a fresh sequence number) is decoded field by field; any
    other small non-compound packet is looked up in the decode cache; a
    compound is walked part by part against the same cache
    (:func:`_decode_compound`), and every part is decoded before the
    message is returned, so one bad part refuses the packet whole; a
    large packet (a push-pull snapshot) is sliced in place. A compound
    whose first part is gossip (its tag, at offset 5, above ``T_NACK``)
    is gossip only — a probe leads whatever rides with it — and is
    looked up whole in the packet cache first, and stored there once it
    decoded; any other compound is probe-led (:func:`_decode_probe_led`).
    ``bytes`` and buffer input produce identical messages and identical
    :class:`CodecError` behavior.
    """
    if buf.__class__ is not bytes:
        buf = bytes(buf)
    size = len(buf)
    if size and buf[0] == T_COMPOUND:
        if size > 5 and buf[5] > T_NACK:
            cached = _PACKET_CACHE.get(buf)
            if cached is not None:
                return cached
            message, offset = _decode_compound(buf, 1, 1)
            if offset == size:
                if len(_PACKET_CACHE) >= _PACKET_CACHE_LIMIT:
                    _PACKET_CACHE.clear()
                _PACKET_CACHE[buf] = message
        else:
            message, offset = _decode_probe_led(buf)
    elif 0 < size <= _CACHEABLE_MAX_LEN and buf[0] > T_NACK:
        cached = _DECODE_CACHE.get(buf)
        return cached if cached is not None else _decode_small(buf)
    else:
        message, offset = _decode_at(buf, 0)
    if offset != size:
        raise CodecError(f"{size - offset} trailing bytes after message")
    return message


def _decode_small(raw: bytes) -> Message:
    """Decode a cacheable packet or compound part the cache did not
    hold, and remember it unless it is a probe message."""
    message, offset = _decode_at(raw, 0)
    if offset != len(raw):
        raise CodecError(f"{len(raw) - offset} trailing bytes after message")
    tag = raw[0]
    if tag > T_NACK:
        if len(_DECODE_CACHE) >= _DECODE_CACHE_LIMIT:
            _DECODE_CACHE.clear()
        _DECODE_CACHE[raw] = message
        if tag == T_SUSPECT:
            # The claim a node re-gossips as it came. Immutable to its
            # readers; the codec alone notes the bytes it was decoded
            # from, in the private ``_wire`` field, for ``encode_claim``
            # to return: a suspect claim encodes canonically, so they
            # are its encoding.
            object.__setattr__(message, "_wire", raw)
    return message


def _decode_probe_led(buf: bytes) -> Tuple[Message, int]:
    """Decode a compound whose first part is not gossip: a probe message
    and the gossip piggybacked on it.

    The probe is decoded where it lies and must end exactly where its
    framing says. The bytes after it, the gossip tail, are looked up
    whole in the tail cache; a miss walks them in place
    (:func:`_decode_parts`), and a tail that decoded cleanly to the end
    of the packet is stored. A tail decodes cleanly under one part count
    only (fewer parts leave trailing bytes, more run off the end), so a
    hit must hold as many parts as this packet announces after its
    probe. A packet whose probe does not decode, or does not fill its
    frame, or whose part count is under two, is the general walk's
    (:func:`_decode_compound`) to decode or refuse. Past the probe the
    walk would decode the same probe and then run the same loop over the
    tail, so every result and every :class:`CodecError` is the walk's.
    """
    try:
        count = _unpack_u16_from(buf, 1)[0]
        start = 5 + _unpack_u16_from(buf, 3)[0]
        probe, end = _decode_at(buf, 5)
    except (CodecError, struct.error):
        return _decode_compound(buf, 1, 1)
    if end != start or count < 2:
        return _decode_compound(buf, 1, 1)
    tail = buf[start:]
    parts = _TAIL_CACHE.get(tail)
    if parts is not None and len(parts) == count - 1:
        return Compound((probe, *parts)), len(buf)
    message, offset = _decode_parts(buf, start, count - 1, 1, [probe])
    if offset == len(buf):
        parts = message.parts[1:]
        if _PROBE_KINDS.isdisjoint(map(type, parts)):
            if len(_TAIL_CACHE) >= _TAIL_CACHE_LIMIT:
                _TAIL_CACHE.clear()
            _TAIL_CACHE[tail] = parts
    return message, offset


def _decode_compound(buf: bytes, offset: int, depth: int) -> Tuple[Message, int]:
    """Decode the compound whose part count starts at ``offset``; it is
    the ``depth``-th compound around its parts."""
    if depth > MAX_COMPOUND_DEPTH:
        raise CodecError(f"compound nested deeper than {MAX_COMPOUND_DEPTH}")
    if offset + 2 > len(buf):
        raise CodecError("truncated u16")
    count = _unpack_u16_from(buf, offset)[0]
    if count == 0:
        raise CodecError("empty compound")
    return _decode_parts(buf, offset + 2, count, depth, [])


def _decode_parts(
    buf: bytes, offset: int, count: int, depth: int, parts: List[Message]
) -> Tuple[Message, int]:
    """Decode ``count`` framed parts starting at ``offset`` of the
    ``depth``-th compound, after the ``parts`` already decoded.

    The per-packet hot loop: gossip rides as several small parts per
    packet and the same parts arrive again and again, so a part costs
    one slice and one cache lookup. Only a part the cache does not hold
    reaches the field decoders, and a part too large to cache (a
    push-pull snapshot) is decoded where it lies, without copying it.
    """
    buf_len = len(buf)
    unpack_u16 = _unpack_u16_from
    append = parts.append
    cached = _DECODE_CACHE.get
    for _ in range(count):
        if offset + 2 > buf_len:
            raise CodecError("truncated u16")
        end = offset + 2 + unpack_u16(buf, offset)[0]
        offset += 2
        if end > buf_len:
            raise CodecError("truncated compound part")
        if end - offset <= _CACHEABLE_MAX_LEN:
            raw = buf[offset:end]
            part = cached(raw)
            if part is None:
                if raw and raw[0] == T_COMPOUND:
                    part, consumed = _decode_compound(raw, 1, depth + 1)
                    if consumed != len(raw):
                        raise CodecError(
                            f"{len(raw) - consumed} trailing bytes after message"
                        )
                else:
                    part = _decode_small(raw)
        else:
            part, consumed = _decode_at(buf, offset, depth)
            if consumed != end:
                raise CodecError(f"{end - consumed} trailing bytes after message")
        append(part)
        offset = end
    return Compound(tuple(parts)), offset


def _decode_at(buf: bytes, offset: int, depth: int = 0) -> Tuple[Message, int]:
    """Decode the message starting at ``offset``, field by field.
    ``depth`` counts the compounds already around it."""
    if offset >= len(buf):
        raise CodecError("empty packet")
    tag = buf[offset]
    offset += 1
    # A well-formed ping or ack -- the probe round trip -- decodes in one
    # step: its head unpacked, its strings in bounds and valid UTF-8.
    # Anything else falls through to the field decoders, which find what
    # is wrong and say so as they always have.
    if tag == T_PING:
        try:
            seq_no, length = _unpack_u32_u8_from(buf, offset)
            end = offset + 5 + length
            source_end = end + 1 + buf[end]
            if source_end <= len(buf):
                return Ping(
                    seq_no,
                    buf[offset + 5 : end].decode("utf-8"),
                    buf[end + 1 : source_end].decode("utf-8"),
                ), source_end
        except (struct.error, IndexError, UnicodeDecodeError):
            pass
        seq_no, offset = _get_u32(buf, offset)
        target, offset = _get_str(buf, offset)
        source, offset = _get_str(buf, offset)
        return Ping(seq_no, target, source), offset
    if tag == T_PING_REQ:
        seq_no, offset = _get_u32(buf, offset)
        target, offset = _get_str(buf, offset)
        source, offset = _get_str(buf, offset)
        want_nack, offset = _get_bool(buf, offset)
        return PingReq(seq_no, target, source, want_nack), offset
    if tag == T_ACK:
        try:
            seq_no, length = _unpack_u32_u8_from(buf, offset)
            end = offset + 5 + length
            if end <= len(buf):
                return Ack(seq_no, buf[offset + 5 : end].decode("utf-8")), end
        except (struct.error, UnicodeDecodeError):
            pass
        seq_no, offset = _get_u32(buf, offset)
        source, offset = _get_str(buf, offset)
        return Ack(seq_no, source), offset
    if tag == T_NACK:
        seq_no, offset = _get_u32(buf, offset)
        source, offset = _get_str(buf, offset)
        return Nack(seq_no, source), offset
    if tag == T_SUSPECT:
        incarnation, offset = _get_u64(buf, offset)
        member, offset = _get_str(buf, offset)
        sender, offset = _get_str(buf, offset)
        return Suspect(incarnation, member, sender), offset
    if tag == T_ALIVE:
        incarnation, offset = _get_u64(buf, offset)
        member, offset = _get_str(buf, offset)
        address, offset = _get_str(buf, offset)
        meta, offset = _get_bytes(buf, offset)
        return Alive(incarnation, member, address, meta), offset
    if tag == T_ALIVE_Z:
        incarnation, offset = _get_u64(buf, offset)
        member, offset = _get_str(buf, offset)
        address, offset = _get_str(buf, offset)
        meta, offset = _get_bytes(buf, offset)
        zone, offset = _get_str(buf, offset)
        return Alive(incarnation, member, address, meta, zone), offset
    if tag == T_DEAD:
        incarnation, offset = _get_u64(buf, offset)
        member, offset = _get_str(buf, offset)
        sender, offset = _get_str(buf, offset)
        return Dead(incarnation, member, sender), offset
    if tag == T_USER_EVENT:
        origin, offset = _get_str(buf, offset)
        seq_no, offset = _get_u32(buf, offset)
        payload, offset = _get_bytes(buf, offset)
        return UserEvent(origin, seq_no, payload), offset
    if tag == T_PUSH_PULL:
        source, offset = _get_str(buf, offset)
        flags, offset = _get_u8(buf, offset)
        start = offset
        count, offset = _get_u16(buf, offset)
        entries, ages, offset = _decode_states(buf, offset, count)
        states = PackedStates(buf[start:offset], (entries, ages))
        return PushPull(source, states, bool(flags & 1), bool(flags & 2)), offset
    if tag == T_ZONE_DIGEST:
        zone, offset = _get_str(buf, offset)
        source, offset = _get_str(buf, offset)
        if offset + _ZONE_DIGEST_BODY.size > len(buf):
            raise CodecError("truncated zone digest")
        body = _ZONE_DIGEST_BODY.unpack_from(buf, offset)
        offset += _ZONE_DIGEST_BODY.size
        return ZoneDigest(zone, source, *body), offset
    if tag == T_ZONE_CLAIM:
        zone, offset = _get_str(buf, offset)
        member, offset = _get_str(buf, offset)
        if offset + 9 > len(buf):
            raise CodecError("truncated zone claim")
        incarnation, state_value = _unpack_u64_u8_from(buf, offset)
        if state_value > _MAX_STATE_VALUE:
            raise CodecError(f"invalid member state {state_value}")
        offset += 9
        return ZoneClaim(zone, member, incarnation, state_value), offset
    if tag == T_COMPOUND:
        return _decode_compound(buf, offset, depth + 1)
    raise CodecError(f"unknown message tag 0x{tag:02x}")


def _decode_states(
    buf: bytes, offset: int, count: int
) -> Tuple[List[bytes], List[bytes], int]:
    """Validate ``count`` push-pull state entries starting at ``offset``;
    returns the entries up to their ages, their ages (as they lie in
    the buffer), and where the last one ends.

    A table whose entries share one age is that age joining the entries,
    so if the run ends the buffer, the buffer's last four bytes are it:
    ``split`` on them. If that yields ``count`` pieces (and nothing after
    the last age) and each is a key of the entry cache, the buffer *is*
    those validated entries with that age between them. Anything else
    -- ages that differ, a claim not seen before, a name that contains
    the age bytes, a buffer cut short or followed by something -- sends
    the whole run down the sequential walk, which checks every bound,
    raises every error and fills the cache: a hit and a miss cannot
    differ.
    """
    known = _ENTRY_CACHE
    size = len(buf)
    if size - offset >= 4:
        age = buf[size - 4 :]
        entries = buf[offset:].split(age)
        if (
            len(entries) == count + 1
            and not entries.pop()
            and all(map(known.__contains__, entries))
        ):
            return entries, [age] * count, size
    entries = []
    ages = []
    add_entry = entries.append
    add_age = ages.append
    for _ in range(count):
        # Where the entry's age starts, going by its three length fields.
        try:
            end = offset + 1 + buf[offset]
            end += 12 + buf[end]
            end += (buf[end - 2] << 8) | buf[end - 1]
        except IndexError:
            end = offset
        # Cut short by the end of the buffer, an entry is shorter than
        # its own length fields say and so equals no cached (complete)
        # one.
        entry = buf[offset:end]
        if entry not in known:
            end = _decode_entry(buf, offset)
            entry = buf[offset:end]
        offset = end + 4
        if offset > size:
            raise CodecError("truncated u32")
        add_entry(entry)
        add_age(buf[end:offset])
    return entries, ages, offset


def _decode_entry(buf: bytes, offset: int) -> int:
    """The one per-field state-entry decoder: validate the entry at
    ``offset`` up to its age, remember it, and return where its age
    starts."""
    start = offset
    name, offset = _get_str(buf, offset)
    address, offset = _get_str(buf, offset)
    if offset + 9 > len(buf):
        if offset + 8 > len(buf):
            raise CodecError("truncated u64")
        raise CodecError("truncated u8")
    incarnation, state_value = _unpack_u64_u8_from(buf, offset)
    if state_value > _MAX_STATE_VALUE:
        raise CodecError(f"invalid member state {state_value}")
    meta, offset = _get_bytes(buf, offset + 9)
    if len(_ENTRY_CACHE) >= _ENTRY_CACHE_LIMIT:
        _ENTRY_CACHE.clear()
    _ENTRY_CACHE[buf[start:offset]] = (name, address, incarnation, state_value, meta)
    return offset


def read_entry(entry: bytes, age: bytes) -> StateEntry:
    """The entry tuple of one ``(entry, age)`` pair of
    :meth:`PackedStates.split`."""
    fields = _ENTRY_CACHE.get(entry)
    if fields is None:  # evicted since it was validated
        _decode_entry(entry, 0)
        fields = _ENTRY_CACHE[entry]
    return (*fields, _unpack_u32_from(age)[0])


def _get_u8(buf: bytes, offset: int) -> Tuple[int, int]:
    if offset + 1 > len(buf):
        raise CodecError("truncated u8")
    return buf[offset], offset + 1


def _get_bool(buf: bytes, offset: int) -> Tuple[bool, int]:
    value, offset = _get_u8(buf, offset)
    return bool(value), offset


def _get_u16(buf: bytes, offset: int) -> Tuple[int, int]:
    if offset + 2 > len(buf):
        raise CodecError("truncated u16")
    return _U16.unpack_from(buf, offset)[0], offset + 2


def _get_u32(buf: bytes, offset: int) -> Tuple[int, int]:
    if offset + 4 > len(buf):
        raise CodecError("truncated u32")
    return _U32.unpack_from(buf, offset)[0], offset + 4


def _get_u64(buf: bytes, offset: int) -> Tuple[int, int]:
    if offset + 8 > len(buf):
        raise CodecError("truncated u64")
    return _U64.unpack_from(buf, offset)[0], offset + 8


#: Framing overhead added per part when packing into a compound message.
COMPOUND_PART_OVERHEAD = 2
#: Fixed overhead of a compound wrapper (type byte + part count).
COMPOUND_HEADER_OVERHEAD = 3

_COMPOUND_TAG = bytes((T_COMPOUND,))


def compound_size(part_sizes: List[int]) -> int:
    """Wire size of a compound message holding parts of the given sizes."""
    return COMPOUND_HEADER_OVERHEAD + sum(
        COMPOUND_PART_OVERHEAD + size for size in part_sizes
    )


def framed_size(parts: Sequence[bytes]) -> int:
    """Bytes ``parts`` occupy inside a compound: each one's length plus
    its framing. What a packet budget is charged for them."""
    return sum(map(len, parts)) + COMPOUND_PART_OVERHEAD * len(parts)


def pack_compound(parts: Sequence[bytes]) -> bytes:
    """One compound packet out of already-encoded parts — the one
    spelling of compound framing on the way out: tag, part count, then
    ``u16 length + part`` per part."""
    pack = _pack_u16
    pieces = [_COMPOUND_TAG, pack(len(parts))]
    append = pieces.append
    for raw in parts:
        append(pack(len(raw)))
        append(raw)
    return b"".join(pieces)


def pack_with_piggyback(primary: Message, piggyback: List[bytes]) -> bytes:
    """Encode ``primary`` with optional pre-encoded gossip piggyback.

    When there is no piggyback the primary is sent bare (no compound
    framing), which is what memberlist does and what keeps quiescent
    clusters cheap on the wire.
    """
    return pack_encoded_with_piggyback(encode(primary), piggyback)


def pack_encoded_with_piggyback(
    encoded_primary: bytes, piggyback: List[bytes]
) -> bytes:
    """Like :func:`pack_with_piggyback` for an already-encoded primary."""
    if not piggyback:
        return encoded_primary
    return pack_compound([encoded_primary, *piggyback])


def pack_encoded_with_piggyback_into(
    encoded_primary: bytes, piggyback: List[bytes], out: bytearray
) -> int:
    """Append :func:`pack_encoded_with_piggyback`'s output to ``out``;
    returns the bytes appended."""
    packet = pack_encoded_with_piggyback(encoded_primary, piggyback)
    out += packet
    return len(packet)
