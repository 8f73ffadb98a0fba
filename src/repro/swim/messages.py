"""Protocol messages.

The message set is SWIM's (``ping``, ``ping-req``, ``ack``), plus the
suspicion subprotocol's gossip messages (``suspect``, ``alive``, ``dead`` —
memberlist renames SWIM's ``confirm`` to ``dead``), plus Lifeguard's
``nack`` (Section IV-A), plus memberlist's ``push-pull`` anti-entropy sync
and a ``compound`` wrapper used for piggybacking gossip onto failure
detector traffic.

Messages are frozen, slotted dataclasses (no instance ``__dict__``);
the wire encoding lives in
:mod:`repro.swim.codec` so that byte sizes
(Table VI) are measured on a realistic compact binary format rather
than on Python object overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple, Union, get_args

from repro.swim.state import MemberState

if TYPE_CHECKING:  # the codec imports this module
    from repro.swim.codec import PackedStates

#: Wire value -> member state, bypassing the enum constructor on the
#: push-pull decode path (see :meth:`PushPull.iter_entries`).
_STATE_BY_VALUE = {int(state): state for state in MemberState}


@dataclass(frozen=True, slots=True)
class Ping:
    """Direct liveness probe. ``seq_no`` correlates the eventual ack."""

    seq_no: int
    target: str
    source: str


@dataclass(frozen=True, slots=True)
class PingReq:
    """Indirect probe request: asks the recipient to ping ``target``.

    ``want_nack`` is Lifeguard's extension: when set, the helper replies
    with a :class:`Nack` at 80% of its probe timeout if it has not yet
    received an ack from ``target``.
    """

    seq_no: int
    target: str
    source: str
    want_nack: bool = False


@dataclass(frozen=True, slots=True)
class Ack:
    """Acknowledges a ping (or is forwarded by a ping-req helper)."""

    seq_no: int
    source: str


@dataclass(frozen=True, slots=True)
class Nack:
    """Negative ack from a ping-req helper: 'the target has not answered
    me yet, but I am alive and processing' (Lifeguard, Section IV-A)."""

    seq_no: int
    source: str


@dataclass(frozen=True, slots=True)
class Suspect:
    """Gossip claim that ``member`` (at ``incarnation``) may have failed.

    ``sender`` identifies the member that *originated* the suspicion; it is
    what makes suspicions from different peers 'independent' for
    LHA-Suspicion's confirmation count.
    """

    incarnation: int
    member: str
    sender: str

    # The bytes a decoded claim arrived as (set by the codec alone, for
    # ``encode_claim`` to return), outside equality, hashing and repr.
    _wire: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )


@dataclass(frozen=True, slots=True)
class Alive:
    """Gossip claim that ``member`` is alive at ``incarnation``.

    Carries the member's transport address so joins propagate through
    gossip alone, plus the member's application metadata (memberlist's
    ``Meta``: Consul/Serf use it for roles and tags). Metadata updates
    ride on refreshed alive claims.

    ``zone`` tags the member with its zone in hierarchical deployments
    (:mod:`repro.zones`); ``""`` means a flat cluster and encodes to the
    legacy wire form, byte-for-byte.
    """

    incarnation: int
    member: str
    address: str
    meta: bytes = b""
    zone: str = ""


@dataclass(frozen=True, slots=True)
class Dead:
    """Gossip claim that ``member`` (at ``incarnation``) has been confirmed
    failed (SWIM's ``confirm``). ``sender`` is the declaring member."""

    incarnation: int
    member: str
    sender: str


@dataclass(frozen=True, slots=True)
class UserEvent:
    """Application-level gossip (the memberlist/Serf user broadcast).

    Disseminated with the same transmit-limited epidemic machinery as
    membership updates but through a separate queue, and delivered to the
    application exactly once per member (deduplicated by
    ``(origin, seq_no)``).
    """

    origin: str
    seq_no: int
    payload: bytes

    @property
    def key(self) -> "tuple[str, int]":
        return (self.origin, self.seq_no)


#: One member's snapshot inside a push-pull exchange:
#: (name, address, incarnation, state value, meta, state age in integer
#: milliseconds). The meta and age elements are optional for backward
#: compatibility with hand-built tuples.
StateEntry = Tuple[str, str, int, int, bytes, int]


@dataclass(frozen=True, slots=True)
class PushPull:
    """Anti-entropy full state sync (memberlist extension).

    The initiator sends its full member table with ``is_reply=False``; the
    receiver merges it and answers with its own table and
    ``is_reply=True``. ``join=True`` marks the initiator's first contact
    with the group.

    ``states`` is a tuple of entries on a message built by hand; a
    sender's own table (:meth:`MemberMap.snapshot
    <repro.swim.member_map.MemberMap.snapshot>`) and a decoded message
    carry it in wire form, as a :class:`repro.swim.codec.PackedStates`,
    which iterates (and compares) as the same entries. Only the wire
    form is merged (:meth:`repro.sync.engine.SyncEngine.merge`).
    """

    source: str
    states: Union[Tuple[StateEntry, ...], PackedStates]
    join: bool = False
    is_reply: bool = False

    def iter_entries(
        self,
    ) -> Iterator[Tuple[str, str, int, MemberState, float, bytes]]:
        """Yield ``(name, address, incarnation, MemberState, age_seconds,
        meta)`` — the full merge input, age converted back to seconds.

        The rich form of the wire entries the sync engine merges through
        :meth:`repro.swim.member_map.MemberMap.merge_remote_wire_state`.
        """
        # Dict lookup instead of the enum constructor: MemberState(v)
        # walks the enum's value map under a lock and shows up in sync
        # profiles; raises the same ValueError for unknown values.
        by_value = _STATE_BY_VALUE
        for entry in self.states:
            name, address, incarnation, state_value = entry[:4]
            meta = entry[4] if len(entry) > 4 else b""
            age_ms = entry[5] if len(entry) > 5 else 0
            state = by_value.get(state_value)
            if state is None:
                state = MemberState(state_value)
            yield (
                name,
                address,
                incarnation,
                state,
                age_ms / 1000.0,
                meta,
            )


@dataclass(frozen=True, slots=True)
class ZoneDigest:
    """Compact cross-zone summary gossiped between bridge members
    (:mod:`repro.zones`): the sending zone's member counts by state, its
    highest incarnation and a hash of its full membership view. Remote
    bridges use digests as a liveness signal for whole zones and to
    detect divergence cheaply without shipping full state.
    """

    zone: str
    source: str
    alive: int
    suspect: int
    dead: int
    left: int
    max_incarnation: int
    view_hash: int


@dataclass(frozen=True, slots=True)
class ZoneClaim:
    """A terminal-or-refuting membership claim forwarded across zones by
    a bridge member: DEAD/LEFT verdicts reached inside the origin zone,
    and the ALIVE refutations/rejoins that supersede them. Receiving
    bridges merge the claim into their directory through
    :meth:`repro.swim.member_map.MemberMap.merge_claim`, so the ordinary
    incarnation-precedence rules arbitrate cross-zone races.
    """

    zone: str
    member: str
    incarnation: int
    state_value: int

    @property
    def state(self) -> MemberState:
        return _STATE_BY_VALUE[self.state_value]


@dataclass(frozen=True, slots=True)
class Compound:
    """Several messages in one packet: a primary failure-detector message
    (or dedicated gossip) plus piggybacked gossip payloads."""

    parts: Tuple["Message", ...] = ()

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("a compound message needs at least one part")

    @property
    def primary(self) -> "Message":
        return self.parts[0]


#: Every concrete protocol message type.
Message = Union[
    Ping,
    PingReq,
    Ack,
    Nack,
    Suspect,
    Alive,
    Dead,
    UserEvent,
    PushPull,
    ZoneDigest,
    ZoneClaim,
    Compound,
]

#: Messages that are disseminated via gossip (and are piggybackable).
GossipMessage = Union[Suspect, Alive, Dead, UserEvent]

GOSSIP_TYPES = (Suspect, Alive, Dead, UserEvent)


def is_gossip(message: Message) -> bool:
    """Whether ``message`` is a gossip (dissemination) message."""
    return isinstance(message, GOSSIP_TYPES)


def gossip_subject(message: GossipMessage) -> object:
    """The invalidation key of a gossip message.

    Membership claims are keyed by the member they are about (a fresher
    claim replaces a staler one); user events are keyed by
    ``(origin, seq_no)`` and never replace one another.
    """
    if isinstance(message, UserEvent):
        return message.key
    return message.member


#: Telemetry label per concrete message class (one lookup per packet
#: sent, where lower-casing the class name was one string per packet).
_KIND_OF = {
    cls: cls.__name__.lower() for cls in get_args(Message) if cls is not Compound
}


def primary_kind(message: Message) -> str:
    """Telemetry label for a message; compound messages are labelled by
    their primary part, matching the paper's counting rule for Table VI
    ('compound messages ... are counted as one message')."""
    kind = _KIND_OF.get(message.__class__)
    if kind is not None:
        return kind
    # A compound, or a subclass of a message type.
    if isinstance(message, Compound):
        return primary_kind(message.parts[0])
    return type(message).__name__.lower()


def flatten(message: Message) -> List[Message]:
    """Expand a (possibly compound) message into its concrete parts."""
    if isinstance(message, Compound):
        result: List[Message] = []
        for part in message.parts:
            result.extend(flatten(part))
        return result
    return [message]
