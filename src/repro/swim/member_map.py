"""The membership table and its probe schedule.

SWIM selects fault-detector targets in round-robin order from the known
member list, with *new members inserted at random positions*. This bounds
the worst-case first-detection latency while keeping the expected latency
of purely random selection (Section III-A). When a full pass over the list
completes, the list is re-shuffled (as memberlist does), preserving the
randomized order property across rounds. The schedule itself is a
pluggable strategy (:mod:`repro.swim.probe_scheduler`); the randomized
round-robin above is the default, and the table keeps the scheduler
informed of membership changes through its lifecycle hooks.

Dead members are retained for a configurable period so that anti-entropy
sync can convey their state (a memberlist extension, Section III-B), then
reclaimed lazily.

Storage is struct-of-arrays, because at n members a cluster holds n
tables of n entries and a Python object per (observer, subject) pair is
what made that quadratic in constructor calls, in GC work and in RSS:

* a :class:`~repro.swim.roster.Roster` interns every subject name to a
  dense id once. The maps of one simulated cluster (and the bridge
  directories of one zone shard) share a roster; a lone real-network
  member gets a private one. There is no other difference between the
  two — one code path;
* per observer, a :class:`MemberMap` keeps only columns indexed by that
  id: a ``bytearray`` of states, an ``array('Q')`` of incarnations, an
  ``array('d')`` of state-change times, and a list of references to
  shared immutable :class:`~repro.swim.roster.Record` objects (address,
  meta, zone), replaced copy-on-write when an alive claim changes one.
  An ``array('I')`` of ids keeps table-insertion order. The record list
  is the only GC container among them — one object per observer, not
  one per pair;
* a table every map of a roster holds alike is held once: a
  whole-roster preseed (:meth:`MemberMap.add_many`) hands each map a
  reference to the roster's one read-only *bootstrap table*
  (:meth:`~repro.swim.roster.Roster.bootstrap`: ``bytes``, read-only
  ``memoryview``\\ s and a ``tuple``), and a map copies it into columns
  of its own — once, one memcpy a column — on its first write. Its
  table-insertion order is then "the local id, then every other id"
  (:class:`_BootstrapOrder`, two ints), which the map turns into an
  ``array`` of its own on its first insert or reclaim. Until then a
  quiet map costs its probe order, 4 bytes a row;
* :class:`Member` is a read-only *live view* — a ``(map, id)`` handle
  whose properties read the columns — materialized only for what the
  public API hands out. Full-table walkers read :meth:`MemberMap.claims`
  instead of building n views.

Ids are never recycled: a roster grows with the number of distinct names
it has ever seen (~200 bytes each), not with the live group size.

Hot-path structure (multi-thousand-member clusters probe, gossip and sync
every tick, so the table cannot afford per-call full scans):

* per-state counts are maintained incrementally, so ``num_alive`` /
  ``num_in_state`` / the ``reclaim_dead`` nothing-to-do fast path are O(1);
* an *actives index* (ids of non-local ALIVE/SUSPECT members in
  table-insertion order) backs ``alive_members`` and ``random_members``,
  rebuilt lazily after membership or state changes. Insertion order is
  preserved exactly — the candidate list feeds ``rng.sample``, so any
  reordering would change seeded runs. Sampling runs over ids; only the
  members chosen are materialized;
* the roster carries one *published* copy of the table its maps agree
  on (:meth:`~repro.swim.roster.Roster.publish`), each claim already
  packed for the wire. A map that equals it — an identity check while
  it holds the bootstrap table last published, else three C-level
  column comparisons — sends its ``snapshot()`` by joining those and
  merges a snapshot made of them with one set comparison; a map that
  differs first publishes what it holds, Python work proportional to
  the ids that differ. No snapshot is cached (that would pin ~27 KB per
  member at n=1024).

Every mutation goes through a :class:`MemberMap` method — views cannot be
written through. One reader outside this module reads the columns
directly: ``SwimNode._dispatch`` makes :meth:`MemberMap.known_incarnation`'s
test (``_ids``, ``_states``, ``_incarnations``) on every gossiped alive
claim without the call, re-reading the columns per claim since a write
may replace them.
"""

from __future__ import annotations

import collections.abc
import random
from array import array
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.swim.codec import CodecError, PackedStates, join_states, pack_age, read_entry
from repro.swim.probe_scheduler import ProbeScheduler, RoundRobinScheduler
from repro.swim.roster import _ABSENT, Record, Roster
from repro.swim.state import MemberState, claim_supersedes

#: Saturation bound for the age field carried in push-pull state entries
#: (u32 milliseconds on the wire, ~49 days).
MAX_STATE_AGE_MS = 0xFFFFFFFF

#: State-column byte -> member state; the column stores wire values, so
#: snapshots copy the byte straight out. An absent slot reads ``None``.
_STATE_OF: Tuple[Optional[MemberState], ...] = (*MemberState, None)
_ALIVE = int(MemberState.ALIVE)
_SUSPECT = int(MemberState.SUSPECT)
_DEAD = int(MemberState.DEAD)
_LEFT = int(MemberState.LEFT)


def _age(now: float, changed: float) -> bytes:
    """How long a state that changed at ``changed`` has lasted at
    ``now``, as a push-pull entry carries it: whole milliseconds,
    saturating."""
    return pack_age(
        min(int((now - changed) * 1000.0), MAX_STATE_AGE_MS) if now > changed else 0
    )


# ``random.sample`` insists on a registered Sequence. ``array`` is one
# from Python 3.10 on; the active index is sampled on 3.9 as well.
collections.abc.Sequence.register(array)

#: ``MergeDecision.action`` values. The claim concerned the local member
#: (never applied here; the node decides whether to refute).
MERGE_LOCAL = "local"
#: A previously unknown member was inserted into the table.
MERGE_ADDED = "added"
#: The claim superseded local knowledge and was applied.
MERGE_APPLIED = "applied"
#: A SUSPECT claim that must go through the node's suspicion machinery
#: (confirmation counting, timers) rather than being applied directly.
MERGE_SUSPECT = "suspect"
#: The claim was stale or inapplicable and changed nothing.
MERGE_IGNORED = "ignored"


class MergeDecision:
    """Outcome of merging one remote claim into the member table.

    The table mutation (if any) has already happened when a decision is
    returned; the caller translates the decision into protocol side
    effects (events, suspicion timers, rebroadcasts, refutations) so that
    gossip and anti-entropy sync share one precedence spine and cannot
    diverge.

    A plain ``__slots__`` class rather than a dataclass: one decision is
    built per push-pull state entry, which at sync scale makes
    constructor overhead measurable.
    """

    __slots__ = (
        "name",
        "state",
        "incarnation",
        "action",
        "previous_state",
        "meta_changed",
    )

    name: str
    #: The *claimed* state (not necessarily the state now in the table —
    #: a ``MERGE_SUSPECT`` decision leaves application to the caller).
    state: MemberState
    #: The claimed incarnation.
    incarnation: int
    action: str
    #: Table state before the merge; ``None`` when the member was unknown.
    previous_state: Optional[MemberState]
    #: Whether an applied ALIVE claim changed the member's metadata.
    meta_changed: bool

    def __init__(
        self,
        name: str,
        state: MemberState,
        incarnation: int,
        action: str,
        previous_state: Optional[MemberState] = None,
        meta_changed: bool = False,
    ) -> None:
        self.name = name
        self.state = state
        self.incarnation = incarnation
        self.action = action
        self.previous_state = previous_state
        self.meta_changed = meta_changed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MergeDecision):
            return NotImplemented
        return (
            self.name == other.name
            and self.state == other.state
            and self.incarnation == other.incarnation
            and self.action == other.action
            and self.previous_state == other.previous_state
            and self.meta_changed == other.meta_changed
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MergeDecision({self.name!r}, {self.state.name}, "
            f"inc={self.incarnation}, action={self.action!r})"
        )


class Member:
    """One peer's view of one group member: a live, read-only handle.

    Holds no data of its own beyond which row of which table it names;
    every property reads the owning :class:`MemberMap`'s columns, so a
    handle taken before a merge shows the merged state afterwards.
    Mutation goes through the map — the properties have no setters. A
    handle that outlives its member's reclamation reads ``state`` as
    ``None`` and is good for nothing else.
    """

    __slots__ = ("_map", "_id", "name")

    def __init__(self, members: "MemberMap", sid: int, name: str) -> None:
        self._map = members
        self._id = sid
        self.name = name

    @property
    def address(self) -> str:
        return self._map._records[self._id].address

    @property
    def incarnation(self) -> int:
        return self._map._incarnations[self._id]

    @property
    def state(self) -> MemberState:
        return _STATE_OF[self._map._states[self._id]]

    @property
    def state_changed_at(self) -> float:
        """Timestamp of the last state transition (for dead-member
        reclamation and gossip-to-the-dead windows)."""
        return self._map._changed_at[self._id]

    @property
    def meta(self) -> bytes:
        """Application metadata carried in the member's alive claims
        (roles, tags — Consul/Serf style)."""
        return self._map._records[self._id].meta

    @property
    def zone(self) -> str:
        """Zone tag in hierarchical deployments (:mod:`repro.zones`);
        ``""`` in flat clusters."""
        return self._map._records[self._id].zone

    @property
    def is_alive(self) -> bool:
        return self._map._states[self._id] == _ALIVE

    @property
    def is_suspect(self) -> bool:
        return self._map._states[self._id] == _SUSPECT

    @property
    def is_dead(self) -> bool:
        return _DEAD <= self._map._states[self._id] < _ABSENT

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.state
        return (
            f"Member({self.name!r}, inc={self.incarnation}, "
            f"state={'reclaimed' if state is None else state.name})"
        )


class _BootstrapOrder:
    """The table-insertion order :meth:`MemberMap.add_many` leaves in a
    map it hands the bootstrap table: ``local``, then every other id
    below ``stop``. Read-only; it reads like the ``array('I')`` of those
    ids (``len``, iteration) at two ints' cost instead of 4 bytes an id.
    """

    __slots__ = ("_local", "_stop")

    def __init__(self, local: int, stop: int) -> None:
        self._local = local
        self._stop = stop

    def __len__(self) -> int:
        return self._stop

    def __iter__(self) -> Iterator[int]:
        local = self._local
        return chain((local,), range(local), range(local + 1, self._stop))


class MemberMap:
    """Membership table for one local member.

    The local member itself is stored in the table (always ALIVE from its
    own point of view) so push-pull snapshots and group-size computations
    are uniform.
    """

    __slots__ = (
        "_local_name",
        "_rng",
        "_roster",
        "_ids",
        "_scheduler",
        "_states",
        "_incarnations",
        "_changed_at",
        "_records",
        "_shared",
        "_dead_since",
        "_order",
        "_state_counts",
        "_actives",
        "_claims",
        "_local_id",
    )

    def __init__(
        self,
        local_name: str,
        local_address: str,
        rng: random.Random,
        probe_scheduler: Optional[ProbeScheduler] = None,
        zone: str = "",
        roster: Optional[Roster] = None,
    ) -> None:
        self._local_name = local_name
        self._rng = rng
        self._roster = roster if roster is not None else Roster()
        self._ids = self._roster.ids
        self._scheduler = probe_scheduler or RoundRobinScheduler()
        self._scheduler.bind(self, rng)
        # Columns indexed by roster id, covering at least every id this
        # map holds (see _grow). A slot is free while its state byte is
        # _ABSENT. While _shared, they are the roster's read-only
        # bootstrap table, which every mutator first copies (_own).
        self._states = bytearray()
        self._incarnations = array("Q")
        self._changed_at = array("d")
        self._records: List[Optional[Record]] = []
        self._shared = False
        # No DEAD/LEFT member changed state before this time, or None
        # when unknown: lets reclaim_dead skip walks that expire nothing.
        self._dead_since: Optional[float] = None
        #: Ids held, in table-insertion order: an array, or the
        #: _BootstrapOrder a sharing add_many leaves until the map's first
        #: insert (_own_order) or reclaim.
        self._order: Union[array, _BootstrapOrder] = array("I")
        # Per-state member counts, indexed by state value. Maintained
        # incrementally: suspicion-timeout scaling consults the alive
        # count on every new suspicion, gossip candidate selection needs
        # the dead count, and neither may cost O(n).
        self._state_counts = [0] * len(MemberState)
        # Ids of non-local ALIVE/SUSPECT members in table-insertion
        # order, or None when stale. Backs alive_members/random_members.
        self._actives: Optional[array] = None
        # The columns behind claims() as last gathered, or None when stale.
        self._claims: Optional[Tuple[tuple, tuple, tuple]] = None
        self._local_id = self._insert(
            local_name, Record(local_address, b"", zone), 1, _ALIVE, 0.0
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def local_name(self) -> str:
        return self._local_name

    @property
    def local(self) -> Member:
        return Member(self, self._local_id, self._local_name)

    @property
    def roster(self) -> Roster:
        """The name-interning roster this map's columns are indexed by."""
        return self._roster

    @property
    def shares_table(self) -> bool:
        """Whether this map still holds its roster's bootstrap table:
        nothing has written to it since :meth:`add_many` handed it over."""
        return self._shared

    def _find(self, name: str) -> Optional[int]:
        """Roster id of ``name`` if this map holds it."""
        sid = self._ids.get(name)
        states = self._states
        if sid is None or sid >= len(states) or states[sid] == _ABSENT:
            return None
        return sid

    def __contains__(self, name: str) -> bool:
        return self._find(name) is not None

    def __len__(self) -> int:
        """Known group size, including the local member and dead members
        still retained (this is ``n`` for gossip/suspicion scaling)."""
        return len(self._order)

    def get(self, name: str) -> Optional[Member]:
        sid = self._ids.get(name)
        states = self._states
        if sid is None or sid >= len(states) or states[sid] == _ABSENT:
            return None
        return Member(self, sid, name)

    def known_incarnation(self, name: str) -> int:
        """The incarnation held for ``name``, or ``-1`` when it is not in
        the table — so ``claimed <= known_incarnation(name)`` reads "this
        alive claim is nothing new" without materializing a view (the
        duplicate-gossip fast path runs per piggybacked claim)."""
        sid = self._ids.get(name)
        states = self._states
        if sid is None or sid >= len(states) or states[sid] == _ABSENT:
            return -1
        return self._incarnations[sid]

    def members(self) -> Iterator[Member]:
        names = self._roster.names
        return (Member(self, sid, names[sid]) for sid in self._order)

    def claims(self) -> Iterator[Tuple[str, MemberState, int]]:
        """``(name, state, incarnation)`` per member in table order, read
        off the columns — what full-table walkers (oracles, digests,
        anti-entropy scans, reconnect candidates) iterate instead of n
        views.

        The three columns are gathered into table order on first use and
        kept until the next mutation: the invariant taps walk every table
        after every simulated event, a bridge walks its whole directory
        every tick, and hardly any of those intervals changes the table.
        Three flat tuples (24 bytes a row, nothing for the GC to
        traverse), zipped per call; a table nobody walks never builds
        them.
        """
        columns = self._claims
        if columns is None:
            order = self._order
            names = self._roster.names
            states = self._states
            incarnations = self._incarnations
            state_of = _STATE_OF
            columns = self._claims = (
                tuple([names[sid] for sid in order]),
                tuple([state_of[states[sid]] for sid in order]),
                tuple([incarnations[sid] for sid in order]),
            )
        return zip(*columns)

    def names(self) -> List[str]:
        names = self._roster.names
        return [names[sid] for sid in self._order]

    def num_alive(self) -> int:
        return self._state_counts[_ALIVE]

    def num_in_state(self, state: MemberState) -> int:
        return self._state_counts[state]

    def _num_dead(self) -> int:
        counts = self._state_counts
        return counts[MemberState.DEAD] + counts[MemberState.LEFT]

    def _active_index(self) -> Sequence[int]:
        """Ids of non-local ALIVE/SUSPECT members, in table-insertion
        order.

        Lazily rebuilt after membership or state changes. Order matters:
        callers feed slices of this into ``rng.sample``, so it must match
        what a fresh scan of the table would produce. Kept as an
        ``array``: 4 bytes an id where a list of ints holds 36, on every
        node that has ever gossiped.
        """
        actives = self._actives
        if actives is None:
            states = self._states
            local_id = self._local_id
            actives = self._actives = array(
                "I",
                [
                    sid
                    for sid in self._order
                    if states[sid] <= _SUSPECT and sid != local_id
                ],
            )
        return actives

    def _views(self, sids: Iterable[int]) -> List[Member]:
        names = self._roster.names
        return [Member(self, sid, names[sid]) for sid in sids]

    def alive_members(self, include_local: bool = False) -> List[Member]:
        states = self._states
        alive = [sid for sid in self._active_index() if states[sid] == _ALIVE]
        if include_local and states[self._local_id] == _ALIVE:
            # The local member is inserted first and never removed, so a
            # full scan would have yielded it at position 0.
            alive.insert(0, self._local_id)
        return self._views(alive)

    def _publish(self) -> Roster:
        """The roster, its published table made equal to this one.

        A map holding the bootstrap table the roster last published is
        done by identity. A shared table is published as it is, however
        far the roster has grown since it was built (ids past a column's
        end read as absent, to ``_find`` and to :meth:`Roster.publish`
        alike), so growth alone copies no map; a private one is grown
        to the roster first."""
        roster = self._roster
        if self._incarnations is not roster.published_from:
            if not self._shared:
                self._grow()
            roster.publish(self._states, self._incarnations, self._records)
        return roster

    def snapshot(self, now: float = 0.0) -> PackedStates:
        """Full state for a push-pull sync, already in wire form:
        :func:`repro.swim.codec.encode` appends it as it is. Iterating
        the result yields the entry tuples it encodes, for whoever wants
        to read it.

        The table is published first (a comparison, unless it changed
        since the roster last saw it); the snapshot is the published
        claims in table order, each followed by the age of its state:
        how long before ``now`` the member's last transition happened,
        in whole milliseconds, saturating (ages travel instead of
        absolute timestamps so peers with unrelated clocks can still
        backdate terminal states into their own retention windows). One
        age throughout for a table nothing has happened to since it was
        seeded, which the codec then joins with it. A table the wire
        format cannot carry (a name over 255 bytes, more than 65,535
        members) raises :class:`~repro.swim.codec.CodecError`.
        """
        entries = self._publish().entries
        changed_at = self._changed_at
        times = changed_at.tobytes()
        if times == times[:8] * len(changed_at):  # every slot holds the first's time
            return join_states(self._order, entries, _age(now, changed_at[0]))
        age_of = {changed: _age(now, changed) for changed in set(changed_at)}
        return join_states(self._order, entries, map(age_of.__getitem__, changed_at))

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def _own(self) -> None:
        """Swap the shared bootstrap table for private copies of it, one
        memcpy a column: every mutator calls this before its first
        write, so a map pays for its table only once something has
        happened to it."""
        self._states = bytearray(self._states)
        self._incarnations = array("Q", self._incarnations.tobytes())
        self._changed_at = array("d", self._changed_at.tobytes())
        self._records = list(self._records)
        self._shared = False

    def _own_order(self) -> array:
        """The table-insertion order as an ``array`` of this map's own,
        converted from the bootstrap order on first use (4 bytes an id)."""
        order = self._order
        if order.__class__ is _BootstrapOrder:
            order = self._order = array("I", order)
        return order

    def _grow(self) -> None:
        """Extend the columns to cover every id the roster has handed
        out, and no further: a private roster learning names one at a
        time still pays amortized O(1) per name, because ``extend``
        over-allocates geometrically on its own."""
        size = len(self._states)
        extra = len(self._roster.names) - size
        if extra > 0:
            if self._shared:
                self._own()
            self._states.extend(bytes((_ABSENT,)) * extra)
            self._incarnations.extend(array("Q", (0,)) * extra)
            self._changed_at.extend(array("d", (0.0,)) * extra)
            self._records.extend([None] * extra)

    def _insert(
        self, name: str, record: Record, incarnation: int, state: int, now: float
    ) -> int:
        sid = self._roster.intern(name, record)
        if self._shared:
            self._own()
        states = self._states
        if sid >= len(states):
            self._grow()
        elif states[sid] != _ABSENT:
            raise ValueError(f"member {name!r} already known")
        shared = self._roster.records[sid]
        self._records[sid] = shared if shared == record else record
        states[sid] = state
        self._incarnations[sid] = incarnation
        self._changed_at[sid] = now
        self._own_order().append(sid)
        self._state_counts[state] += 1
        self._actives = self._claims = None
        if state >= _DEAD:
            self._dead_since = None
        return sid

    def add(
        self,
        name: str,
        address: str,
        incarnation: int,
        state: MemberState,
        now: float,
        meta: bytes = b"",
        zone: str = "",
    ) -> None:
        """Insert a newly learned member.

        New members enter the probe list at a random position, per SWIM's
        round-robin refinement.
        """
        self._insert(name, Record(address, meta, zone), incarnation, state, now)
        self._scheduler.on_members_added((name,))

    def add_many(
        self, span: range, incarnation: int, state: MemberState, now: float
    ) -> None:
        """Insert a contiguous span of roster ids in one pass (preseed
        bootstrap).

        Every map of a cluster takes the same span — typically the whole
        shared roster — so the id of this map's own local member is
        skipped. Equivalent to calling :meth:`add` per id in span order
        with the roster's record — same table order, same probe-order
        draws — except that an already-known id raises before anything is
        inserted. A map that holds only itself, as the same claim, and
        takes the whole roster ends up holding the roster's
        :meth:`Roster.bootstrap` table, so it takes a reference to that
        (shared until its first write) and a :class:`_BootstrapOrder`;
        any other span is filled into its own columns by slice
        assignment. Neither does per-member Python work besides the
        scheduler's draws.
        """
        roster = self._roster
        start, stop = span.start, span.stop
        if span.step != 1 or not 0 <= start <= stop <= len(roster):
            raise ValueError(f"{span!r} is not a span of roster ids")
        local_id = self._local_id
        holds_local = start <= local_id < stop
        if (
            stop - start == len(roster)
            and len(self._order) == 1
            and self._states[local_id] == state
            and self._incarnations[local_id] == incarnation
            and self._changed_at[local_id] == now
            and self._records[local_id] is roster.records[local_id]
        ):
            (
                self._states, self._incarnations, self._changed_at, self._records
            ) = roster.bootstrap(state, incarnation, now)
            self._shared = True
            self._order = _BootstrapOrder(local_id, stop)
            added = stop - 1
        else:
            if self._shared:
                self._own()
            self._grow()
            states = self._states
            if states.count(_ABSENT, start, stop) != stop - start - holds_local:
                known = next(
                    sid
                    for sid in span
                    if sid != local_id and states[sid] != _ABSENT
                )
                raise ValueError(f"member {roster.names[known]!r} already known")
            pieces = [(start, stop)]
            if holds_local:
                pieces = [(start, local_id), (local_id + 1, stop)]
            for lo, hi in pieces:
                states[lo:hi] = bytes((state,)) * (hi - lo)
                self._incarnations[lo:hi] = array("Q", (incarnation,)) * (hi - lo)
                self._changed_at[lo:hi] = array("d", (now,)) * (hi - lo)
                self._records[lo:hi] = roster.records[lo:hi]
            fresh = roster.id_array(span)
            if holds_local:
                del fresh[local_id - start]
            self._own_order().extend(fresh)
            added = len(fresh)
        names = roster.names[start:stop]
        if holds_local:
            del names[local_id - start]
        self._state_counts[state] += added
        self._actives = self._claims = None
        if state >= _DEAD:
            self._dead_since = None
        self._scheduler.on_members_added(names)

    def _apply(self, sid: int, state: int, incarnation: int, now: float) -> None:
        """Write a claim that :func:`claim_supersedes` already admitted
        (which implies the state or the incarnation differs)."""
        if self._shared:
            self._own()
        states = self._states
        previous = states[sid]
        if previous != state:
            self._changed_at[sid] = now
            self._state_counts[previous] -= 1
            self._state_counts[state] += 1
            # The active index holds ALIVE and SUSPECT members alike: a
            # suspicion raised or refuted — most flips by far — leaves
            # it as it was.
            if (previous <= _SUSPECT) != (state <= _SUSPECT):
                self._actives = None
            if state >= _DEAD:
                self._dead_since = None
            states[sid] = state
        self._incarnations[sid] = incarnation
        self._claims = None

    def apply_claim(
        self, name: str, state: MemberState, incarnation: int, now: float
    ) -> bool:
        """Apply a remote claim if it supersedes local knowledge.

        Returns ``True`` when the member's state or incarnation changed.
        Unknown members are not created here (the caller decides, since an
        ``alive`` about an unknown member needs an address).
        """
        sid = self._find(name)
        if sid is None:
            raise KeyError(name)
        if not claim_supersedes(
            state,
            incarnation,
            _STATE_OF[self._states[sid]],
            self._incarnations[sid],
        ):
            return False
        self._apply(sid, state, incarnation, now)
        return True

    def merge_claim(
        self,
        name: str,
        state: MemberState,
        incarnation: int,
        now: float,
        address: Optional[str] = None,
        meta: Optional[bytes] = None,
        age: float = 0.0,
        zone: str = "",
    ) -> MergeDecision:
        """Merge one remote claim under the shared precedence rules.

        This is the single precedence primitive behind both gossip
        (``alive``/``suspect``/``dead`` handlers) and anti-entropy
        push-pull, so the two dissemination paths cannot diverge:

        * claims about the local member are never applied (``MERGE_LOCAL``;
          the node decides whether to refute);
        * an ALIVE claim about an unknown member inserts it when an
          address is available (``MERGE_ADDED``);
        * claims that supersede (per :func:`claim_supersedes`) are applied
          (``MERGE_APPLIED``), updating address/meta for ALIVE claims and
          backdating terminal transitions by ``age`` so retention windows
          reflect when the member actually died, not when we heard;
        * everything else is ``MERGE_IGNORED``.
        """
        if name == self._local_name:
            return MergeDecision(
                name, state, incarnation, MERGE_LOCAL, MemberState.ALIVE
            )
        # _find, inlined: this is the table's hottest entry point.
        sid = self._ids.get(name)
        states = self._states
        if sid is None or sid >= len(states) or states[sid] == _ABSENT:
            if state is MemberState.ALIVE and address is not None:
                self.add(name, address, incarnation, state, now, meta or b"", zone)
                return MergeDecision(name, state, incarnation, MERGE_ADDED)
            return MergeDecision(name, state, incarnation, MERGE_IGNORED)
        previous: MemberState = _STATE_OF[states[sid]]
        if not claim_supersedes(
            state, incarnation, previous, self._incarnations[sid]
        ):
            return MergeDecision(name, state, incarnation, MERGE_IGNORED, previous)
        self._apply(sid, state, incarnation, now)
        meta_changed = False
        if state is MemberState.ALIVE:
            record = self._records[sid]
            assert record is not None
            claimed = (
                record.address if address is None else address,
                record.meta if meta is None else meta,
                zone or record.zone,
            )
            if claimed != (record.address, record.meta, record.zone):
                # Copy-on-write: the old record may be shared with other
                # observers (and the roster), none of whom saw this claim.
                meta_changed = claimed[1] != record.meta
                self._records[sid] = Record(*claimed)
        elif state is not MemberState.SUSPECT and age > 0.0:
            self._changed_at[sid] = min(self._changed_at[sid], now - age)
            self._dead_since = None
        return MergeDecision(
            name, state, incarnation, MERGE_APPLIED, previous, meta_changed
        )

    def _merge_entry(
        self,
        name: str,
        address: str,
        incarnation: int,
        state: MemberState,
        meta: bytes,
        age: float,
        now: float,
    ) -> MergeDecision:
        """Merge one push-pull state entry.

        ALIVE, DEAD and LEFT claims are applied directly through
        :meth:`merge_claim`; a SUSPECT claim is returned as a
        ``MERGE_SUSPECT`` decision (after inserting an unknown member as
        ALIVE at the claimed incarnation) so the caller can route it
        through the exact suspicion machinery gossip uses — timers,
        confirmations and all.
        """
        if state is MemberState.SUSPECT and name != self._local_name:
            sid = self._find(name)
            if sid is None:
                self.add(name, address, incarnation, MemberState.ALIVE, now, meta)
                return MergeDecision(name, state, incarnation, MERGE_SUSPECT)
            return MergeDecision(
                name, state, incarnation, MERGE_SUSPECT, _STATE_OF[self._states[sid]]
            )
        return self.merge_claim(
            name, state, incarnation, now, address=address, meta=meta, age=age
        )

    def merge_remote_state(
        self,
        entries: Iterable[Tuple[str, str, int, MemberState, float, bytes]],
        now: float,
    ) -> List[MergeDecision]:
        """Merge a full remote state snapshot, one decision per entry.

        ``entries`` is an iterable of ``(name, address, incarnation,
        state, age_seconds, meta)`` as yielded by
        :meth:`repro.swim.messages.PushPull.iter_entries`. The sync
        engine merges wire entries through
        :meth:`merge_remote_wire_state`; this is the same per-entry merge
        without its elisions.
        """
        return [
            self._merge_entry(name, address, incarnation, state, meta, age, now)
            for name, address, incarnation, state, age, meta in entries
        ]

    def merge_remote_wire_state(
        self,
        states: PackedStates,
        now: float,
    ) -> Tuple[List[MergeDecision], int]:
        """Merge a push-pull's states in wire form; the sync-engine hot
        path. ``states`` comes off the wire or is another map's
        :meth:`snapshot`; it is validated whole (:meth:`PackedStates.split`)
        before anything is merged.

        Semantically :meth:`merge_remote_state` applied to
        ``PushPull.iter_entries()``, with the steady-state majority
        elided by one rule: an entry that is byte for byte a claim this
        table holds as ALIVE (in the ``alive`` set it published) could
        only come out ``MERGE_IGNORED`` — a guaranteed no-op for every
        caller — so it is never decoded. A snapshot of nothing else is
        merged by one ``issuperset``; what it says about the local
        member (``MERGE_LOCAL``) and the rest are decided entry by entry.
        Returns ``(decisions, total_entries)`` where ``decisions`` holds
        only the non-ignored outcomes.
        """
        entries, ages = states.split()
        try:
            roster = self._publish()
            alive, local = roster.alive, roster.entries[self._local_id]
        except CodecError:
            # We hold a claim the wire cannot carry, so none of ours
            # is published: nothing arriving can be elided by it.
            alive, local = frozenset(), None
        if alive.issuperset(entries):
            # Only what it says about us gets a decision, and that
            # one does not read the age.
            own = entries.count(local)
            novel = [(local, ages[0])] * own if own else []
        else:
            novel = [
                pair
                for pair in zip(entries, ages)
                if pair[0] not in alive or pair[0] == local
            ]
        decisions: List[MergeDecision] = []
        state_of = _STATE_OF
        for pair in novel:
            name, address, incarnation, state_value, meta, age_ms = read_entry(*pair)
            decision = self._merge_entry(
                name, address, incarnation, state_of[state_value], meta,
                age_ms / 1000.0, now,
            )
            if decision.action != MERGE_IGNORED:
                decisions.append(decision)
        return decisions, len(entries)

    def bump_local_incarnation(self, at_least: int) -> int:
        """Refutation: raise the local incarnation above ``at_least``."""
        if self._shared:
            self._own()
        sid = self._local_id
        bumped = max(self._incarnations[sid], at_least) + 1
        self._incarnations[sid] = bumped
        self._claims = None
        return bumped

    def set_local_meta(self, meta: bytes) -> None:
        """Update the local member's application metadata.

        The local member is the authority on its own record, so the new
        one is published to the roster as well: a later
        :meth:`add_many` by the maps sharing it seeds them with it.
        """
        if self._shared:
            self._own()
        sid = self._local_id
        record = self._records[sid]
        assert record is not None
        self._records[sid] = record = Record(record.address, meta, record.zone)
        self._roster.announce(sid, record)

    def reclaim_dead(self, now: float, retention: float) -> List[str]:
        """Remove dead/left members whose retention window has expired.

        Returns the reclaimed names. Retention exists so anti-entropy can
        still convey their state for a while (Section III-B). Runs every
        probe tick, so it must be O(1) both while nobody is dead and
        while nobody dead has been so for ``retention``: a walk
        remembers the earliest transition time among the dead it keeps,
        and the next walk waits until that one could expire (anything
        that makes a member DEAD or LEFT, or backdates one, forgets it;
        a member that leaves DEAD only makes the memo early, never late).
        """
        counts = self._state_counts
        if counts[_DEAD] + counts[_LEFT] == 0:
            return []
        since = self._dead_since
        if since is not None and now - since < retention:
            return []
        states = self._states
        changed_at = self._changed_at
        dead = [sid for sid in self._order if states[sid] >= _DEAD]
        expired = [sid for sid in dead if now - changed_at[sid] >= retention]
        self._dead_since = min(
            (changed_at[sid] for sid in dead if now - changed_at[sid] < retention),
            default=None,
        )
        if not expired:
            return []
        if self._shared:
            self._own()
            states = self._states
        for sid in expired:
            self._state_counts[states[sid]] -= 1
            states[sid] = _ABSENT
            self._records[sid] = None
        gone = set(expired)
        self._order = array("I", [sid for sid in self._order if sid not in gone])
        self._actives = self._claims = None
        names = self._roster.names
        reclaimed = [names[sid] for sid in expired]
        self._scheduler.on_members_removed(reclaimed)
        return reclaimed

    # ------------------------------------------------------------------ #
    # Probe scheduling
    # ------------------------------------------------------------------ #

    @property
    def probe_scheduler(self) -> ProbeScheduler:
        return self._scheduler

    def num_probeable(self) -> int:
        """Non-local ALIVE/SUSPECT members — the probe candidate count."""
        counts = self._state_counts
        total = counts[_ALIVE] + counts[_SUSPECT]
        if self._states[self._local_id] <= _SUSPECT:
            total -= 1
        return total

    def probeable_members(self) -> List[Member]:
        """Non-local ALIVE/SUSPECT members, in table-insertion order."""
        return self._views(self._active_index())

    def next_probe_target(self, now: float = 0.0) -> Optional[str]:
        """The name of the next member to probe, per the configured
        scheduling strategy (a name, not a view: the prober reads the
        one column it needs, the address).

        Skips dead and left members (suspect members *are* probed, which
        is how a suspicion can be refuted by the prober). Returns ``None``
        when there is nobody probeable.
        """
        name = self._scheduler.next_target(now)
        if name is not None:
            self._scheduler.selections += 1
        return name

    def random_members(
        self,
        count: int,
        exclude: Tuple[str, ...] = (),
        include_suspect: bool = True,
        gossip_to_dead_within: Optional[float] = None,
        now: float = 0.0,
    ) -> List[Member]:
        """Sample up to ``count`` distinct gossip/probe-helper candidates.

        ``gossip_to_dead_within`` optionally admits recently-dead members
        (memberlist gossips to the dead for a grace period so false
        positives recover faster).
        """
        return self._views(
            self._sample(count, exclude, include_suspect, gossip_to_dead_within, now)
        )

    def random_addresses(
        self,
        count: int,
        exclude: Tuple[str, ...] = (),
        include_suspect: bool = True,
        gossip_to_dead_within: Optional[float] = None,
        now: float = 0.0,
    ) -> List[str]:
        """The addresses of what :meth:`random_members` would draw with
        the same arguments from the same RNG state: what a sender needs,
        without a view per member drawn."""
        records = self._records
        return [
            records[sid].address
            for sid in self._sample(
                count, exclude, include_suspect, gossip_to_dead_within, now
            )
        ]

    def _sample(
        self,
        count: int,
        exclude: Tuple[str, ...],
        include_suspect: bool,
        gossip_to_dead_within: Optional[float],
        now: float,
    ) -> Sequence[int]:
        """The one candidate sampler: ids, in the order drawn."""
        states = self._states
        ids_get = self._ids.get
        candidates: Sequence[int]
        if gossip_to_dead_within is not None and self._num_dead() > 0:
            # Slow path: recently-dead members are candidates, and their
            # eligibility depends on `now`, so scan the full table.
            excluded = {ids_get(name) for name in exclude}
            excluded.add(self._local_id)
            changed_at = self._changed_at
            candidates = []
            for sid in self._order:
                if sid in excluded:
                    continue
                state = states[sid]
                if state == _ALIVE or (state == _SUSPECT and include_suspect):
                    candidates.append(sid)
                elif (
                    state >= _DEAD
                    and now - changed_at[sid] <= gossip_to_dead_within
                ):
                    candidates.append(sid)
        else:
            candidates = self._active_index()
            if exclude:
                excluded = {ids_get(name) for name in exclude}
                if include_suspect:
                    candidates = [sid for sid in candidates if sid not in excluded]
                else:
                    candidates = [
                        sid
                        for sid in candidates
                        if states[sid] == _ALIVE and sid not in excluded
                    ]
            elif not include_suspect:
                candidates = [sid for sid in candidates if states[sid] == _ALIVE]
        if count < len(candidates):
            candidates = self._rng.sample(candidates, count)
        return candidates
