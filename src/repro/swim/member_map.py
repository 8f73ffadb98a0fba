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

Hot-path structure (multi-thousand-member clusters probe, gossip and sync
every tick, so the table cannot afford per-call full scans):

* per-state counts are maintained incrementally, so ``num_alive`` /
  ``num_in_state`` / the ``reclaim_dead`` nothing-to-do fast path are O(1);
* an *actives index* (non-local ALIVE/SUSPECT members in table-insertion
  order) backs ``alive_members`` and ``random_members``, rebuilt lazily
  after membership or state changes. Insertion order is preserved exactly
  — the candidate list feeds ``rng.sample``, so any reordering would
  change seeded runs;
* ``snapshot()`` is cached under a version counter while no dead members
  are retained. State-entry ages are only ever *consumed* by receivers
  for DEAD/LEFT entries (to backdate retention windows), so serving a
  stale age on an ALIVE/SUSPECT entry is behavior-neutral and
  byte-identical on the wire (ages are fixed-width u32).

Every mutation — including direct ``Member`` field writes by the owning
node, which must route through :meth:`MemberMap.set_local_meta` /
:meth:`MemberMap.bump_local_incarnation` — bumps the version counter that
invalidates these caches.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.swim.probe_scheduler import ProbeScheduler, RoundRobinScheduler
from repro.swim.state import MemberState, claim_supersedes

#: Saturation bound for the age field carried in push-pull state entries
#: (u32 milliseconds on the wire, ~49 days).
MAX_STATE_AGE_MS = 0xFFFFFFFF

#: Member state -> wire value, bypassing the IntEnum __int__ slow path on
#: the snapshot hot loop.
_STATE_WIRE = {state: int(state) for state in MemberState}
#: Wire value -> member state (the reverse map, for the wire-merge path).
_STATE_FROM_WIRE = {int(state): state for state in MemberState}

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
    """One peer's view of one group member."""

    __slots__ = (
        "name",
        "address",
        "incarnation",
        "state",
        "state_changed_at",
        "meta",
        "zone",
    )

    def __init__(
        self,
        name: str,
        address: str,
        incarnation: int,
        state: MemberState,
        state_changed_at: float,
        meta: bytes = b"",
        zone: str = "",
    ) -> None:
        self.name = name
        self.address = address
        self.incarnation = incarnation
        self.state = state
        #: Timestamp of the last state transition (for dead-member
        #: reclamation and gossip-to-the-dead windows).
        self.state_changed_at = state_changed_at
        #: Application metadata carried in the member's alive claims
        #: (roles, tags — Consul/Serf style).
        self.meta = meta
        #: Zone tag in hierarchical deployments (:mod:`repro.zones`);
        #: ``""`` in flat clusters.
        self.zone = zone

    @property
    def is_alive(self) -> bool:
        return self.state is MemberState.ALIVE

    @property
    def is_suspect(self) -> bool:
        return self.state is MemberState.SUSPECT

    @property
    def is_dead(self) -> bool:
        return self.state in (MemberState.DEAD, MemberState.LEFT)

    def snapshot(self, now: float = 0.0) -> Tuple[str, str, int, int, bytes, int]:
        """State entry for a push-pull sync.

        The final element is the age of the current state in integer
        milliseconds (how long ago the last transition happened, relative
        to ``now``). Ages travel instead of absolute timestamps so peers
        with unrelated clocks can still backdate terminal states into
        their own retention windows.
        """
        age_ms = int(max(0.0, now - self.state_changed_at) * 1000.0)
        return (
            self.name,
            self.address,
            self.incarnation,
            int(self.state),
            self.meta,
            min(age_ms, MAX_STATE_AGE_MS),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Member({self.name!r}, inc={self.incarnation}, "
            f"state={self.state.name})"
        )


class MemberMap:
    """Membership table for one local member.

    The local member itself is stored in the table (always ALIVE from its
    own point of view) so push-pull snapshots and group-size computations
    are uniform.
    """

    def __init__(
        self,
        local_name: str,
        local_address: str,
        rng: random.Random,
        probe_scheduler: Optional[ProbeScheduler] = None,
        zone: str = "",
    ) -> None:
        self._local_name = local_name
        self._rng = rng
        self._members: Dict[str, Member] = {}
        self._scheduler = probe_scheduler or RoundRobinScheduler()
        self._scheduler.bind(self, rng)
        self._members[local_name] = Member(
            local_name, local_address, 1, MemberState.ALIVE, 0.0, zone=zone
        )
        # Maintained incrementally: suspicion-timeout scaling consults the
        # alive count on every new suspicion, gossip candidate selection
        # needs the dead count, and neither may cost O(n).
        self._state_counts: Dict[MemberState, int] = {
            MemberState.ALIVE: 1,
            MemberState.SUSPECT: 0,
            MemberState.DEAD: 0,
            MemberState.LEFT: 0,
        }
        # Bumped on every mutation that could change a snapshot or the
        # candidate index; guards the caches below.
        self._version = 0
        # Non-local ALIVE/SUSPECT members in table-insertion order, or
        # None when stale. Backs alive_members/random_members.
        self._actives: Optional[List[Member]] = None
        self._snapshot_cache: Optional[
            Tuple[Tuple[str, str, int, int, bytes, int], ...]
        ] = None
        self._snapshot_version = -1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def local_name(self) -> str:
        return self._local_name

    @property
    def local(self) -> Member:
        return self._members[self._local_name]

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def __len__(self) -> int:
        """Known group size, including the local member and dead members
        still retained (this is ``n`` for gossip/suspicion scaling)."""
        return len(self._members)

    def get(self, name: str) -> Optional[Member]:
        return self._members.get(name)

    def members(self) -> Iterator[Member]:
        return iter(self._members.values())

    def names(self) -> List[str]:
        return list(self._members.keys())

    def num_alive(self) -> int:
        return self._state_counts[MemberState.ALIVE]

    def num_in_state(self, state: MemberState) -> int:
        return self._state_counts[state]

    def _num_dead(self) -> int:
        counts = self._state_counts
        return counts[MemberState.DEAD] + counts[MemberState.LEFT]

    def _active_index(self) -> List[Member]:
        """Non-local ALIVE/SUSPECT members, in table-insertion order.

        Lazily rebuilt after membership or state changes. Order matters:
        callers feed slices of this into ``rng.sample``, so it must match
        what a fresh scan of ``self._members.values()`` would produce.
        """
        actives = self._actives
        if actives is None:
            local_name = self._local_name
            actives = self._actives = [
                m
                for m in self._members.values()
                if m.name != local_name
                and (m.state is MemberState.ALIVE or m.state is MemberState.SUSPECT)
            ]
        return actives

    def alive_members(self, include_local: bool = False) -> List[Member]:
        result = [m for m in self._active_index() if m.state is MemberState.ALIVE]
        local = self.local
        if include_local and local.is_alive:
            # The local member is inserted first and never removed, so a
            # full scan would have yielded it at position 0.
            result.insert(0, local)
        return result

    def snapshot(
        self, now: float = 0.0
    ) -> Tuple[Tuple[str, str, int, int, bytes, int], ...]:
        """Full state for a push-pull sync.

        Cached under the table version while no dead members are
        retained: receivers only consume the age field of DEAD/LEFT
        entries (to backdate retention windows), so re-serving stale ages
        on ALIVE/SUSPECT entries changes neither behavior nor wire size
        (ages are fixed-width u32). With dead members present, ages are
        live data and the snapshot is rebuilt per call.
        """
        if self._num_dead() == 0:
            if (
                self._snapshot_cache is not None
                and self._snapshot_version == self._version
            ):
                return self._snapshot_cache
            snap = self._build_snapshot(now)
            self._snapshot_cache = snap
            self._snapshot_version = self._version
            return snap
        return self._build_snapshot(now)

    def _build_snapshot(
        self, now: float
    ) -> Tuple[Tuple[str, str, int, int, bytes, int], ...]:
        # Inlined Member.snapshot: entry construction dominates sync-heavy
        # profiles, and the method-call + IntEnum.__int__ overhead per
        # member is measurable at n=4096.
        wire = _STATE_WIRE
        max_age = MAX_STATE_AGE_MS
        return tuple(
            (
                m.name,
                m.address,
                m.incarnation,
                wire[m.state],
                m.meta,
                min(int((now - m.state_changed_at) * 1000.0), max_age)
                if now > m.state_changed_at
                else 0,
            )
            for m in self._members.values()
        )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(
        self,
        name: str,
        address: str,
        incarnation: int,
        state: MemberState,
        now: float,
        meta: bytes = b"",
        zone: str = "",
    ) -> Member:
        """Insert a newly learned member.

        New members enter the probe list at a random position, per SWIM's
        round-robin refinement.
        """
        if name in self._members:
            raise ValueError(f"member {name!r} already known")
        member = Member(name, address, incarnation, state, now, meta, zone)
        self._members[name] = member
        self._state_counts[state] += 1
        self._version += 1
        self._actives = None
        if name != self._local_name:
            self._scheduler.on_members_added((name,))
        return member

    def add_many(
        self,
        roster: Iterable[Tuple[str, str, bytes, str]],
        incarnation: int,
        state: MemberState,
        now: float,
    ) -> None:
        """Insert a whole roster in one pass (preseed bootstrap).

        ``roster`` yields ``(name, address, meta, zone)``; one roster is
        shared by every map of a cluster, so the entry naming this map's
        own local member is skipped. Equivalent to calling :meth:`add`
        per entry in roster order — same table order, same probe-order
        draws — except that an already-known or repeated name raises
        before anything is inserted.
        """
        members = self._members
        local_name = self._local_name
        fresh: Dict[str, Member] = {}
        for name, address, meta, zone in roster:
            if name == local_name:
                continue
            if name in members or name in fresh:
                raise ValueError(f"member {name!r} already known")
            fresh[name] = Member(name, address, incarnation, state, now, meta, zone)
        members.update(fresh)
        self._state_counts[state] += len(fresh)
        self._version += 1
        self._actives = None
        self._scheduler.on_members_added(fresh)

    def apply_claim(
        self, name: str, state: MemberState, incarnation: int, now: float
    ) -> bool:
        """Apply a remote claim if it supersedes local knowledge.

        Returns ``True`` when the member's state or incarnation changed.
        Unknown members are not created here (the caller decides, since an
        ``alive`` about an unknown member needs an address).
        """
        member = self._members.get(name)
        if member is None:
            raise KeyError(name)
        if not claim_supersedes(state, incarnation, member.state, member.incarnation):
            return False
        changed = member.state is not state or member.incarnation != incarnation
        if member.state is not state:
            member.state_changed_at = now
            self._state_counts[member.state] -= 1
            self._state_counts[state] += 1
            self._actives = None
        member.state = state
        member.incarnation = incarnation
        if changed:
            self._version += 1
        return changed

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
        member = self._members.get(name)
        if member is None:
            if state is MemberState.ALIVE and address is not None:
                self.add(name, address, incarnation, state, now, meta or b"", zone)
                return MergeDecision(name, state, incarnation, MERGE_ADDED)
            return MergeDecision(name, state, incarnation, MERGE_IGNORED)
        previous = member.state
        if not claim_supersedes(state, incarnation, member.state, member.incarnation):
            return MergeDecision(name, state, incarnation, MERGE_IGNORED, previous)
        self.apply_claim(name, state, incarnation, now)
        meta_changed = False
        if state is MemberState.ALIVE:
            if address is not None and member.address != address:
                member.address = address
                self._version += 1
            if meta is not None and member.meta != meta:
                meta_changed = True
                member.meta = meta
                self._version += 1
            if zone and member.zone != zone:
                member.zone = zone
                self._version += 1
        elif member.is_dead and age > 0.0:
            member.state_changed_at = min(member.state_changed_at, now - age)
        return MergeDecision(
            name, state, incarnation, MERGE_APPLIED, previous, meta_changed
        )

    def merge_remote_state(
        self,
        entries: Iterable[Tuple[str, str, int, MemberState, float, bytes]],
        now: float,
    ) -> List[MergeDecision]:
        """Merge a full remote state snapshot (anti-entropy push-pull).

        ``entries`` is an iterable of ``(name, address, incarnation,
        state, age_seconds, meta)`` as yielded by
        :meth:`repro.swim.messages.PushPull.iter_entries`. ALIVE, DEAD and
        LEFT claims are applied directly through :meth:`merge_claim`;
        SUSPECT claims are returned as ``MERGE_SUSPECT`` decisions (after
        inserting unknown members as ALIVE at the claimed incarnation) so
        the caller can route them through the exact suspicion machinery
        gossip uses — timers, confirmations and all.
        """
        decisions: List[MergeDecision] = []
        append = decisions.append
        members = self._members
        local_name = self._local_name
        alive = MemberState.ALIVE
        suspect = MemberState.SUSPECT
        for name, address, incarnation, state, age, meta in entries:
            if name != local_name:
                member = members.get(name)
                # Fast path for the overwhelmingly common steady-state
                # entry: an ALIVE claim about a known member at an
                # incarnation we already have. For ALIVE claims the full
                # precedence rules reduce to "supersedes iff strictly
                # newer incarnation", so this is exactly merge_claim's
                # MERGE_IGNORED outcome without the call chain.
                if (
                    state is alive
                    and member is not None
                    and incarnation <= member.incarnation
                ):
                    append(
                        MergeDecision(
                            name, state, incarnation, MERGE_IGNORED, member.state
                        )
                    )
                    continue
                if state is suspect:
                    if member is None:
                        self.add(name, address, incarnation, alive, now, meta)
                        append(MergeDecision(name, state, incarnation, MERGE_SUSPECT))
                    else:
                        append(
                            MergeDecision(
                                name, state, incarnation, MERGE_SUSPECT, member.state
                            )
                        )
                    continue
            append(
                self.merge_claim(
                    name,
                    state,
                    incarnation,
                    now,
                    address=address,
                    meta=meta,
                    age=age,
                )
            )
        return decisions

    def merge_remote_wire_state(
        self,
        states: Iterable[tuple],
        now: float,
    ) -> Tuple[List[MergeDecision], int]:
        """Merge raw push-pull wire entries; the sync-engine hot path.

        Semantically :meth:`merge_remote_state` applied to
        ``PushPull.iter_entries()``, with two allocations fused away per
        entry: the wire tuple is consumed directly (no intermediate
        rich-entry tuple, no ``age_ms -> seconds`` conversion unless the
        claim actually reaches :meth:`merge_claim`), and ``MERGE_IGNORED``
        outcomes — the overwhelming steady-state majority, and a
        guaranteed no-op for every caller — produce no decision object at
        all. Returns ``(decisions, total_entries)`` where ``decisions``
        holds only the non-ignored outcomes.
        """
        decisions: List[MergeDecision] = []
        append = decisions.append
        members = self._members
        local_name = self._local_name
        alive = MemberState.ALIVE
        suspect = MemberState.SUSPECT
        from_wire = _STATE_FROM_WIRE
        total = 0
        for entry in states:
            total += 1
            try:
                name, address, incarnation, state_value, meta, age_ms = entry
            except ValueError:
                # Hand-built short entries (meta/age optional).
                name, address, incarnation, state_value = entry[:4]
                meta = entry[4] if len(entry) > 4 else b""
                age_ms = entry[5] if len(entry) > 5 else 0
            state = from_wire.get(state_value)
            if state is None:
                # Same ValueError iter_entries would have raised.
                state = MemberState(state_value)
            if name != local_name:
                member = members.get(name)
                if (
                    state is alive
                    and member is not None
                    and incarnation <= member.incarnation
                ):
                    continue
                if state is suspect:
                    if member is None:
                        self.add(name, address, incarnation, alive, now, meta)
                        append(MergeDecision(name, state, incarnation, MERGE_SUSPECT))
                    else:
                        append(
                            MergeDecision(
                                name, state, incarnation, MERGE_SUSPECT, member.state
                            )
                        )
                    continue
            decision = self.merge_claim(
                name,
                state,
                incarnation,
                now,
                address=address,
                meta=meta,
                age=age_ms / 1000.0,
            )
            if decision.action != MERGE_IGNORED:
                append(decision)
        return decisions, total

    def bump_local_incarnation(self, at_least: int) -> int:
        """Refutation: raise the local incarnation above ``at_least``."""
        local = self.local
        local.incarnation = max(local.incarnation, at_least) + 1
        self._version += 1
        return local.incarnation

    def set_local_meta(self, meta: bytes) -> None:
        """Update the local member's application metadata.

        The owning node must route metadata writes through here (not
        mutate ``local.meta`` directly) so the snapshot cache notices.
        """
        self.local.meta = meta
        self._version += 1

    def reclaim_dead(self, now: float, retention: float) -> List[str]:
        """Remove dead/left members whose retention window has expired.

        Returns the reclaimed names. Retention exists so anti-entropy can
        still convey their state for a while (Section III-B). Runs every
        probe tick, so the nobody-is-dead case must be O(1).
        """
        if self._num_dead() == 0:
            return []
        expired = [
            m.name
            for m in self._members.values()
            if m.is_dead and now - m.state_changed_at >= retention
        ]
        if not expired:
            return expired
        for name in expired:
            member = self._members.pop(name)
            self._state_counts[member.state] -= 1
        self._version += 1
        self._actives = None
        self._scheduler.on_members_removed(expired)
        return expired

    # ------------------------------------------------------------------ #
    # Probe scheduling
    # ------------------------------------------------------------------ #

    @property
    def probe_scheduler(self) -> ProbeScheduler:
        return self._scheduler

    def num_probeable(self) -> int:
        """Non-local ALIVE/SUSPECT members — the probe candidate count."""
        counts = self._state_counts
        total = counts[MemberState.ALIVE] + counts[MemberState.SUSPECT]
        local_state = self.local.state
        if local_state is MemberState.ALIVE or local_state is MemberState.SUSPECT:
            total -= 1
        return total

    def probeable_members(self) -> List[Member]:
        """Non-local ALIVE/SUSPECT members, in table-insertion order."""
        return list(self._active_index())

    def next_probe_target(self, now: float = 0.0) -> Optional[Member]:
        """Next member to probe, per the configured scheduling strategy.

        Skips dead and left members (suspect members *are* probed, which
        is how a suspicion can be refuted by the prober). Returns ``None``
        when there is nobody probeable.
        """
        member = self._scheduler.next_target(now)
        if member is not None:
            self._scheduler.selections += 1
        return member

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
        if gossip_to_dead_within is not None and self._num_dead() > 0:
            # Slow path: recently-dead members are candidates, and their
            # eligibility depends on `now`, so scan the full table.
            excluded = set(exclude)
            excluded.add(self._local_name)
            candidates = []
            for member in self._members.values():
                if member.name in excluded:
                    continue
                if member.is_alive:
                    candidates.append(member)
                elif member.is_suspect and include_suspect:
                    candidates.append(member)
                elif (
                    member.is_dead
                    and now - member.state_changed_at <= gossip_to_dead_within
                ):
                    candidates.append(member)
        else:
            actives = self._active_index()
            alive = MemberState.ALIVE
            if exclude:
                excluded = set(exclude)
                if include_suspect:
                    candidates = [m for m in actives if m.name not in excluded]
                else:
                    candidates = [
                        m
                        for m in actives
                        if m.state is alive and m.name not in excluded
                    ]
            elif include_suspect:
                candidates = list(actives)
            else:
                candidates = [m for m in actives if m.state is alive]
        if count >= len(candidates):
            return candidates
        return self._rng.sample(candidates, count)
