"""Property tests: optimized structures match their naive references.

The scale optimizations replaced full scans and full sorts with
incrementally-maintained structures (transmit-count buckets in
:class:`~repro.swim.broadcast.BroadcastQueue`, per-state counts, the
alive-member index and the cached snapshot in
:class:`~repro.swim.member_map.MemberMap`). Each test here drives the
optimized structure and a deliberately naive model through the same
randomly generated operation sequence and asserts they never diverge —
the naive models restate the *pre-optimization* semantics (sort
everything per call, rescan the table per query), which is exactly the
contract the optimized paths must preserve.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.swim import codec
from repro.swim.broadcast import BroadcastQueue, retransmit_limit
from repro.swim.member_map import Member, MemberMap
from repro.swim.messages import Alive
from repro.swim.state import MemberState

# --------------------------------------------------------------------- #
# BroadcastQueue vs full-sort reference
# --------------------------------------------------------------------- #

_SUBJECTS = ["m0", "m1", "node-long-name-2", "m3", "x4", "member-5", "m6", "m7"]


class _NaiveEntry:
    def __init__(self, payload: bytes, seq: int) -> None:
        self.payload = payload
        self.transmits = 0
        self.seq = seq


class _NaiveBroadcastQueue:
    """The pre-bucket semantics: sort every live entry per selection."""

    def __init__(self, mult: int, n_members: int) -> None:
        self._mult = mult
        self._n_members = n_members
        self._entries: Dict[str, _NaiveEntry] = {}
        self._seq = 0

    def enqueue(self, subject: str, payload: bytes) -> None:
        self._seq += 1
        self._entries[subject] = _NaiveEntry(payload, self._seq)

    def invalidate(self, subject: str) -> None:
        self._entries.pop(subject, None)

    def get_payloads(self, budget: int, overhead: int) -> List[bytes]:
        if not self._entries:
            return []
        limit = retransmit_limit(self._mult, self._n_members)
        remaining = budget
        if remaining <= overhead:
            return []
        selected: List[bytes] = []
        order = sorted(
            self._entries.items(),
            key=lambda kv: (kv[1].transmits, -kv[1].seq),
        )
        for subject, entry in order:
            cost = len(entry.payload) + overhead
            if cost > remaining:
                continue
            remaining -= cost
            selected.append(entry.payload)
            entry.transmits += 1
            if entry.transmits >= limit:
                del self._entries[subject]
            if remaining <= overhead:
                break
        return selected

    def state(self) -> Dict[str, int]:
        return {s: e.transmits for s, e in self._entries.items()}


_broadcast_op = st.one_of(
    st.tuples(
        st.just("enqueue"),
        st.integers(0, len(_SUBJECTS) - 1),
        st.integers(0, 40),
    ),
    st.tuples(st.just("invalidate"), st.integers(0, len(_SUBJECTS) - 1)),
    st.tuples(
        st.just("get"), st.integers(0, 400), st.integers(0, 8)
    ),
    st.tuples(st.just("rebuild")),
)


@settings(deadline=None, max_examples=150)
@given(
    ops=st.lists(_broadcast_op, max_size=120),
    mult=st.integers(1, 3),
    n_members=st.integers(1, 2000),
)
def test_bucketed_broadcast_queue_matches_full_sort(ops, mult, n_members):
    queue = BroadcastQueue(mult, lambda: n_members)
    naive = _NaiveBroadcastQueue(mult, n_members)
    for op in ops:
        if op[0] == "enqueue":
            _, subject_index, incarnation = op
            subject = _SUBJECTS[subject_index]
            message = Alive(incarnation, subject, f"{subject}:7946")
            queue.enqueue(message)
            naive.enqueue(subject, codec.encode(message))
        elif op[0] == "invalidate":
            queue.invalidate(_SUBJECTS[op[1]])
            naive.invalidate(_SUBJECTS[op[1]])
        elif op[0] == "get":
            _, budget, overhead = op
            assert queue.get_payloads(budget, overhead) == naive.get_payloads(
                budget, overhead
            )
        else:  # force the lazy-compaction path regardless of thresholds
            queue._rebuild_buckets()
        assert {
            subject: transmits for subject, transmits, _ in queue.entries()
        } == naive.state()
        assert len(queue) == len(naive.state())


# --------------------------------------------------------------------- #
# MemberMap indexes/caches vs full-scan reference
# --------------------------------------------------------------------- #

_NAMES = ["n0", "n1", "n2", "n3", "n4", "n5"]
_LOCAL = "local"
_STATES = [
    MemberState.ALIVE,
    MemberState.SUSPECT,
    MemberState.DEAD,
    MemberState.LEFT,
]


def _naive_alive_members(mm: MemberMap, include_local: bool) -> List[str]:
    return [
        m.name
        for m in mm.members()
        if m.is_alive and (include_local or m.name != _LOCAL)
    ]


def _naive_counts(mm: MemberMap) -> Dict[MemberState, int]:
    counts = {state: 0 for state in _STATES}
    for m in mm.members():
        counts[m.state] += 1
    return counts


def _naive_candidates(
    mm: MemberMap,
    exclude: Tuple[str, ...],
    include_suspect: bool,
    gossip_to_dead_within: Optional[float],
    now: float,
) -> List[Member]:
    excluded = set(exclude)
    excluded.add(_LOCAL)
    out = []
    for member in mm.members():
        if member.name in excluded:
            continue
        if member.is_alive:
            out.append(member)
        elif member.is_suspect and include_suspect:
            out.append(member)
        elif (
            gossip_to_dead_within is not None
            and member.is_dead
            and now - member.state_changed_at <= gossip_to_dead_within
        ):
            out.append(member)
    return out


_member_op = st.one_of(
    st.tuples(
        st.just("merge"),
        st.integers(0, len(_NAMES) - 1),
        st.integers(0, len(_STATES) - 1),
        st.integers(0, 5),
        st.floats(0.0, 30.0),
    ),
    st.tuples(st.just("bump")),
    st.tuples(st.just("reclaim"), st.floats(0.0, 50.0)),
    st.tuples(st.just("meta"), st.binary(max_size=8)),
    st.tuples(
        st.just("sample"),
        st.integers(0, 7),
        st.integers(0, len(_NAMES)),
        st.booleans(),
        st.one_of(st.none(), st.floats(0.0, 60.0)),
    ),
)


@settings(deadline=None, max_examples=150)
@given(ops=st.lists(_member_op, max_size=80), seed=st.integers(0, 2**16))
def test_indexed_member_map_matches_full_scan(ops, seed):
    rng = random.Random(seed)
    mm = MemberMap(_LOCAL, f"{_LOCAL}:7946", rng)
    now = 0.0
    for op in ops:
        now += 1.0
        if op[0] == "merge":
            _, name_index, state_index, incarnation, age = op
            name = _NAMES[name_index]
            mm.merge_claim(
                name,
                _STATES[state_index],
                incarnation,
                now,
                address=f"{name}:7946",
                age=age,
            )
        elif op[0] == "bump":
            mm.bump_local_incarnation(mm.local.incarnation)
        elif op[0] == "reclaim":
            mm.reclaim_dead(now, op[1])
        elif op[0] == "meta":
            mm.set_local_meta(op[1])
        else:
            _, count, exclude_len, include_suspect, dead_within = op
            exclude = tuple(_NAMES[:exclude_len])
            expected_candidates = _naive_candidates(
                mm, exclude, include_suspect, dead_within, now
            )
            # Clone the RNG state so the reference consumes the exact
            # random draw the optimized path is about to make.
            state = rng.getstate()
            reference = random.Random()
            reference.setstate(state)
            if count >= len(expected_candidates):
                expected = expected_candidates
            else:
                expected = reference.sample(expected_candidates, count)
            actual = mm.random_members(
                count,
                exclude=exclude,
                include_suspect=include_suspect,
                gossip_to_dead_within=dead_within,
                now=now,
            )
            assert [m.name for m in actual] == [m.name for m in expected]

        # Incremental counts and the active index vs a fresh table scan.
        counts = _naive_counts(mm)
        assert mm.num_alive() == counts[MemberState.ALIVE]
        for state in _STATES:
            assert mm.num_in_state(state) == counts[state]
        for include_local in (False, True):
            assert [
                m.name for m in mm.alive_members(include_local=include_local)
            ] == _naive_alive_members(mm, include_local)

        # Snapshot vs per-member reference. Ages on ALIVE/SUSPECT entries
        # may be served stale from the cache by design (receivers only
        # consume ages of DEAD/LEFT entries), so the age column is only
        # pinned for terminal states.
        snap = {entry[0]: entry for entry in mm.snapshot(now)}
        assert set(snap) == {m.name for m in mm.members()}
        for member in mm.members():
            reference_entry = member.snapshot(now)
            entry = snap[member.name]
            assert entry[:5] == reference_entry[:5]
            if member.is_dead:
                assert entry[5] == reference_entry[5]


# --------------------------------------------------------------------- #
# Round-robin probe schedule vs intent-level reference
# --------------------------------------------------------------------- #

_POOL = [f"p{i}" for i in range(12)]


class _NaiveRoundRobin:
    """Intent-level restatement of the round-robin probe schedule.

    The production scheduler maintains its index incrementally across
    member removals (``index - removed_before``); this model instead
    restates the *intent* — after a reap, the schedule still points at
    the same upcoming member — by rebuilding the order list and locating
    the surviving suffix. Interleaving ``reap``-style reclaims with
    selections against this model is what pins the index bookkeeping.
    """

    def __init__(self) -> None:
        self.order: List[str] = []
        self.index = 0
        self.last: Optional[str] = None

    def add(self, rng: random.Random, name: str) -> None:
        offset = rng.randint(0, len(self.order))
        self.order.insert(offset, name)
        if offset < self.index:
            self.index += 1

    def reclaim(self, removed: List[str]) -> None:
        gone = set(removed)
        # The members not yet visited this round, minus the reclaimed:
        # whatever survives must still be exactly what the schedule
        # yields next (fairness: nobody's turn is skipped or doubled).
        upcoming = [n for n in self.order[self.index :] if n not in gone]
        self.order = [n for n in self.order if n not in gone]
        self.index = len(self.order) - len(upcoming)

    def next(self, rng: random.Random, mm: MemberMap) -> Optional[str]:
        checked = 0
        total = len(self.order)
        deferred: Optional[str] = None
        while checked < total:
            if self.index >= len(self.order):
                self.index = 0
                rng.shuffle(self.order)
            name = self.order[self.index]
            self.index += 1
            checked += 1
            member = mm.get(name)
            if member is None or member.is_dead or name == mm.local_name:
                continue
            if name == self.last and mm.num_probeable() >= 2:
                deferred = name
                continue
            self.last = name
            return name
        if deferred is not None:
            for name in self.order:
                member = mm.get(name)
                if member is None or member.is_dead:
                    continue
                if name == self.last or name == mm.local_name:
                    continue
                self.last = name
                return name
        return deferred


_probe_op = st.one_of(
    st.tuples(st.just("add"), st.integers(0, len(_POOL) - 1)),
    st.tuples(st.just("kill"), st.integers(0, len(_POOL) - 1)),
    st.tuples(st.just("reclaim"), st.floats(0.0, 30.0)),
    st.tuples(st.just("probe")),
)


@settings(deadline=None, max_examples=150)
@given(ops=st.lists(_probe_op, max_size=100), seed=st.integers(0, 2**16))
def test_round_robin_schedule_matches_reference(ops, seed):
    rng = random.Random(seed)
    mm = MemberMap(_LOCAL, f"{_LOCAL}:7946", rng)
    ref = _NaiveRoundRobin()
    now = 0.0
    for op in ops:
        now += 1.0
        # Clone the RNG so the reference consumes the exact draws the
        # production scheduler is about to make.
        reference_rng = random.Random()
        reference_rng.setstate(rng.getstate())
        if op[0] == "add":
            name = _POOL[op[1]]
            if name in mm:
                continue
            mm.add(name, f"{name}:7946", 1, MemberState.ALIVE, now)
            ref.add(reference_rng, name)
        elif op[0] == "kill":
            name = _POOL[op[1]]
            member = mm.get(name)
            if member is None or member.is_dead:
                continue
            mm.apply_claim(name, MemberState.DEAD, member.incarnation, now)
        elif op[0] == "reclaim":
            ref.reclaim(mm.reclaim_dead(now, op[1]))
        else:
            actual = mm.next_probe_target(now)
            expected = ref.next(reference_rng, mm)
            assert (actual.name if actual is not None else None) == expected

        # Exact schedule-state equivalence after every operation: any
        # index drift shows up here long before it skews a selection.
        scheduler = mm.probe_scheduler
        assert scheduler._order == ref.order
        assert scheduler._index == ref.index


# --------------------------------------------------------------------- #
# Bulk insertion vs one insert per name
# --------------------------------------------------------------------- #


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32),
    # Batches large enough to cross the 2**k list sizes where the
    # rejection loop changes its bit width (.., 128, 256).
    batches=st.lists(
        st.tuples(
            st.integers(0, 140),  # names inserted in one call
            st.integers(0, 9),  # probes after it (moves the index mid-round)
            st.integers(0, 6),  # members then killed and reclaimed
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_bulk_insert_draws_match_per_name_reference(seed, batches):
    """``on_members_added`` must consume the RNG exactly as one
    ``rng.randint`` + ``list.insert`` per name would: same probe order,
    same index, same generator state — for any batch split, with probes
    and removals in between so inserts land mid-round."""
    rng = random.Random(seed)
    reference_rng = random.Random(seed)
    mm = MemberMap(_LOCAL, f"{_LOCAL}:7946", rng)
    scheduler = mm.probe_scheduler
    ref = _NaiveRoundRobin()
    inserted = 0
    now = 0.0
    for size, probes, kills in batches:
        now += 1.0
        names = [f"b{inserted + i:04d}" for i in range(size)]
        inserted += size
        mm.add_many([(n, n, b"", "") for n in names], 1, MemberState.ALIVE, now)
        for name in names:
            ref.add(reference_rng, name)
        assert scheduler._order == ref.order
        assert scheduler._index == ref.index
        assert rng.getstate() == reference_rng.getstate()

        for _ in range(probes):
            actual = mm.next_probe_target(now)
            expected = ref.next(reference_rng, mm)
            assert (actual.name if actual is not None else None) == expected
        victims = [m.name for m in mm.alive_members()][:kills]
        for name in victims:
            mm.apply_claim(name, MemberState.DEAD, 1, now)
        ref.reclaim(mm.reclaim_dead(now + 1.0, 0.0))
        assert scheduler._order == ref.order
        assert scheduler._index == ref.index
        assert rng.getstate() == reference_rng.getstate()


_roster_entry = st.tuples(
    st.integers(0, 40), st.binary(max_size=4), st.sampled_from(["", "z000", "z001"])
)


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**16),
    entries=st.lists(_roster_entry, max_size=40, unique_by=lambda e: e[0]),
    cuts=st.lists(st.integers(0, 40), max_size=4),
    state=st.sampled_from([MemberState.ALIVE, MemberState.SUSPECT, MemberState.DEAD]),
    sample=st.integers(0, 8),
)
def test_add_many_matches_sequence_of_adds(seed, entries, cuts, state, sample):
    """``add_many`` over any batch split ≡ ``add`` per entry in roster
    order; the roster may name the local member, which is skipped."""
    # Index 0 is the local member itself.
    roster = [
        (_LOCAL if i == 0 else f"r{i:02d}", f"addr{i}", meta, zone)
        for i, meta, zone in entries
    ]
    one_by_one = MemberMap(_LOCAL, f"{_LOCAL}:7946", random.Random(seed))
    bulk = MemberMap(_LOCAL, f"{_LOCAL}:7946", random.Random(seed))
    for name, address, meta, zone in roster:
        if name != _LOCAL:
            one_by_one.add(name, address, 3, state, 2.0, meta, zone)
    bounds = [0] + sorted(min(c, len(roster)) for c in cuts) + [len(roster)]
    for start, end in zip(bounds, bounds[1:]):
        bulk.add_many(roster[start:end], 3, state, 2.0)

    assert bulk.names() == one_by_one.names()
    assert bulk._state_counts == one_by_one._state_counts
    assert len(bulk) == len(one_by_one)
    assert bulk.num_probeable() == one_by_one.num_probeable()
    assert bulk.snapshot(5.0) == one_by_one.snapshot(5.0)
    assert [m.zone for m in bulk.members()] == [m.zone for m in one_by_one.members()]
    assert [m.name for m in bulk.alive_members(True)] == [
        m.name for m in one_by_one.alive_members(True)
    ]
    assert bulk.probe_scheduler._order == one_by_one.probe_scheduler._order
    assert bulk.probe_scheduler._index == one_by_one.probe_scheduler._index
    # Same RNG state going in, same candidate order: identical draws.
    assert [m.name for m in bulk.random_members(sample)] == [
        m.name for m in one_by_one.random_members(sample)
    ]
    target = bulk.next_probe_target(5.0)
    expected = one_by_one.next_probe_target(5.0)
    assert (target and target.name) == (expected and expected.name)
