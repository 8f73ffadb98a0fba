"""Property tests: optimized structures match their naive references.

The scale optimizations replaced full scans and full sorts with
incrementally-maintained structures (transmit-count buckets in
:class:`~repro.swim.broadcast.BroadcastQueue`, per-state counts, the
alive-member index and the shared-roster column storage in
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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.swim import codec
from repro.swim.broadcast import BroadcastQueue, retransmit_limit
from repro.swim.member_map import (
    MAX_STATE_AGE_MS,
    MERGE_ADDED,
    MERGE_APPLIED,
    MERGE_IGNORED,
    MERGE_LOCAL,
    MERGE_SUSPECT,
    Member,
    MemberMap,
    Roster,
)
from repro.swim.messages import Alive, PushPull
from repro.swim.state import MemberState, claim_supersedes

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

    def __init__(self, mult: int, n_members_fn) -> None:
        self._mult = mult
        self._n_members_fn = n_members_fn
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
        limit = retransmit_limit(self._mult, self._n_members_fn())
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


#: Group sizes on both sides of every ``ceil(log10(n + 1))`` step up to 4.
_GROUP_SIZES = [1, 9, 10, 99, 100, 999, 1000, 2000]

_broadcast_op = st.one_of(
    st.tuples(
        st.just("enqueue"),
        st.integers(0, len(_SUBJECTS) - 1),
        st.integers(0, 40),
    ),
    st.tuples(st.just("invalidate"), st.integers(0, len(_SUBJECTS) - 1)),
    # An Alive about one of _SUBJECTS encodes to 22-50 bytes, so budgets
    # up to 400 run from "nothing fits" through "a bucket is split" (the
    # common case with several entries queued) to "everything fits".
    st.tuples(
        st.just("get"), st.integers(0, 400), st.integers(0, 8)
    ),
    st.tuples(st.just("resize"), st.sampled_from(_GROUP_SIZES)),
)


def _assert_buckets_exact(queue: BroadcastQueue) -> None:
    """Every bucket item is its subject's live entry, sits in the bucket
    of its transmit count, newest first; nothing live is missing."""
    bucketed = 0
    for transmits, bucket in queue._buckets.items():
        assert bucket, "empty bucket kept"
        assert bucket == sorted(bucket, key=lambda item: item[0])
        for neg_seq, entry in bucket:
            assert queue._queue[entry.subject] is entry
            assert entry.transmits == transmits
            assert entry.enqueued_seq == -neg_seq
        bucketed += len(bucket)
    assert bucketed == len(queue)


@settings(deadline=None, max_examples=150)
@given(
    ops=st.lists(_broadcast_op, max_size=120),
    mult=st.integers(1, 3),
    n_members=st.sampled_from(_GROUP_SIZES),
)
def test_bucketed_broadcast_queue_matches_full_sort(ops, mult, n_members):
    _drive_broadcast_queue(ops, mult, n_members)


@pytest.mark.parametrize("seed", range(5))
def test_bucketed_broadcast_queue_matches_full_sort_over_a_long_walk(seed):
    """Hypothesis keeps its op lists short, so a queue seldom grows past
    one bucket there. A long seeded walk keeps several buckets populated
    and mostly asks for less than they hold: buckets split, promoted
    runs merge into buckets that kept something, and the limit moves
    under entries already part-way through their transmissions."""
    draw = random.Random(seed)
    ops = []
    for _ in range(3000):
        kind = draw.choice(["enqueue"] * 4 + ["get"] * 4 + ["invalidate", "resize"])
        if kind == "enqueue":
            ops.append((kind, draw.randrange(len(_SUBJECTS)), draw.randint(0, 40)))
        elif kind == "get":
            budget = draw.choice([0, 20, 60, 60, 100, 100, 150, 400])
            ops.append((kind, budget, draw.randint(0, 8)))
        elif kind == "invalidate":
            ops.append((kind, draw.randrange(len(_SUBJECTS))))
        else:
            ops.append((kind, draw.choice(_GROUP_SIZES)))
    _drive_broadcast_queue(ops, draw.randint(1, 3), draw.choice(_GROUP_SIZES))


def _drive_broadcast_queue(ops, mult, n_members):
    group = [n_members]
    queue = BroadcastQueue(mult, lambda: group[0])
    naive = _NaiveBroadcastQueue(mult, lambda: group[0])
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
        else:  # the group grew or shrank: the limit must follow
            group[0] = op[1]
            assert queue.current_limit() == retransmit_limit(mult, op[1])
        assert {
            subject: transmits for subject, transmits, _ in queue.entries()
        } == naive.state()
        assert list(queue.entries()) == [
            (subject, entry.transmits, len(entry.payload))
            for subject, entry in naive._entries.items()
        ]
        assert len(queue) == len(naive.state())
        _assert_buckets_exact(queue)


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
    # Suspicion raised, then refuted: the flips that leave the set of
    # ALIVE-or-SUSPECT members — the active index — as it was.
    st.tuples(
        st.just("churn"),
        st.lists(st.integers(0, len(_NAMES) - 1), min_size=1, max_size=4),
        st.booleans(),
    ),
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
    _drive_member_map(ops, seed)


@pytest.mark.parametrize("seed", range(5))
def test_indexed_member_map_matches_full_scan_under_long_churn(seed):
    """Hypothesis keeps its op lists short (a handful of ops on average),
    so few of them ever flip a suspect onward. One long seeded walk per
    seed, mostly suspicion churn and samples, visits every flip between
    every pair of states many times with the index warm."""
    draw = random.Random(seed)
    names = range(len(_NAMES))
    ops = []
    for _ in range(1500):
        kind = draw.choice(["churn"] * 3 + ["sample"] * 3 + ["merge"] * 3 + ["reclaim"])
        if kind == "churn":
            subjects = draw.choices(names, k=draw.randint(1, 4))
            ops.append((kind, subjects, draw.random() < 0.7))
        elif kind == "sample":
            ops.append((kind, draw.randint(0, 7), draw.randint(0, len(_NAMES)),
                        draw.random() < 0.5, draw.choice([None, 5.0, 60.0])))
        elif kind == "merge":
            ops.append((kind, draw.choice(names), draw.randrange(len(_STATES)),
                        draw.randint(0, 40), draw.uniform(0.0, 30.0)))
        else:
            ops.append((kind, draw.uniform(0.0, 50.0)))
    _drive_member_map(ops, seed)


def _drive_member_map(ops, seed):
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
        elif op[0] == "churn":
            _, name_indexes, refute = op
            for name_index in name_indexes:
                name = _NAMES[name_index]
                held = mm.known_incarnation(name)
                mm.merge_claim(name, MemberState.SUSPECT, held, now)
                if refute:
                    mm.merge_claim(
                        name, MemberState.ALIVE, held + 1, now, address=f"{name}:7946"
                    )
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
        assert [m.name for m in mm.probeable_members()] == [
            m.name
            for m in mm.members()
            if (m.is_alive or m.is_suspect) and m.name != _LOCAL
        ]

        # Snapshot vs per-member reference.
        assert mm.snapshot(now) == tuple(m.snapshot(now) for m in mm.members())


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


def _probe_order(mm: MemberMap) -> List[str]:
    """The round-robin scheduler's probe order (roster ids), as names."""
    names = mm.roster.names
    return [names[sid] for sid in mm.probe_scheduler._order]


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
        assert _probe_order(mm) == ref.order
        assert mm.probe_scheduler._index == ref.index


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
        span = mm.roster.extend((n, n, b"", "") for n in names)
        mm.add_many(span, 1, MemberState.ALIVE, now)
        for name in names:
            ref.add(reference_rng, name)
        assert _probe_order(mm) == ref.order
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
        assert _probe_order(mm) == ref.order
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
    """``add_many`` over any split of the roster into id spans ≡ ``add``
    per entry in roster order; the roster may name the local member
    (anywhere), which is skipped."""
    # Index 0 is the local member itself.
    roster = [
        (_LOCAL if i == 0 else f"r{i:02d}", f"addr{i}", meta, zone)
        for i, meta, zone in entries
    ]
    one_by_one = MemberMap(_LOCAL, f"{_LOCAL}:7946", random.Random(seed))
    shared = Roster()
    shared.extend(roster)
    bulk = MemberMap(_LOCAL, f"{_LOCAL}:7946", random.Random(seed), roster=shared)
    for name, address, meta, zone in roster:
        if name != _LOCAL:
            one_by_one.add(name, address, 3, state, 2.0, meta, zone)
    bounds = [0] + sorted(min(c, len(roster)) for c in cuts) + [len(roster)]
    for start, end in zip(bounds, bounds[1:]):
        bulk.add_many(range(start, end), 3, state, 2.0)

    assert bulk.names() == one_by_one.names()
    assert bulk._state_counts == one_by_one._state_counts
    assert len(bulk) == len(one_by_one)
    assert bulk.num_probeable() == one_by_one.num_probeable()
    assert bulk.snapshot(5.0) == one_by_one.snapshot(5.0)
    assert [m.zone for m in bulk.members()] == [m.zone for m in one_by_one.members()]
    assert [m.name for m in bulk.alive_members(True)] == [
        m.name for m in one_by_one.alive_members(True)
    ]
    assert _probe_order(bulk) == _probe_order(one_by_one)
    assert bulk.probe_scheduler._index == one_by_one.probe_scheduler._index
    # Same RNG state going in, same candidate order: identical draws.
    assert [m.name for m in bulk.random_members(sample)] == [
        m.name for m in one_by_one.random_members(sample)
    ]
    target = bulk.next_probe_target(5.0)
    expected = one_by_one.next_probe_target(5.0)
    assert (target and target.name) == (expected and expected.name)


# --------------------------------------------------------------------- #
# Column storage over a shared roster vs a dict of records per observer
# --------------------------------------------------------------------- #


class _NaiveTable:
    """One observer's table as an insertion-ordered dict of mutable rows.

    Restates the table semantics with the obvious storage — a record per
    (observer, subject) that nobody else can see — so whatever the
    column layout shares between observers (interned names, roster
    records, ids that outlive a reclaim) has to stay invisible to match
    it. Draws on ``rng`` exactly where the map and its round-robin
    scheduler would: one ``randint`` per non-local insert, one ``sample``
    per over-full candidate list.
    """

    def __init__(self, local: str, address: str, rng: random.Random) -> None:
        self.local = local
        self.rng = rng
        self.rows: Dict[str, dict] = {}
        self._put(local, address, b"", "", 1, MemberState.ALIVE, 0.0)

    def _put(self, name, address, meta, zone, incarnation, state, now) -> None:
        assert name not in self.rows
        self.rows[name] = dict(
            address=address, meta=meta, zone=zone,
            incarnation=incarnation, state=state, changed_at=now,
        )

    def add(self, name, address, meta, zone, incarnation, state, now) -> None:
        self.rng.randint(0, len(self.rows) - 1)  # probe-order position
        self._put(name, address, meta, zone, incarnation, state, now)

    def apply_claim(self, name, state, incarnation, now) -> bool:
        row = self.rows[name]
        if not claim_supersedes(state, incarnation, row["state"], row["incarnation"]):
            return False
        if row["state"] is not state:
            row["changed_at"] = now
        row["state"] = state
        row["incarnation"] = incarnation
        return True

    def merge_claim(
        self, name, state, incarnation, now, address, meta, zone, age
    ) -> Tuple[str, bool]:
        if name == self.local:
            return MERGE_LOCAL, False
        row = self.rows.get(name)
        if row is None:
            if state is MemberState.ALIVE and address is not None:
                self.add(name, address, meta or b"", zone, incarnation, state, now)
                return MERGE_ADDED, False
            return MERGE_IGNORED, False
        if not self.apply_claim(name, state, incarnation, now):
            return MERGE_IGNORED, False
        meta_changed = False
        if state is MemberState.ALIVE:
            if address is not None:
                row["address"] = address
            if meta is not None and meta != row["meta"]:
                row["meta"] = meta
                meta_changed = True
            if zone:
                row["zone"] = zone
        elif state is not MemberState.SUSPECT and age > 0.0:
            row["changed_at"] = min(row["changed_at"], now - age)
        return MERGE_APPLIED, meta_changed

    def merge_entry(self, entry: tuple, now: float) -> str:
        """One push-pull entry of another table's :meth:`snapshot`."""
        name, address, incarnation, state_value, meta, age_ms = entry
        state = MemberState(state_value)
        if state is MemberState.SUSPECT and name != self.local:
            if name not in self.rows:
                self.add(name, address, meta, "", incarnation, MemberState.ALIVE, now)
            return MERGE_SUSPECT
        return self.merge_claim(
            name, state, incarnation, now, address, meta, "", age_ms / 1000.0
        )[0]

    def reclaim(self, now: float, retention: float) -> List[str]:
        gone = [
            name
            for name, row in self.rows.items()
            if row["state"] in (MemberState.DEAD, MemberState.LEFT)
            and now - row["changed_at"] >= retention
        ]
        for name in gone:
            del self.rows[name]
        return gone

    def snapshot(self, now: float) -> tuple:
        return tuple(
            (
                name, row["address"], row["incarnation"], int(row["state"]),
                row["meta"],
                min(int(max(0.0, now - row["changed_at"]) * 1000.0), MAX_STATE_AGE_MS),
            )
            for name, row in self.rows.items()
        )

    def random_members(self, count, exclude, include_suspect, dead_within, now):
        candidates = []
        for name, row in self.rows.items():
            if name == self.local or name in exclude:
                continue
            state = row["state"]
            if state is MemberState.ALIVE or (
                state is MemberState.SUSPECT and include_suspect
            ):
                candidates.append(name)
            elif (
                dead_within is not None
                and state in (MemberState.DEAD, MemberState.LEFT)
                and now - row["changed_at"] <= dead_within
            ):
                candidates.append(name)
        if count >= len(candidates):
            return candidates
        return self.rng.sample(candidates, count)


_SHARED_NAMES = ["la", "lb", "s0", "s1", "s2", "s3", "s4"]
_ADDRESSES = ["a:1", "b:2"]
_METAS = [b"", b"m1", b"m2"]
_ZONES = ["", "z0", "z1"]

_observer = st.integers(0, 1)
_shared_op = st.one_of(
    st.tuples(
        st.just("add"), _observer, st.sampled_from(_SHARED_NAMES),
        st.sampled_from(_ADDRESSES), st.sampled_from(_METAS),
        st.sampled_from(_ZONES), st.sampled_from(_STATES), st.integers(0, 3),
    ),
    # A batch of never-seen names, bulk-added by one observer...
    st.tuples(
        st.just("bulk"), _observer, st.integers(0, 5),
        st.sampled_from(_STATES), st.integers(0, 3),
    ),
    # ...and the most recent such span (or the whole roster) by either.
    st.tuples(
        st.just("rebulk"), _observer, st.booleans(),
        st.sampled_from(_STATES), st.integers(0, 3),
    ),
    st.tuples(
        st.just("apply"), _observer, st.sampled_from(_SHARED_NAMES),
        st.sampled_from(_STATES), st.integers(0, 4),
    ),
    st.tuples(
        st.just("merge"), _observer, st.sampled_from(_SHARED_NAMES),
        st.sampled_from(_STATES), st.integers(0, 4),
        st.one_of(st.none(), st.sampled_from(_ADDRESSES)),
        st.one_of(st.none(), st.sampled_from(_METAS)),
        st.sampled_from(_ZONES), st.floats(0.0, 30.0),
    ),
    st.tuples(st.just("reclaim"), _observer, st.floats(0.0, 40.0)),
    st.tuples(st.just("meta"), _observer, st.sampled_from(_METAS)),
    st.tuples(st.just("bump"), _observer),
    # The observer merges the other's snapshot off the wire (or its own,
    # as a peer that agrees with it on everything would send it).
    st.tuples(st.just("sync"), _observer, st.booleans()),
    st.tuples(
        st.just("sample"), _observer, st.integers(0, 6), st.integers(0, 3),
        st.booleans(), st.one_of(st.none(), st.floats(0.0, 40.0)),
    ),
)


@settings(deadline=None, max_examples=300)
@given(
    ops=st.lists(_shared_op, max_size=60),
    seed=st.integers(0, 2**16),
    preseed=st.booleans(),
)
def test_two_maps_on_one_roster_match_private_dict_tables(ops, seed, preseed):
    """Two observers over one shared roster behave as two private
    dict-of-records tables: same table order, snapshot, counts, sampling
    draws and RNG state after every operation — and neither ever sees
    the other's state, meta, address or zone changes, although both
    send and merge by way of the one table the roster has published."""
    roster = Roster()
    locals_ = ("la", "lb")
    rngs = [random.Random(seed + i) for i in range(2)]
    maps = [
        MemberMap(name, f"{name}:7946", rngs[i], roster=roster)
        for i, name in enumerate(locals_)
    ]
    models = [
        _NaiveTable(name, f"{name}:7946", random.Random(seed + i))
        for i, name in enumerate(locals_)
    ]
    # What add_many seeds a table with: the record a name was first
    # interned with, or the one its own map last announced.
    announced: Dict[str, tuple] = {
        name: (f"{name}:7946", b"", "") for name in locals_
    }
    last_span = range(0)
    batches = 0
    now = 0.0

    def bulk(i: int, span: range, state: MemberState, incarnation: int) -> None:
        names = [n for n in list(announced)[span.start:span.stop] if n != locals_[i]]
        if any(n in models[i].rows for n in names):
            before = (maps[i].names(), maps[i].snapshot(now), rngs[i].getstate())
            try:
                maps[i].add_many(span, incarnation, state, now)
            except ValueError:
                pass
            else:  # pragma: no cover - the assertion below reports it
                raise AssertionError("add_many accepted an already-known member")
            assert before == (
                maps[i].names(), maps[i].snapshot(now), rngs[i].getstate()
            )
            return
        maps[i].add_many(span, incarnation, state, now)
        for name in names:
            models[i].add(name, *announced[name], incarnation, state, now)

    if preseed:
        roster.extend((n, f"{n}:7946", b"", "") for n in _SHARED_NAMES[2:])
        for name in _SHARED_NAMES[2:]:
            announced[name] = (f"{name}:7946", b"", "")
        for i in range(2):
            bulk(i, range(len(roster)), MemberState.ALIVE, 1)

    for op in ops:
        now += 1.0
        kind, i = op[0], op[1]
        mm, model = maps[i], models[i]
        if kind == "add":
            _, _, name, address, meta, zone, state, incarnation = op
            if name in model.rows:
                continue
            mm.add(name, address, incarnation, state, now, meta, zone)
            announced.setdefault(name, (address, meta, zone))
            model.add(name, address, meta, zone, incarnation, state, now)
        elif kind == "bulk":
            _, _, size, state, incarnation = op
            entries = [
                (f"b{batches + k:03d}", f"b{batches + k}:1", _METAS[k % 3], _ZONES[k % 3])
                for k in range(size)
            ]
            batches += size
            last_span = roster.extend(entries)
            announced.update((e[0], e[1:]) for e in entries)
            bulk(i, last_span, state, incarnation)
        elif kind == "rebulk":
            _, _, whole, state, incarnation = op
            bulk(i, range(len(roster)) if whole else last_span, state, incarnation)
        elif kind == "apply":
            _, _, name, state, incarnation = op
            if name not in model.rows or name == model.local:
                continue
            assert mm.apply_claim(name, state, incarnation, now) == model.apply_claim(
                name, state, incarnation, now
            )
        elif kind == "merge":
            _, _, name, state, incarnation, address, meta, zone, age = op
            decision = mm.merge_claim(
                name, state, incarnation, now,
                address=address, meta=meta, age=age, zone=zone,
            )
            if decision.action == MERGE_ADDED:
                announced.setdefault(name, (address, meta or b"", zone))
            assert (decision.action, decision.meta_changed) == model.merge_claim(
                name, state, incarnation, now, address, meta, zone, age
            )
        elif kind == "reclaim":
            assert mm.reclaim_dead(now, op[2]) == model.reclaim(now, op[2])
        elif kind == "meta":
            mm.set_local_meta(op[2])
            row = model.rows[model.local]
            row["meta"] = op[2]
            announced[model.local] = (row["address"], op[2], row["zone"])
        elif kind == "bump":
            row = model.rows[model.local]
            row["incarnation"] += 1
            assert mm.bump_local_incarnation(mm.local.incarnation) == row["incarnation"]
        elif kind == "sync":
            sender = i if op[2] else 1 - i
            sent = models[sender].snapshot(now)
            packet = codec.encode(PushPull(locals_[sender], maps[sender].snapshot(now)))
            decisions, total = mm.merge_remote_wire_state(
                codec.decode(packet).states, now
            )
            expected = [(entry[0], model.merge_entry(entry, now)) for entry in sent]
            assert total == len(sent)
            assert [(d.name, d.action) for d in decisions] == [
                outcome for outcome in expected if outcome[1] != MERGE_IGNORED
            ]
        else:
            _, _, count, exclude_len, include_suspect, dead_within = op
            exclude = tuple(_SHARED_NAMES[2 : 2 + exclude_len])
            drawn = mm.random_members(
                count, exclude=exclude, include_suspect=include_suspect,
                gossip_to_dead_within=dead_within, now=now,
            )
            assert [m.name for m in drawn] == model.random_members(
                count, exclude, include_suspect, dead_within, now
            )

        # Both observers after every operation: the one that did not act
        # must be exactly where its own model left it.
        for mm, model, rng in zip(maps, models, rngs):
            assert mm.names() == list(model.rows)
            assert len(mm) == len(model.rows)
            assert mm.snapshot(now) == model.snapshot(now)
            assert [m.zone for m in mm.members()] == [
                row["zone"] for row in model.rows.values()
            ]
            for state in _STATES:
                assert mm.num_in_state(state) == sum(
                    row["state"] is state for row in model.rows.values()
                )
            assert rng.getstate() == model.rng.getstate()
