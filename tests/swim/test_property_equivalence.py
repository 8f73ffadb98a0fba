"""Property tests: optimized structures match their naive references.

The scale optimizations replaced full scans and full sorts with
incrementally-maintained structures (transmit-count buckets in
:class:`~repro.swim.broadcast.BroadcastQueue`, the round-robin probe
order and its bulk insertion). Each test here drives the optimized
structure and a deliberately naive model through the same randomly
generated operation sequence and asserts they never diverge — the naive
models restate the *pre-optimization* semantics (sort everything per
call, rebuild the order per removal), which is exactly the contract the
optimized paths must preserve. The member table's own model is
``test_member_table.py``; a long seeded walk through it lives here.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.swim import codec
from repro.swim.broadcast import BroadcastQueue, retransmit_limit
from repro.swim.member_map import MemberMap
from repro.swim.messages import Alive
from repro.swim.state import MemberState
from tests.swim.test_member_table import ALIVE, SUSPECT, MemberTableMachine

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
    # A gossip tick's fanout: k packets at one budget in one call.
    st.tuples(
        st.just("round"), st.integers(0, 400), st.integers(0, 8), st.integers(1, 4)
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
    under entries already part-way through their transmissions. Rounds
    of up to four packets run out of room part-way as often as not."""
    draw = random.Random(seed)
    ops = []
    for _ in range(3000):
        kind = draw.choice(
            ["enqueue"] * 4 + ["get"] * 4 + ["round"] * 2 + ["invalidate", "resize"]
        )
        if kind == "enqueue":
            ops.append((kind, draw.randrange(len(_SUBJECTS)), draw.randint(0, 40)))
        elif kind == "get":
            budget = draw.choice([0, 20, 60, 60, 100, 100, 150, 400])
            ops.append((kind, budget, draw.randint(0, 8)))
        elif kind == "round":
            budget = draw.choice([0, 20, 60, 100, 150, 400, 400])
            ops.append((kind, budget, draw.randint(0, 8), draw.randint(1, 4)))
        elif kind == "invalidate":
            ops.append((kind, draw.randrange(len(_SUBJECTS))))
        else:
            ops.append((kind, draw.choice(_GROUP_SIZES)))
    _drive_broadcast_queue(ops, draw.randint(1, 3), draw.choice(_GROUP_SIZES))


def _drive_broadcast_queue(ops, mult, n_members, queue_class=BroadcastQueue):
    group = [n_members]
    queue = queue_class(mult, lambda: group[0])
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
            assert queue.get_payloads(budget, overhead) == [
                naive.get_payloads(budget, overhead)
            ]
        elif op[0] == "round":
            # One call serves k packets exactly as k selections would.
            _, budget, overhead, k = op
            assert queue.get_payloads(budget, overhead, k) == [
                naive.get_payloads(budget, overhead) for _ in range(k)
            ]
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


class _RoundIgnoresTheLimit(BroadcastQueue):
    """A queue whose later packets of a round never reach the limit:
    they keep sending, and retire nothing, what should have retired."""

    def _serve_again(self, payloads, rounds, limit):
        return super()._serve_again(payloads, rounds, limit + rounds)


def test_a_round_that_skips_retirement_fails_the_machine():
    # Limit 2: the round's first packet sends the entry once, the second
    # retires it, and the third has nothing left to carry.
    ops = [("enqueue", 0, 1), ("round", 400, 2, 3)]
    _drive_broadcast_queue(ops, 2, 9)
    with pytest.raises(AssertionError):
        _drive_broadcast_queue(ops, 2, 9, queue_class=_RoundIgnoresTheLimit)


# --------------------------------------------------------------------- #
# The member table under long churn
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(5))
def test_indexed_member_map_matches_full_scan_under_long_churn(seed):
    """Hypothesis keeps its runs short, so few of them ever flip a
    suspect onward. One long seeded walk per seed through the rules of
    the member-table machine (``test_member_table.py``) — suspicion
    churn, samples, claims, reclaims and syncs — visits every
    flip between every pair of states many times with the indexes warm;
    every map is held to its model after every step."""
    draw = random.Random(seed)
    machine = MemberTableMachine()
    machine.preseed()
    for _ in range(1500):
        machine.wait(1.0)
        i = draw.randrange(3)
        kind = draw.choice(["churn", "sample", "merge"] * 3 + ["reclaim", "sync"])
        if kind == "churn":  # suspicions raised, most of them refuted
            rows = machine.models[i].rows
            for name in draw.choices(list(rows), k=draw.randint(1, 4)):
                held = rows[name].incarnation
                machine.merge_claim(i, name, SUSPECT, held, None, None, "", 0.0)
                if draw.random() < 0.7:
                    machine.merge_claim(i, name, ALIVE, held + 1, "a:1", None, "", 0.0)
        elif kind == "sample":
            machine.random_members(
                i, draw.randint(0, 7), draw.randint(0, 4), draw.random() < 0.5,
                draw.choice([None, 5.0, 60.0]),
            )
        elif kind == "merge":
            machine.merge_claim(
                i, draw.choice(machine.pool), draw.choice(list(MemberState)),
                draw.randint(0, 40), draw.choice([None, "a:1"]), None, "",
                draw.uniform(0.0, 30.0),
            )
        elif kind == "reclaim":
            machine.reclaim(draw.uniform(0.0, 50.0))
        else:
            machine.sync(i, draw.randrange(3))
        machine.reads_as_its_model()


# --------------------------------------------------------------------- #
# Round-robin probe schedule vs intent-level reference
# --------------------------------------------------------------------- #

_POOL = [f"p{i}" for i in range(12)]
_LOCAL = "local"


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
            assert actual == expected

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
            assert actual == expected
        victims = [m.name for m in mm.alive_members()][:kills]
        for name in victims:
            mm.apply_claim(name, MemberState.DEAD, 1, now)
        ref.reclaim(mm.reclaim_dead(now + 1.0, 0.0))
        assert _probe_order(mm) == ref.order
        assert scheduler._index == ref.index
        assert rng.getstate() == reference_rng.getstate()
