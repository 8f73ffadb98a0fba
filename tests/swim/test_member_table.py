"""The member table against one reference model.

:class:`MemberTableMachine` runs three maps over one :class:`Roster` (two
preseeded by ``add_many``, so they share its bootstrap table, and a
joiner) through every public mutator, roster growth, sampling, time and
push-pull syncs between them, and after every step checks each map
against its :class:`_TableModel`: an insertion-ordered dict of records
that no other observer sees, with none of the table's ids, columns,
shared or published tables, indexes or memos."""

from __future__ import annotations

import random
from array import array
from typing import Dict, List, Optional

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule, run_state_machine_as_test,
)

from repro.metrics.telemetry import Telemetry
from repro.swim import codec
from repro.swim.member_map import (
    MAX_STATE_AGE_MS, MERGE_ADDED, MERGE_APPLIED, MERGE_IGNORED, MERGE_LOCAL,
    MERGE_SUSPECT, MemberMap, _BootstrapOrder,
)
from repro.swim.messages import PushPull
from repro.swim.roster import _DIFF_BLOCK, Roster, _differing
from repro.swim.state import MemberState, claim_supersedes
from repro.sync.engine import SyncEngine

ALIVE, SUSPECT, DEAD, LEFT = MemberState


class _Row:
    __slots__ = ("address", "meta", "zone", "incarnation", "state", "changed_at")

    def __init__(self, address, meta, zone, incarnation, state, changed_at):
        self.address, self.meta, self.zone = address, meta, zone
        self.incarnation, self.state, self.changed_at = incarnation, state, changed_at


class _TableModel:
    """One observer's table: an insertion-ordered dict of rows.

    ``announced`` is shared by the models of one roster: what each name
    was first heard as, or what its own observer last said of itself —
    what ``add_many`` seeds a table with. ``rng`` is drawn from where
    the map and its round-robin scheduler draw: one ``randint`` per
    non-local insert (its place in the probe order), one ``sample`` per
    over-full candidate list. ``writes`` counts the changes, ``orders``
    the changes to which names it holds.
    """

    def __init__(self, local: str, announced: Dict[str, tuple], seed: int) -> None:
        self.local, self.announced, self.writes, self.orders = local, announced, 0, 0
        self.rng = random.Random(seed)
        announced.setdefault(local, (f"{local}:1", b"", ""))
        self.rows = {local: _Row(f"{local}:1", b"", "", 1, ALIVE, 0.0)}

    def insert(self, name, address, meta, zone, incarnation, state, now) -> None:
        self.rng.randint(0, len(self.rows) - 1)
        self.announced.setdefault(name, (address, meta, zone))
        self.rows[name] = _Row(address, meta, zone, incarnation, state, now)
        self.writes += 1
        self.orders += 1

    def apply(self, name, state, incarnation, now) -> bool:
        row = self.rows[name]
        if not claim_supersedes(state, incarnation, row.state, row.incarnation):
            return False
        if state is not row.state:
            row.changed_at = now
        row.state, row.incarnation = state, incarnation
        self.writes += 1
        return True

    def merge_claim(self, name, state, incarnation, now, address, meta, age, zone):
        """``(action, previous_state, meta_changed)`` of the decision."""
        if name == self.local:
            return MERGE_LOCAL, ALIVE, False
        row = self.rows.get(name)
        if row is None:
            if state is ALIVE and address is not None:
                self.insert(name, address, meta or b"", zone, incarnation, state, now)
                return MERGE_ADDED, None, False
            return MERGE_IGNORED, None, False
        previous = row.state
        if not self.apply(name, state, incarnation, now):
            return MERGE_IGNORED, previous, False
        meta_changed = state is ALIVE and meta is not None and meta != row.meta
        if state is ALIVE:
            row.address = row.address if address is None else address
            row.meta = row.meta if meta is None else meta
            row.zone = zone or row.zone
        elif state is not SUSPECT and age > 0.0:
            row.changed_at = min(row.changed_at, now - age)
        return MERGE_APPLIED, previous, meta_changed

    def merge_entry(self, entry: tuple, now: float):
        """A suspicion is the node's to apply (an unknown suspect is
        taken in as alive first)."""
        name, address, incarnation, value, meta, age_ms = entry
        state = MemberState(value)
        if state is SUSPECT and name != self.local:
            row = self.rows.get(name)
            if row is None:
                self.insert(name, address, meta, "", incarnation, ALIVE, now)
            return MERGE_SUSPECT, None if row is None else row.state, False
        return self.merge_claim(
            name, state, incarnation, now, address, meta, age_ms / 1000.0, ""
        )

    def reclaim(self, now: float, retention: float) -> List[str]:
        rows = self.rows
        gone = [
            n for n, r in rows.items()
            if r.state >= DEAD and now - r.changed_at >= retention
        ]
        self.rows = {n: r for n, r in rows.items() if n not in gone}
        self.writes += len(gone)
        self.orders += len(gone)
        return gone

    def sample(self, count, exclude, include_suspect, dead_within, now) -> List[str]:
        candidates = [
            name
            for name, row in self.rows.items()
            if name != self.local and name not in exclude and (
                row.state is ALIVE
                or (row.state is SUSPECT and include_suspect)
                or (row.state >= DEAD and dead_within is not None
                    and now - row.changed_at <= dead_within)
            )
        ]
        if count >= len(candidates):
            return candidates
        return self.rng.sample(candidates, count)

    def snapshot(self, now: float) -> tuple:
        return tuple(
            (name, row.address, row.incarnation, int(row.state), row.meta,
             min(int((now - row.changed_at) * 1000.0), MAX_STATE_AGE_MS)
             if now > row.changed_at else 0)
            for name, row in self.rows.items()
        )


_LOCALS = ("la", "lb", "lc")
#: Two- to four-byte UTF-8, and a name (256 bytes) no wire can carry.
_POOL = (*_LOCALS, "m0", "m1", "m2", "nœud-3", "ノード4", "é" * 128)

_maps = st.integers(0, 2)
_names = st.sampled_from(_POOL)
_states = st.sampled_from(list(MemberState))
_incarnations = st.integers(0, 4)
_metas = st.sampled_from([b"", b"role=db", b"\x00\xff"])
_zones = st.sampled_from(["", "z0", "z1"])


def _wire(entries) -> object:
    """The reference encoding of ``entries``, or the error it raises."""
    try:
        return codec.pack_states(entries).wire
    except codec.CodecError as exc:
        return str(exc)


def _fields(view) -> tuple:
    return (view.address, view.meta, view.zone, view.incarnation, view.state,
            view.state_changed_at, view.is_alive, view.is_suspect, view.is_dead)


def _decision(d) -> tuple:
    return (d.name, d.state, d.incarnation, d.action, d.previous_state, d.meta_changed)


class MemberTableMachine(RuleBasedStateMachine):
    """Three maps over one roster, each checked against its model after
    every step. Every rule is a plain method a seeded walk can call."""

    def __init__(self) -> None:
        super().__init__()
        self.roster, self.announced, self.pool = Roster(), {}, list(_POOL)
        self.now, self.steps, self.last_span = 0.0, 0, range(0)
        self.maps: List[MemberMap] = []
        self.models: List[_TableModel] = []
        self.rngs: List[random.Random] = []
        # Per map: the bootstrap table it was handed and its model's
        # write count then, or None; its model's order count then, or None.
        self.shared: List[Optional[tuple]] = []
        self.ordered: List[Optional[int]] = []

    def _join(self, name: str) -> None:
        i = len(self.maps)
        self.rngs.append(random.Random(i))
        self.maps.append(MemberMap(name, f"{name}:1", self.rngs[i], roster=self.roster))
        self.models.append(_TableModel(name, self.announced, i))
        self.shared.append(None)
        self.ordered.append(None)

    @initialize()
    def preseed(self) -> None:
        """``la`` and ``lb`` take the whole roster by ``add_many``; the
        joiner ``lc`` arrives once the roster has been built."""
        self._join("la")
        self._join("lb")
        self.last_span = self.roster.extend((n, f"{n}:1", b"", "") for n in _POOL[3:6])
        self.announced.update((n, (f"{n}:1", b"", "")) for n in _POOL[3:6])
        for i in (0, 1):
            self.add_many(i, "whole", 0, ALIVE, 1)
        assert self.shared[0][0] is self.shared[1][0]
        self._join("lc")

    @rule(i=_maps, name=_names, address=st.sampled_from(["a:1", "hôte:2"]),
          meta=_metas, zone=_zones, state=_states, incarnation=_incarnations)
    def add(self, i, name, address, meta, zone, state, incarnation) -> None:
        model = self.models[i]
        try:
            self.maps[i].add(name, address, incarnation, state, self.now, meta, zone)
        except ValueError:
            assert name in model.rows
            self.shared[i] = None  # the map took its own copy before it looked
        else:
            assert name not in model.rows
            model.insert(name, address, meta, zone, incarnation, state, self.now)

    @rule(i=_maps, span=st.sampled_from(["new", "last", "whole"]),
          size=st.integers(0, 3), state=_states, incarnation=_incarnations)
    def add_many(self, i, span, size, state, incarnation) -> None:
        mm, model, roster = self.maps[i], self.models[i], self.roster
        if span == "new":
            fresh = [f"x{len(roster) + k}" for k in range(size)]
            self.last_span = roster.extend((n, f"{n}:2", b"x", "zx") for n in fresh)
            self.announced.update((n, (f"{n}:2", b"x", "zx")) for n in fresh)
            self.pool.extend(fresh)
        ids = range(len(roster)) if span == "whole" else self.last_span
        local = model.rows[model.local]
        bootstrap = len(ids) == len(roster) and len(model.rows) == 1 and (
            local.state, local.incarnation, local.changed_at
        ) == (state, incarnation, self.now)
        names = [n for n in roster.names[ids.start : ids.stop] if n != model.local]
        try:
            mm.add_many(ids, incarnation, state, self.now)
        except ValueError:
            assert any(name in model.rows for name in names)
        else:
            for name in names:
                model.insert(name, *self.announced[name], incarnation, state, self.now)
        # Any other span is filled into columns of the map's own.
        assert mm.shares_table == bootstrap
        self.shared[i] = None
        self.ordered[i] = model.orders if bootstrap else None
        if bootstrap:
            table = roster.bootstrap(state, incarnation, self.now)
            assert all(a is b for a, b in zip(_columns(mm), table))
            self.shared[i] = table, model.writes

    @rule(i=_maps, name=_names, state=_states, incarnation=_incarnations)
    def apply_claim(self, i, name, state, incarnation) -> None:
        model = self.models[i]
        if name == model.local:
            return  # a node never applies a claim to itself
        try:
            applied = self.maps[i].apply_claim(name, state, incarnation, self.now)
        except KeyError:
            assert name not in model.rows
        else:
            assert name in model.rows
            assert applied == model.apply(name, state, incarnation, self.now)

    @rule(i=_maps, name=_names, state=_states, incarnation=_incarnations,
          address=st.none() | st.sampled_from(["a:1", "a:2"]),
          meta=st.none() | _metas, zone=_zones,
          age=st.sampled_from([0.0, 0.7, 4.0, 40.0]))
    def merge_claim(self, i, name, state, incarnation, address, meta, zone, age):
        decision = self.maps[i].merge_claim(
            name, state, incarnation, self.now,
            address=address, meta=meta, age=age, zone=zone,
        )
        expected = self.models[i].merge_claim(
            name, state, incarnation, self.now, address, meta, age, zone
        )
        assert _decision(decision) == (name, state, incarnation, *expected)

    @rule(which=st.integers(0, 9), state=st.sampled_from([DEAD, LEFT]),
          age=st.sampled_from([40.0, 0.0]))
    def die(self, which, state, age) -> None:
        """News of a death or departure, ``age`` old, reaches every map
        holding the member, each at the incarnation after its own (which
        supersedes even a death)."""
        held = list(dict.fromkeys(n for model in self.models for n in model.rows))
        name = held[which % len(held)]
        for i, model in enumerate(self.models):
            row = model.rows.get(name)
            if row is not None and name != model.local:
                incarnation = row.incarnation + 1
                self.merge_claim(i, name, state, incarnation, None, None, "", age)

    @rule(i=_maps, at_least=st.sampled_from([0, 1, 5]))
    def bump(self, i, at_least) -> None:
        row = self.models[i].rows[self.models[i].local]
        row.incarnation = max(row.incarnation, at_least) + 1
        self.models[i].writes += 1
        assert self.maps[i].bump_local_incarnation(at_least) == row.incarnation

    @rule(i=_maps, meta=_metas)
    def set_local_meta(self, i, meta) -> None:
        model = self.models[i]
        row = model.rows[model.local]
        row.meta = meta
        model.announced[model.local] = (row.address, meta, row.zone)
        model.writes += 1
        self.maps[i].set_local_meta(meta)

    # Retention 0.0 reclaims every death at once; it goes last because
    # Hypothesis draws the first choice most often.
    @rule(retention=st.sampled_from([5.0, 50.0, 1.0, 0.0]))
    def reclaim(self, retention) -> None:
        """Every map's probe tick."""
        for mm, model in zip(self.maps, self.models):
            reclaimed = mm.reclaim_dead(self.now, retention)
            assert reclaimed == model.reclaim(self.now, retention)

    @rule(i=_maps, count=st.integers(0, 6), excluded=st.integers(0, 4),
          include_suspect=st.booleans(),
          dead_within=st.none() | st.sampled_from([0.5, 5.0, 60.0]))
    def random_members(self, i, count, excluded, include_suspect, dead_within):
        exclude = tuple(self.pool[2 : 2 + excluded])
        table = self.maps[i]
        args = dict(
            exclude=exclude, include_suspect=include_suspect,
            gossip_to_dead_within=dead_within, now=self.now,
        )
        # The address form draws what the views do from the same state.
        state = table._rng.getstate()
        addresses = table.random_addresses(count, **args)
        table._rng.setstate(state)
        drawn = table.random_members(count, **args)
        assert addresses == [m.address for m in drawn]
        assert [m.name for m in drawn] == self.models[i].sample(
            count, exclude, include_suspect, dead_within, self.now
        )

    @rule(dt=st.sampled_from([0.0, 0.0004, 1.0, 5.0e6]))
    def wait(self, dt) -> None:
        """Time passes; the largest step ages a state past the u32
        milliseconds its wire field holds."""
        self.now += dt

    @rule(i=_maps, j=_maps)
    def sync(self, i, j) -> None:
        """Map ``i`` merges map ``j``'s snapshot off the wire (its own,
        for ``i == j``, as a peer in agreement with it would send it)."""
        sent = self.models[j].snapshot(self.now)
        try:
            packet = codec.encode(PushPull(_LOCALS[j], self.maps[j].snapshot(self.now)))
        except codec.CodecError as exc:
            assert _wire(sent) == str(exc)
            return
        applied, telemetry = [], Telemetry()
        SyncEngine(
            _LOCALS[i], self.maps[i], lambda: self.now, random.Random(0),
            lambda *_: None, lambda d, _source: applied.append(d) or True, telemetry,
        ).merge(codec.decode(packet))
        expected = [
            (entry[0], MemberState(entry[3]), entry[2],
             *self.models[i].merge_entry(entry, self.now))
            for entry in sent
        ]
        expected = [d for d in expected if d[3] != MERGE_IGNORED]
        assert [_decision(d) for d in applied] == expected
        assert (telemetry.sync_merges, telemetry.sync_entries_merged,
                telemetry.sync_changes_applied) == (1, len(sent), len(expected))

    @invariant()
    def reads_as_its_model(self) -> None:
        self.steps += 1
        # Rotated, so the roster was last published by any of the three
        # when the next rule runs.
        for k in range(len(self.maps)):
            self.check((self.steps + k) % len(self.maps))

    def check(self, i: int) -> None:
        """Everything map ``i`` reads, against its model."""
        mm, model = self.maps[i], self.models[i]
        rows = model.rows
        assert mm.names() == list(rows) == [m.name for m in mm.members()]
        assert len(mm) == len(rows)
        claims = [(n, r.state, r.incarnation) for n, r in rows.items()]
        assert list(mm.claims()) == claims
        for state in MemberState:
            assert mm.num_in_state(state) == [c[1] for c in claims].count(state)
        alive = [n for n, r in rows.items() if r.state is ALIVE]
        assert mm.num_alive() == len(alive)
        assert [m.name for m in mm.alive_members(True)] == alive
        others = [n for n in alive if n != model.local]
        assert [m.name for m in mm.alive_members()] == others
        probeable = [
            n for n, r in rows.items() if r.state <= SUSPECT and n != model.local
        ]
        assert [m.name for m in mm.probeable_members()] == probeable
        assert mm.num_probeable() == len(probeable)
        for name in self.pool:
            row, view = rows.get(name), mm.get(name)
            assert (name in mm) == (row is not None) == (view is not None)
            assert mm.known_incarnation(name) == (row.incarnation if row else -1)
            if row is not None:
                assert view.name == name and _fields(view) == (
                    row.address, row.meta, row.zone, row.incarnation, row.state,
                    row.changed_at, row.state is ALIVE, row.state is SUSPECT,
                    row.state >= DEAD,
                )
        local = mm.local
        assert local.name == model.local
        assert _fields(local) == _fields(mm.get(model.local))
        try:
            sent = mm.snapshot(self.now).wire
        except codec.CodecError as exc:
            sent = str(exc)
        assert sent == _wire(model.snapshot(self.now))
        assert self.rngs[i].getstate() == model.rng.getstate()
        # The reclaim memo may be early, never late: no death a walk it
        # skips could miss began before it.
        since = mm._dead_since
        assert since is None or all(
            r.changed_at >= since for r in rows.values() if r.state >= DEAD
        )
        shared = self.shared[i]
        if shared is not None and shared[1] == model.writes:
            assert mm.shares_table
            assert all(a is b for a, b in zip(_columns(mm), shared[0]))
        # No insert, span or reclaim since the preseed: still the
        # bootstrap insertion order, not an array of its own.
        if self.ordered[i] == model.orders:
            assert mm._order.__class__ is _BootstrapOrder


def _columns(mm: MemberMap) -> tuple:
    return (mm._states, mm._incarnations, mm._changed_at, mm._records)


MemberTableMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestMemberTable = MemberTableMachine.TestCase


@pytest.mark.slow
def test_the_machine_holds_over_a_long_budget():
    run_state_machine_as_test(
        MemberTableMachine,
        settings=settings(max_examples=3000, stateful_step_count=100, deadline=None),
    )


# --------------------------------------------------------------------- #
# The machine fails on a broken table
# --------------------------------------------------------------------- #


def _machine_fails() -> None:
    """Run the machine on a fixed seed; it must find a counterexample: a
    check that fails, or a map refusing (``ValueError``) what its model
    accepts."""
    with pytest.raises((AssertionError, ValueError)):
        run_state_machine_as_test(MemberTableMachine, settings=settings(
            max_examples=300, stateful_step_count=100, deadline=None,
            derandomize=True, database=None, phases=[Phase.generate],
        ))


def test_the_machine_catches_an_own_that_aliases_its_neighbours(monkeypatch):
    """Every map that first writes to one bootstrap table gets the same
    "private" copy of it."""
    copies: Dict[int, tuple] = {}

    def aliasing_own(self):
        key = id(self._states)  # the table is kept below: its id stays its own
        if key not in copies:
            copies[key] = self._states, (
                bytearray(self._states), array("Q", self._incarnations.tobytes()),
                array("d", self._changed_at.tobytes()), list(self._records),
            )
        self._states, self._incarnations, self._changed_at, self._records = (
            copies[key][1]
        )
        self._shared = False

    monkeypatch.setattr(MemberMap, "_own", aliasing_own)
    _machine_fails()


def test_the_machine_catches_an_insert_into_a_dropped_copy_of_the_order(monkeypatch):
    """The bootstrap order is converted for the write but never kept."""
    monkeypatch.setattr(MemberMap, "_own_order", lambda self: array("I", self._order))
    _machine_fails()


def test_the_machine_catches_an_order_copied_by_any_write(monkeypatch):
    """A map that copies its insertion order on a write that leaves its
    names as they were no longer holds the bootstrap order."""
    own = MemberMap._own

    def own_with_order(self):
        own(self)
        self._own_order()

    monkeypatch.setattr(MemberMap, "_own", own_with_order)
    _machine_fails()


class _NeverForgotten:
    """A ``_dead_since`` that keeps the first time a walk remembers, in
    the map's own slot."""

    def __init__(self, slot):
        self.slot = slot

    def __get__(self, mm, owner=None):
        if mm is None:
            return self
        try:
            return self.slot.__get__(mm, owner)
        except AttributeError:  # nothing remembered yet
            return None

    def __set__(self, mm, since):
        if since is not None:
            self.slot.__set__(mm, since)


def test_the_machine_catches_a_dead_since_that_is_never_forgotten(monkeypatch):
    slot = MemberMap._dead_since
    monkeypatch.setattr(MemberMap, "_dead_since", _NeverForgotten(slot))
    _machine_fails()


# --------------------------------------------------------------------- #
# The publish diff
# --------------------------------------------------------------------- #


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([0, 1, _DIFF_BLOCK - 1, _DIFF_BLOCK, _DIFF_BLOCK + 1])
    | st.integers(0, 3 * _DIFF_BLOCK),
    width=st.sampled_from([1, 8]),
    changed=st.sampled_from([0.0, 0.002, 0.1, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_differing_finds_every_index_that_differs(n, width, changed, seed):
    """Against the per-index rule, with lengths on both sides of block
    edges and anything from no id to every id differing."""
    draw = random.Random(seed)
    kind, top = ("B", 0xFF) if width == 1 else ("Q", 2**64 - 1)
    a = array(kind, [draw.randint(0, top) for _ in range(n)])
    b = array(kind, [draw.randint(0, top) if draw.random() < changed else v for v in a])
    expected = [i for i in range(n) if a[i] != b[i]]
    column = bytes(a) if width == 1 else memoryview(a).toreadonly()
    assert list(_differing(column, b, width)) == expected
