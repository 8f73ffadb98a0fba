"""Tests for the membership table and round-robin probe schedule."""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.swim import codec
from repro.swim.member_map import (
    MERGE_ADDED,
    MERGE_APPLIED,
    MERGE_IGNORED,
    MERGE_LOCAL,
    MemberMap,
    Roster,
)
from repro.swim.messages import PushPull
from repro.swim.state import MemberState


def make_map(n_others=4, seed=1):
    mm = MemberMap("self", "self-addr", random.Random(seed))
    for i in range(n_others):
        mm.add(f"m{i}", f"addr{i}", 1, MemberState.ALIVE, 0.0)
    return mm


class TestBasics:
    def test_local_member_present_and_alive(self):
        mm = make_map(0)
        assert "self" in mm
        assert mm.local.is_alive
        assert mm.local.incarnation == 1
        assert len(mm) == 1

    def test_add_and_get(self):
        mm = make_map(2)
        assert len(mm) == 3
        member = mm.get("m0")
        assert member is not None
        assert member.address == "addr0"

    def test_add_duplicate_rejected(self):
        mm = make_map(1)
        with pytest.raises(ValueError):
            mm.add("m0", "x", 1, MemberState.ALIVE, 0.0)

    @pytest.mark.parametrize(
        "roster",
        [
            [("new", "a", b"", "")],  # the span then covers m0, already known
            [("new", "a", b"", ""), ("new", "b", b"", "")],  # repeated name
        ],
    )
    def test_add_many_rejects_before_mutating(self, roster):
        rng = random.Random(1)
        mm = MemberMap("self", "self-addr", rng)
        mm.add("m0", "addr0", 1, MemberState.ALIVE, 0.0)
        before = (mm.names(), mm.snapshot(), mm.num_alive(), rng.getstate())
        order = list(mm.probe_scheduler._order)
        with pytest.raises(ValueError, match="already known"):
            mm.roster.extend(roster)
            mm.add_many(range(len(mm.roster)), 1, MemberState.ALIVE, 0.0)
        assert (mm.names(), mm.snapshot(), mm.num_alive(), rng.getstate()) == before
        assert list(mm.probe_scheduler._order) == order

    @pytest.mark.parametrize("span", [range(1, 4), range(0, 2, 2), range(2, 1)])
    def test_add_many_rejects_a_span_outside_the_roster(self, span):
        mm = make_map(0)
        mm.roster.extend([("m0", "addr0", b"", "")])
        with pytest.raises(ValueError, match="span of roster ids"):
            mm.add_many(span, 1, MemberState.ALIVE, 0.0)
        assert mm.names() == ["self"]

    def test_add_many_skips_local_entry(self):
        mm = make_map(0)
        mm.roster.extend([("m0", "addr0", b"meta", "z1")])
        # The whole roster, the map's own id included.
        mm.add_many(range(len(mm.roster)), 2, MemberState.ALIVE, 4.0)
        assert mm.names() == ["self", "m0"]
        assert mm.local.address == "self-addr"
        assert mm.local.incarnation == 1
        member = mm.get("m0")
        assert (member.address, member.incarnation, member.meta, member.zone) == (
            "addr0", 2, b"meta", "z1",
        )
        assert member.state_changed_at == 4.0
        assert mm.next_probe_target().name == "m0"

    def test_columns_cover_the_roster_and_no_more(self):
        """A preseeded table holds one slot per roster id (it used to
        grow to "at least double": up to 2x slots on every map built
        after half a shared roster existed) ..."""
        roster = Roster()
        maps = [
            MemberMap(f"m{i}", f"addr{i}", random.Random(i), roster=roster)
            for i in range(9)
        ]
        for mm in maps:
            mm.add_many(range(len(roster)), 1, MemberState.ALIVE, 0.0)
        for mm in maps:
            columns = (mm._states, mm._incarnations, mm._changed_at, mm._records)
            assert [len(column) for column in columns] == [len(roster)] * 4
        # ... and so does a private roster that learns names one at a time.
        mm = make_map(37)
        assert len(mm._states) == len(mm._incarnations) == len(mm.roster) == 38

    def test_member_handle_is_live_and_read_only(self):
        mm = make_map(1)
        member = mm.get("m0")
        mm.merge_claim(
            "m0", MemberState.ALIVE, 7, 3.0, address="moved", meta=b"m", zone="z"
        )
        assert (member.incarnation, member.address, member.meta, member.zone) == (
            7, "moved", b"m", "z",
        )
        mm.apply_claim("m0", MemberState.DEAD, 7, 5.0)
        assert member.is_dead and member.state_changed_at == 5.0
        for field, value in [
            ("state", MemberState.ALIVE),
            ("incarnation", 9),
            ("state_changed_at", 0.0),
            ("address", "x"),
            ("meta", b"x"),
            ("zone", "x"),
        ]:
            with pytest.raises(AttributeError):
                setattr(member, field, value)
        mm.reclaim_dead(10.0, 1.0)
        assert member.state is None and not member.is_dead

    def test_names_and_members(self):
        mm = make_map(2)
        assert set(mm.names()) == {"self", "m0", "m1"}
        assert len(list(mm.members())) == 3

    def test_snapshot_covers_everyone(self):
        mm = make_map(2)
        snapshot = mm.snapshot()
        assert len(snapshot) == 3
        names = {entry[0] for entry in snapshot}
        assert names == {"self", "m0", "m1"}

    def test_alive_members_excludes_local_by_default(self):
        mm = make_map(2)
        assert {m.name for m in mm.alive_members()} == {"m0", "m1"}
        assert {m.name for m in mm.alive_members(include_local=True)} == {
            "self",
            "m0",
            "m1",
        }


class TestPublishedTable:
    """One published table per roster, shared by maps that need not
    agree: whoever sends or merges publishes what *it* holds first, so
    no map ever speaks (or elides) by another map's claims."""

    NAMES = [f"m{i}" for i in range(8)]

    def cluster(self, full=4):
        roster = Roster()
        roster.extend((name, f"{name}:1", b"", "") for name in self.NAMES)
        maps = [
            MemberMap(name, f"{name}:1", random.Random(i), roster=roster)
            for i, name in enumerate(self.NAMES[:full])
        ]
        for mm in maps:
            mm.add_many(range(len(roster)), 1, MemberState.ALIVE, 0.0)
        return roster, maps

    @staticmethod
    def says_what_it_holds(mm, now=5.0):
        held = [member.snapshot(now) for member in mm.members()]
        snapshot = mm.snapshot(now)
        assert snapshot.wire == codec.pack_states(held).wire
        assert list(snapshot) == held

    @staticmethod
    def merges_like_a_twin(receiver, twin, sender, now=5.0):
        """``receiver`` takes ``sender``'s snapshot off the wire; its
        ``twin`` (same table, own roster) takes the entry tuples."""
        snapshot = sender.snapshot(now)
        message = codec.decode(codec.encode(PushPull(sender.local_name, snapshot)))
        decisions, total = receiver.merge_remote_wire_state(message.states, now)
        reference = twin.merge_remote_state(
            PushPull(sender.local_name, tuple(snapshot)).iter_entries(), now
        )
        assert total == len(reference) == len(sender)
        assert decisions == [d for d in reference if d.action != MERGE_IGNORED]
        assert [m.snapshot(now) for m in receiver.members()] == [
            m.snapshot(now) for m in twin.members()
        ]
        return [(d.name, d.action) for d in decisions]

    def twin_of(self, mm):
        twin = MemberMap(mm.local_name, mm.local.address, random.Random(0))
        for member in mm.members():
            if member.name != mm.local_name:
                twin.add(
                    member.name, member.address, member.incarnation,
                    member.state, member.state_changed_at, member.meta,
                )
        if mm.local.incarnation > 1:
            twin.bump_local_incarnation(mm.local.incarnation - 2)
        return twin

    def test_a_joiner_beside_full_tables(self):
        roster, maps = self.cluster()
        joiner = MemberMap("j", "j:1", random.Random(9), roster=roster)
        for name in ("m0", "m5"):
            joiner.add(name, f"{name}:1", 1, MemberState.ALIVE, 3.0)
        for mm in (maps[0], joiner, maps[1], joiner, maps[2]):
            self.says_what_it_holds(mm)
        assert len(joiner.snapshot(5.0)) == 3 and len(maps[0].snapshot(5.0)) == 8
        # Quiet peers: nothing but the receiver's own entry is decided.
        assert self.merges_like_a_twin(maps[1], self.twin_of(maps[1]), maps[0]) == [
            ("m1", MERGE_LOCAL)
        ]
        assert self.merges_like_a_twin(maps[0], self.twin_of(maps[0]), joiner) == [
            ("j", MERGE_ADDED), ("m0", MERGE_LOCAL)
        ]
        assert self.merges_like_a_twin(joiner, self.twin_of(joiner), maps[3]) == [
            (name, MERGE_ADDED) for name in maps[3].names() if name not in ("m0", "m5")
        ]
        for mm in (*maps, joiner):
            self.says_what_it_holds(mm)

    def test_one_map_ahead_by_a_refutation(self):
        roster, maps = self.cluster()
        assert maps[1].bump_local_incarnation(1) == 2
        for mm in (maps[1], maps[0], maps[1], maps[2]):
            self.says_what_it_holds(mm)
        assert ("m1", "m1:1", 2, 0, b"", 5000) in list(maps[1].snapshot(5.0))
        assert ("m1", "m1:1", 1, 0, b"", 5000) in list(maps[0].snapshot(5.0))
        # The stale claim about m1 reaches m1 as a claim about itself...
        assert self.merges_like_a_twin(maps[1], self.twin_of(maps[1]), maps[0]) == [
            ("m1", MERGE_LOCAL)
        ]
        # ...and m0 learns the new incarnation from m1, m2 from m0.
        assert self.merges_like_a_twin(maps[0], self.twin_of(maps[0]), maps[1]) == [
            ("m1", MERGE_APPLIED), ("m0", MERGE_LOCAL)
        ]
        assert self.merges_like_a_twin(maps[2], self.twin_of(maps[2]), maps[0]) == [
            ("m1", MERGE_APPLIED), ("m2", MERGE_LOCAL)
        ]

    def test_a_reclaimed_dead_member(self):
        roster, maps = self.cluster()
        maps[0].merge_claim("m7", MemberState.DEAD, 1, 1.0)
        self.says_what_it_holds(maps[0], 2.0)
        assert maps[0].reclaim_dead(4.0, 2.0) == ["m7"]
        for mm in (maps[0], maps[1], maps[0]):
            self.says_what_it_holds(mm)
        assert len(maps[0].snapshot(5.0)) == 7 and len(maps[1].snapshot(5.0)) == 8
        # Nobody told m1, and m0 takes the member back on m1's word.
        assert self.merges_like_a_twin(maps[1], self.twin_of(maps[1]), maps[0]) == [
            ("m1", MERGE_LOCAL)
        ]
        assert self.merges_like_a_twin(maps[0], self.twin_of(maps[0]), maps[1]) == [
            ("m0", MERGE_LOCAL), ("m7", MERGE_ADDED)
        ]

    def test_a_claim_the_wire_cannot_carry_is_never_half_published(self):
        roster, maps = self.cluster(full=2)
        maps[0].snapshot(5.0)
        before = (
            bytes(roster.published_states), roster.published_incarnations.tolist(),
            list(roster.published_records), list(roster.entries), set(roster.alive),
        )
        # One change that could be published, then one that cannot.
        maps[1].merge_claim("m3", MemberState.DEAD, 1, 1.0)
        maps[1].add("n" * 256, "a", 1, MemberState.ALIVE, 1.0)
        for _ in range(2):
            with pytest.raises(codec.CodecError, match="string too long"):
                maps[1].snapshot(5.0)
            assert before == (
                bytes(roster.published_states[:8]),
                roster.published_incarnations[:8].tolist(),
                roster.published_records[:8], roster.entries[:8], roster.alive,
            )
            assert roster.entries[8:] == [b""]
        self.says_what_it_holds(maps[0])
        # It still merges, eliding nothing it cannot vouch for.
        assert self.merges_like_a_twin(maps[1], self.twin_of(maps[1]), maps[0]) == [
            ("m1", MERGE_LOCAL)
        ]


class TestClaims:
    def test_apply_superseding_claim(self):
        mm = make_map(1)
        assert mm.apply_claim("m0", MemberState.SUSPECT, 1, 5.0)
        member = mm.get("m0")
        assert member.is_suspect
        assert member.state_changed_at == 5.0

    def test_stale_claim_ignored(self):
        mm = make_map(1)
        mm.apply_claim("m0", MemberState.ALIVE, 3, 0.0)
        assert not mm.apply_claim("m0", MemberState.SUSPECT, 2, 1.0)
        assert mm.get("m0").is_alive

    def test_unknown_member_raises(self):
        mm = make_map(0)
        with pytest.raises(KeyError):
            mm.apply_claim("ghost", MemberState.ALIVE, 1, 0.0)

    def test_incarnation_only_update_reports_changed(self):
        mm = make_map(1)
        assert mm.apply_claim("m0", MemberState.ALIVE, 2, 1.0)
        # State unchanged so state_changed_at is untouched.
        assert mm.get("m0").state_changed_at == 0.0

    def test_bump_local_incarnation(self):
        mm = make_map(0)
        assert mm.bump_local_incarnation(at_least=5) == 6
        assert mm.bump_local_incarnation(at_least=2) == 7

    def test_num_alive_tracks_transitions(self):
        mm = make_map(3)
        assert mm.num_alive() == 4
        mm.apply_claim("m0", MemberState.SUSPECT, 1, 0.0)
        assert mm.num_alive() == 3
        mm.apply_claim("m0", MemberState.DEAD, 1, 0.0)
        assert mm.num_alive() == 3
        mm.apply_claim("m0", MemberState.ALIVE, 2, 0.0)
        assert mm.num_alive() == 4

    @settings(max_examples=50)
    @given(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.sampled_from(list(MemberState)),
            st.integers(min_value=0, max_value=6),
        ),
        max_size=40,
    ))
    def test_alive_count_matches_recount(self, operations):
        """The incremental alive counter never drifts from a full scan."""
        mm = make_map(5)
        for member_index, state, incarnation in operations:
            mm.apply_claim(f"m{member_index}", state, incarnation, 0.0)
            recount = sum(1 for m in mm.members() if m.is_alive)
            assert mm.num_alive() == recount


class TestProbeSchedule:
    def test_round_robin_covers_everyone(self):
        mm = make_map(5)
        seen = {mm.next_probe_target().name for _ in range(5)}
        assert seen == {f"m{i}" for i in range(5)}

    def test_never_probes_self(self):
        mm = make_map(3)
        for _ in range(30):
            target = mm.next_probe_target()
            assert target.name != "self"

    def test_skips_dead_members(self):
        mm = make_map(3)
        mm.apply_claim("m1", MemberState.DEAD, 1, 0.0)
        for _ in range(20):
            assert mm.next_probe_target().name != "m1"

    def test_probes_suspect_members(self):
        """Suspects must keep being probed — that is one refutation path."""
        mm = make_map(3)
        mm.apply_claim("m1", MemberState.SUSPECT, 1, 0.0)
        seen = {mm.next_probe_target().name for _ in range(9)}
        assert "m1" in seen

    def test_empty_group_returns_none(self):
        mm = make_map(0)
        assert mm.next_probe_target() is None

    def test_all_dead_returns_none(self):
        mm = make_map(2)
        mm.apply_claim("m0", MemberState.DEAD, 1, 0.0)
        mm.apply_claim("m1", MemberState.DEAD, 1, 0.0)
        assert mm.next_probe_target() is None

    def test_each_round_is_a_permutation(self):
        mm = make_map(6)
        for _round in range(4):
            targets = [mm.next_probe_target().name for _ in range(6)]
            assert sorted(targets) == sorted(f"m{i}" for i in range(6))

    def test_new_member_joins_schedule(self):
        mm = make_map(2)
        mm.add("late", "addr", 1, MemberState.ALIVE, 0.0)
        seen = {mm.next_probe_target().name for _ in range(6)}
        assert "late" in seen


class TestReclaim:
    def test_reclaims_only_expired_dead(self):
        mm = make_map(3)
        mm.apply_claim("m0", MemberState.DEAD, 1, 10.0)
        mm.apply_claim("m1", MemberState.DEAD, 1, 50.0)
        reclaimed = mm.reclaim_dead(now=80.0, retention=60.0)
        assert reclaimed == ["m0"]
        assert "m0" not in mm
        assert "m1" in mm

    def test_left_members_reclaimed_too(self):
        mm = make_map(1)
        mm.apply_claim("m0", MemberState.LEFT, 1, 0.0)
        assert mm.reclaim_dead(now=100.0, retention=60.0) == ["m0"]

    def test_alive_never_reclaimed(self):
        mm = make_map(2)
        assert mm.reclaim_dead(now=1e9, retention=0.0) == []
        assert len(mm) == 3

    def test_probe_schedule_consistent_after_reclaim(self):
        mm = make_map(5)
        mm.apply_claim("m2", MemberState.DEAD, 1, 0.0)
        mm.next_probe_target()
        mm.reclaim_dead(now=100.0, retention=1.0)
        seen = {mm.next_probe_target().name for _ in range(10)}
        assert "m2" not in seen
        assert seen == {f"m{i}" for i in range(5) if i != 2}

    def test_a_retained_death_is_walked_for_once(self):
        """Every probe tick asks; while the one dead member's retention
        runs, only the first call walks the table."""
        mm = make_map(50)
        mm.apply_claim("m7", MemberState.DEAD, 1, 10.0)
        mm._order = order = _CountingOrder("I", mm._order)
        for step in range(1000):
            assert mm.reclaim_dead(10.0 + step * 0.05, 60.0) == []
        assert order.walks == 1
        assert mm.reclaim_dead(70.0, 60.0) == ["m7"]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("tick"), st.floats(0.0, 8.0)),
            st.tuples(
                st.just("dead"), st.integers(0, 5),
                st.sampled_from([MemberState.DEAD, MemberState.LEFT]),
                st.floats(0.0, 20.0),
            ),
            st.tuples(st.just("alive"), st.integers(0, 5)),
            st.tuples(st.just("reclaim"), st.floats(0.0, 30.0)),
        ),
        max_size=60,
    ))
    def test_reclaims_on_the_call_a_full_walk_would(self, operations):
        """Against the rule read off every row on every call: deaths,
        departures, deaths backdated by a merge's age, members coming
        back, retentions that vary from call to call."""
        mm = make_map(6)
        now = 0.0
        for op in operations:
            if op[0] == "tick":
                now += op[1]
            elif op[0] == "reclaim":
                retention = op[1]
                expected = [
                    m.name for m in mm.members()
                    if m.is_dead and now - m.state_changed_at >= retention
                ]
                assert mm.reclaim_dead(now, retention) == expected
            else:
                name = f"m{op[1]}"
                incarnation = mm.known_incarnation(name)
                if op[0] == "dead":
                    mm.merge_claim(name, op[2], incarnation, now, age=op[3])
                else:
                    mm.merge_claim(
                        name, MemberState.ALIVE, incarnation + 1, now, address=name
                    )


class _CountingOrder(array):
    """A table-insertion order that counts the walks made over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


class TestSharedBootstrapTable:
    """Maps preseeded from one roster hold one read-only table until
    each first writes; nothing one of them does reaches the others."""

    NAMES = [f"m{i}" for i in range(6)]

    def bootstrapped(self):
        roster = Roster()
        maps = [
            MemberMap(name, f"{name}:1", random.Random(i), roster=roster)
            for i, name in enumerate(self.NAMES)
        ]
        for mm in maps:
            mm.add_many(range(len(roster)), 1, MemberState.ALIVE, 0.0)
        return roster, maps

    def never_shared(self, name):
        """The same table on a private roster, one ``add`` per member."""
        reference = MemberMap(name, f"{name}:1", random.Random(0))
        for other in self.NAMES:
            if other != name:
                reference.add(other, f"{other}:1", 1, MemberState.ALIVE, 0.0)
        return reference

    @staticmethod
    def columns(mm):
        return (mm._states, mm._incarnations, mm._changed_at, mm._records)

    @staticmethod
    def reads(mm, now=7.0):
        rows = [
            (m.name, m.state, m.incarnation, m.state_changed_at, m.address,
             m.meta, m.zone)
            for m in mm.members()
        ]
        return rows, list(mm.claims()), mm.snapshot(now).wire

    def test_maps_of_one_roster_hold_one_table(self):
        roster, maps = self.bootstrapped()
        table = roster.bootstrap(MemberState.ALIVE, 1, 0.0)
        for mm in maps:
            assert mm.shares_table
            assert all(a is b for a, b in zip(self.columns(mm), table))
            assert self.reads(mm) == self.reads(self.never_shared(mm.local_name))

    def test_a_write_to_a_shared_column_raises(self):
        _, maps = self.bootstrapped()
        for column, value in zip(self.columns(maps[0]), (2, 5, 1.0, None)):
            with pytest.raises(TypeError):
                column[1] = value

    def test_the_first_write_copies_the_writer_only(self):
        roster, maps = self.bootstrapped()
        maps[2].apply_claim("m4", MemberState.SUSPECT, 1, 3.0)
        assert not maps[2].shares_table
        assert [type(c) for c in self.columns(maps[2])] == [
            bytearray, array, array, list,
        ]
        assert maps[2].get("m4").is_suspect
        assert all(mm.shares_table for i, mm in enumerate(maps) if i != 2)
        assert maps[0].get("m4").is_alive

    def test_a_quiet_publish_is_an_identity_check(self, monkeypatch):
        roster, maps = self.bootstrapped()
        maps[0].snapshot(1.0)
        assert roster.published_from is maps[0]._incarnations
        calls = []
        monkeypatch.setattr(Roster, "publish", lambda *a: calls.append(a))
        for mm in maps:
            mm.snapshot(2.0)
        assert calls == []

    def test_growing_the_roster_copies_nobody(self):
        roster, maps = self.bootstrapped()
        maps[0].snapshot(1.0)
        late = MemberMap("late", "late:1", random.Random(9), roster=roster)
        assert len(roster) == len(self.NAMES) + 1
        for mm in maps:
            assert "late" not in mm and mm.get("late") is None
            assert mm.known_incarnation("late") == -1
            assert len(mm.snapshot(2.0)) == len(self.NAMES)
            assert mm.shares_table
        # A push-pull from the joiner: only the map that merges it copies.
        decisions, _ = maps[1].merge_remote_wire_state(late.snapshot(3.0), 3.0)
        assert [(d.name, d.action) for d in decisions] == [("late", MERGE_ADDED)]
        assert [mm.shares_table for mm in maps] == [True, False] + [True] * 4

    @settings(max_examples=100, deadline=None)
    @given(
        writer=st.integers(0, 5),
        operations=st.lists(
            st.one_of(
                st.tuples(st.just("add"), st.integers(0, 3)),
                st.tuples(
                    st.just("claim"), st.integers(0, 5),
                    st.sampled_from(list(MemberState)), st.integers(0, 3),
                    st.floats(0.0, 5.0), st.binary(max_size=2),
                ),
                st.tuples(
                    st.just("apply"), st.integers(0, 5),
                    st.sampled_from(list(MemberState)), st.integers(0, 3),
                ),
                st.tuples(st.just("bump"), st.integers(0, 4)),
                st.tuples(st.just("meta"), st.binary(max_size=3)),
                st.tuples(st.just("reclaim"), st.floats(0.0, 5.0)),
                st.tuples(st.just("extend"), st.integers(0, 3)),
                st.tuples(st.just("wire"), st.integers(0, 5)),
                st.tuples(st.just("remote"), st.integers(0, 5), st.integers(0, 3)),
            ),
            max_size=25,
        ),
    )
    def test_one_maps_writes_reach_no_other(self, writer, operations):
        """Every public mutator, in any order, on one map of a shared
        roster; the others must read exactly what a never-shared table
        reads, and still hold the one table."""
        roster, maps = self.bootstrapped()
        table = roster.bootstrap(MemberState.ALIVE, 1, 0.0)
        mm = maps[writer]
        now, extended = 1.0, 0
        for op in operations:
            now += 0.5
            kind = op[0]
            if kind == "add":
                name = f"j{op[1]}"
                if name not in mm:
                    mm.add(name, f"{name}:1", 1, MemberState.ALIVE, now)
            elif kind == "claim":
                _, index, state, incarnation, age, meta = op
                mm.merge_claim(
                    f"m{index}", state, incarnation, now,
                    address=f"moved{index}", meta=meta, age=age, zone="z",
                )
            elif kind == "apply":
                _, index, state, incarnation = op
                if f"m{index}" in mm:
                    mm.apply_claim(f"m{index}", state, incarnation, now)
            elif kind == "bump":
                mm.bump_local_incarnation(op[1])
            elif kind == "meta":
                mm.set_local_meta(op[1])
            elif kind == "reclaim":
                mm.reclaim_dead(now, op[1])
            elif kind == "extend":
                span = roster.extend(
                    [(f"x{extended + i}", "x", b"", "") for i in range(op[1])]
                )
                extended += op[1]
                mm.add_many(span, 2, MemberState.SUSPECT, now)
            elif kind == "wire":
                mm.merge_remote_wire_state(maps[op[1]].snapshot(now), now)
            else:
                _, index, incarnation = op
                mm.merge_remote_state(
                    [(f"m{index}", "r", incarnation, MemberState.DEAD, 2.0, b"")],
                    now,
                )
        for other in maps:
            if other is mm:
                continue
            assert other.shares_table
            assert all(a is b for a, b in zip(self.columns(other), table))
            assert self.reads(other) == self.reads(self.never_shared(other.local_name))


class TestRandomMembers:
    def test_respects_count(self):
        mm = make_map(10)
        assert len(mm.random_members(3)) == 3

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_samples_what_a_list_of_the_same_members_would(self, seed):
        """The active index is an ``array``; ``rng.sample`` must draw
        from it exactly as it did from the list it replaced."""
        mm = make_map(40, seed=seed)
        mm.apply_claim("m7", MemberState.DEAD, 1, 0.0)
        mm.apply_claim("m9", MemberState.SUSPECT, 1, 0.0)
        reference = random.Random()
        for kwargs in ({}, {"exclude": ("m3",)}, {"include_suspect": False}):
            reference.setstate(mm._rng.getstate())
            candidates = [
                name
                for name in mm.names()
                if name not in ("self", "m7", *kwargs.get("exclude", ()))
                and (kwargs.get("include_suspect", True) or name != "m9")
            ]
            expected = reference.sample(candidates, 5)
            assert [m.name for m in mm.random_members(5, **kwargs)] == expected
            assert mm._rng.getstate() == reference.getstate()

    def test_returns_all_when_count_exceeds(self):
        mm = make_map(3)
        assert len(mm.random_members(10)) == 3

    def test_excludes_local_and_requested(self):
        mm = make_map(4)
        members = mm.random_members(10, exclude=("m1",))
        names = {m.name for m in members}
        assert "self" not in names
        assert "m1" not in names

    def test_suspects_included_by_default(self):
        mm = make_map(3)
        mm.apply_claim("m0", MemberState.SUSPECT, 1, 0.0)
        names = {m.name for m in mm.random_members(10)}
        assert "m0" in names

    def test_suspects_excludable(self):
        mm = make_map(3)
        mm.apply_claim("m0", MemberState.SUSPECT, 1, 0.0)
        names = {m.name for m in mm.random_members(10, include_suspect=False)}
        assert "m0" not in names

    def test_dead_excluded_by_default(self):
        mm = make_map(3)
        mm.apply_claim("m0", MemberState.DEAD, 1, 0.0)
        names = {m.name for m in mm.random_members(10)}
        assert "m0" not in names

    def test_gossip_to_recent_dead(self):
        """memberlist gossips to the recently dead so false positives
        recover quickly."""
        mm = make_map(3)
        mm.apply_claim("m0", MemberState.DEAD, 1, 100.0)
        names = {
            m.name
            for m in mm.random_members(10, gossip_to_dead_within=30.0, now=120.0)
        }
        assert "m0" in names
        names = {
            m.name
            for m in mm.random_members(10, gossip_to_dead_within=30.0, now=200.0)
        }
        assert "m0" not in names
