"""Tests for the membership table and round-robin probe schedule."""

import random
from array import array

import pytest
from repro.swim import codec
from repro.swim.member_map import MERGE_ADDED, MERGE_LOCAL, MemberMap
from repro.swim.roster import Roster
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
        assert mm.next_probe_target() == "m0"

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
    def test_a_claim_the_wire_cannot_carry_is_never_half_published(self):
        roster = Roster()
        roster.extend((f"m{i}", "a", b"", "") for i in range(8))
        sender, mm = (
            MemberMap(f"m{i}", "a", random.Random(i), roster=roster) for i in (0, 1)
        )
        for each in (sender, mm):
            each.add_many(range(8), 1, MemberState.ALIVE, 0.0)
        sender.snapshot(5.0)

        def published():
            return (
                bytes(roster.published_states[:8]), roster.published_incarnations[:8],
                roster.published_records[:8], roster.entries[:8], set(roster.alive),
            )

        before = published()
        mm.merge_claim("m3", MemberState.DEAD, 1, 1.0)  # could be published...
        mm.add("n" * 256, "a", 1, MemberState.ALIVE, 1.0)  # ...and cannot be
        for _ in range(2):
            with pytest.raises(codec.CodecError, match="string too long"):
                mm.snapshot(5.0)
            assert published() == before and roster.entries[8:] == [b""]
        # It still merges, eliding nothing it cannot vouch for.
        decisions, total = mm.merge_remote_wire_state(sender.snapshot(5.0), 5.0)
        assert [(d.name, d.action) for d in decisions] == [("m1", MERGE_LOCAL)]
        assert total == 8


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


class TestProbeSchedule:
    def test_round_robin_covers_everyone(self):
        mm = make_map(5)
        seen = {mm.next_probe_target() for _ in range(5)}
        assert seen == {f"m{i}" for i in range(5)}

    def test_never_probes_self(self):
        mm = make_map(3)
        for _ in range(30):
            target = mm.next_probe_target()
            assert target != "self"

    def test_skips_dead_members(self):
        mm = make_map(3)
        mm.apply_claim("m1", MemberState.DEAD, 1, 0.0)
        for _ in range(20):
            assert mm.next_probe_target() != "m1"

    def test_probes_suspect_members(self):
        """Suspects must keep being probed — that is one refutation path."""
        mm = make_map(3)
        mm.apply_claim("m1", MemberState.SUSPECT, 1, 0.0)
        seen = {mm.next_probe_target() for _ in range(9)}
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
            targets = [mm.next_probe_target() for _ in range(6)]
            assert sorted(targets) == sorted(f"m{i}" for i in range(6))

    def test_new_member_joins_schedule(self):
        mm = make_map(2)
        mm.add("late", "addr", 1, MemberState.ALIVE, 0.0)
        seen = {mm.next_probe_target() for _ in range(6)}
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
        seen = {mm.next_probe_target() for _ in range(10)}
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


class _CountingOrder(array):
    """A table-insertion order that counts the walks made over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


class TestSharedBootstrapTable:
    """Maps preseeded from one roster hold one read-only table until
    each first writes (that they read as a private table would is the
    member-table machine's to check)."""

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

    @staticmethod
    def columns(mm):
        return (mm._states, mm._incarnations, mm._changed_at, mm._records)

    def test_maps_of_one_roster_hold_one_table(self):
        roster, maps = self.bootstrapped()
        table = roster.bootstrap(MemberState.ALIVE, 1, 0.0)
        for mm in maps:
            assert mm.shares_table
            assert all(a is b for a, b in zip(self.columns(mm), table))

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
