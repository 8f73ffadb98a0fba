"""Unit tests for the pluggable probe-target scheduling strategies.

Covers the registry/config contract, the round-robin immediate-repeat
regression (a round-boundary reshuffle used to let the same member be
probed in two consecutive protocol periods), the weighting behavior of
the likelihood/LHM-RTT strategies, determinism under a shared seeded RNG,
and state cleanup when members are reclaimed.
"""

import random

import pytest

from repro.config import PROBE_SCHEDULER_NAMES, SwimConfig
from repro.swim.member_map import MemberMap
from repro.swim.probe_scheduler import (
    PROBE_SCHEDULERS,
    LhmRttScheduler,
    LikelihoodWeightedScheduler,
    ProbeScheduler,
    RoundRobinScheduler,
    make_probe_scheduler,
)
from repro.swim.state import MemberState


def make_map(n, seed=1, scheduler=None):
    mm = MemberMap("local", "local:7946", random.Random(seed), probe_scheduler=scheduler)
    for i in range(n):
        mm.add(f"m{i}", f"m{i}:7946", 1, MemberState.ALIVE, 0.0)
    return mm


class TestRegistry:
    def test_registry_matches_config_names(self):
        """config.py cannot import the registry (import cycle), so the
        two sources of truth are pinned against each other here."""
        assert tuple(PROBE_SCHEDULERS) == PROBE_SCHEDULER_NAMES

    @pytest.mark.parametrize("name", PROBE_SCHEDULER_NAMES)
    def test_factory_builds_each_strategy(self, name):
        scheduler = make_probe_scheduler(name)
        assert scheduler.name == name
        assert scheduler.selections == 0

    def test_factory_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown probe scheduler"):
            make_probe_scheduler("definitely-not-a-strategy")

    @pytest.mark.parametrize("name", PROBE_SCHEDULER_NAMES)
    def test_config_accepts_each_strategy(self, name):
        assert SwimConfig(probe_scheduler=name).probe_scheduler == name

    def test_config_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="probe_scheduler"):
            SwimConfig(probe_scheduler="nope")

    def test_scheduler_cannot_be_rebound(self):
        scheduler = RoundRobinScheduler()
        make_map(2, scheduler=scheduler)
        with pytest.raises(RuntimeError, match="already bound"):
            scheduler.bind(make_map(1), random.Random(0))

    @pytest.mark.parametrize("name", PROBE_SCHEDULER_NAMES)
    def test_an_unbound_scheduler_holds_no_rng_and_cannot_draw(self, name):
        scheduler = make_probe_scheduler(name)
        assert scheduler._rng is None
        with pytest.raises(RuntimeError, match="not bound to a member map"):
            scheduler._draws()
        mm = make_map(2, scheduler=scheduler)
        assert scheduler._draws() is mm._rng

    def test_an_unbound_round_robin_refuses_members(self):
        with pytest.raises(RuntimeError, match="not bound to a member map"):
            RoundRobinScheduler().on_members_added(["m0"])


class TestRoundRobinNoImmediateRepeat:
    """Regression: a round-boundary reshuffle could place the just-probed
    member at the front of the fresh round, probing it twice in a row."""

    @pytest.mark.parametrize("seed", [1, 2, 7, 1234])
    def test_two_members_always_alternate(self, seed):
        # With exactly two probeable members every wrap used to have a
        # 50% chance of an immediate repeat, so 60 selections repeat with
        # probability 1 - 2^-30 per seed under the old code.
        mm = make_map(2, seed=seed)
        picks = [mm.next_probe_target() for _ in range(60)]
        for previous, current in zip(picks, picks[1:]):
            assert previous != current

    @pytest.mark.parametrize("seed", range(20))
    def test_no_consecutive_repeats_with_churning_table(self, seed):
        rng = random.Random(seed)
        mm = make_map(5, seed=seed)
        previous = None
        now = 0.0
        for step in range(200):
            now += 1.0
            # Drift the table: occasional deaths and reclaims keep the
            # order list and the probeable set diverging.
            if rng.random() < 0.1:
                alive = [m for m in mm.probeable_members()]
                if len(alive) > 2:
                    victim = alive[rng.randrange(len(alive))]
                    mm.apply_claim(victim.name, MemberState.DEAD,
                                   victim.incarnation, now)
            if rng.random() < 0.05:
                mm.reclaim_dead(now, 5.0)
            target = mm.next_probe_target(now)
            if target is None:
                previous = None
                continue
            if mm.num_probeable() >= 2:
                assert target != previous
            previous = target

    def test_single_member_repeat_is_allowed(self):
        # With one probeable member a repeat beats an idle period.
        mm = make_map(1)
        picks = {mm.next_probe_target() for _ in range(5)}
        assert picks == {"m0"}

    def test_round_coverage_is_preserved(self):
        # The deferral must not starve anyone: every member still appears
        # within any window of 2n selections.
        mm = make_map(6)
        picks = [mm.next_probe_target() for _ in range(12)]
        assert set(picks) == {f"m{i}" for i in range(6)}


class TestSelectionCounter:
    @pytest.mark.parametrize("name", PROBE_SCHEDULER_NAMES)
    def test_selections_count_successful_picks_only(self, name):
        mm = make_map(3, scheduler=make_probe_scheduler(name))
        for _ in range(7):
            assert mm.next_probe_target(1.0) is not None
        assert mm.probe_scheduler.selections == 7

    def test_none_result_not_counted(self):
        mm = make_map(0)
        assert mm.next_probe_target() is None
        assert mm.probe_scheduler.selections == 0


class TestLikelihoodWeighted:
    def test_stale_member_probed_more_often(self):
        scheduler = LikelihoodWeightedScheduler()
        mm = make_map(4, seed=3, scheduler=scheduler)
        now = 100.0
        # m0 was never confirmed since t=0; the others are fresh.
        for name in ("m1", "m2", "m3"):
            scheduler.note_confirmation(name, now - 0.5)
        counts = {f"m{i}": 0 for i in range(4)}
        for _ in range(400):
            counts[mm.next_probe_target(now)] += 1
        # m0 carries ~60s of (capped) staleness vs 0.5s + floor for the
        # rest. The previous-target exclusion caps any member at every
        # other selection, so domination shows as m0 taking ~half the
        # schedule while the fresh members split the remainder.
        assert counts["m0"] >= 150
        assert counts["m0"] > max(counts["m1"], counts["m2"], counts["m3"]) * 2

    def test_no_immediate_repeat_with_two_candidates(self):
        scheduler = LikelihoodWeightedScheduler()
        mm = make_map(2, seed=5, scheduler=scheduler)
        picks = [mm.next_probe_target(10.0) for _ in range(40)]
        for previous, current in zip(picks, picks[1:]):
            assert previous != current

    def test_fresh_members_stay_in_rotation(self):
        # The weight floor keeps a fully confirmed group probeable.
        scheduler = LikelihoodWeightedScheduler()
        mm = make_map(3, seed=9, scheduler=scheduler)
        for name in ("m0", "m1", "m2"):
            scheduler.note_confirmation(name, 50.0)
        picks = {mm.next_probe_target(50.0) for _ in range(60)}
        assert picks == {"m0", "m1", "m2"}

    def test_removal_drops_confirmation_state(self):
        scheduler = LikelihoodWeightedScheduler()
        mm = make_map(3, scheduler=scheduler)
        scheduler.note_confirmation("m1", 5.0)
        member = mm.get("m1")
        mm.apply_claim("m1", MemberState.DEAD, member.incarnation, 10.0)
        mm.reclaim_dead(100.0, 1.0)
        assert "m1" not in scheduler._confirmed_at
        assert all(mm.next_probe_target(100.0) != "m1" for _ in range(10))


class TestLhmRtt:
    def test_high_rtt_member_gets_more_probes(self):
        scheduler = LhmRttScheduler()
        mm = make_map(4, seed=11, scheduler=scheduler)
        now = 30.0
        for name in ("m0", "m1", "m2", "m3"):
            scheduler.note_confirmation(name, now - 1.0)
        # Equal staleness; m2's link is 10x slower than the rest.
        for _ in range(5):
            for name in ("m0", "m1", "m3"):
                scheduler.note_ack(name, 0.05, now)
            scheduler.note_ack("m2", 0.5, now)
        counts = {f"m{i}": 0 for i in range(4)}
        for _ in range(400):
            counts[mm.next_probe_target(now)] += 1
        assert counts["m2"] > max(counts["m0"], counts["m1"], counts["m3"])

    def test_suspect_member_boosted(self):
        scheduler = LhmRttScheduler()
        mm = make_map(4, seed=13, scheduler=scheduler)
        now = 30.0
        for i in range(4):
            scheduler.note_confirmation(f"m{i}", now - 1.0)
        member = mm.get("m2")
        mm.apply_claim("m2", MemberState.SUSPECT, member.incarnation, now)
        counts = {f"m{i}": 0 for i in range(4)}
        for _ in range(400):
            counts[mm.next_probe_target(now)] += 1
        assert counts["m2"] > max(counts["m0"], counts["m1"], counts["m3"])

    def test_removal_drops_rtt_state(self):
        scheduler = LhmRttScheduler()
        mm = make_map(2, scheduler=scheduler)
        scheduler.note_ack("m0", 0.1, 1.0)
        member = mm.get("m0")
        mm.apply_claim("m0", MemberState.DEAD, member.incarnation, 2.0)
        mm.reclaim_dead(100.0, 1.0)
        assert "m0" not in scheduler._rtt_ewma


class TestDeterminism:
    @pytest.mark.parametrize("name", PROBE_SCHEDULER_NAMES)
    def test_same_seed_same_schedule(self, name):
        def run(seed):
            mm = make_map(6, seed=seed, scheduler=make_probe_scheduler(name))
            mm.probe_scheduler.note_ack("m1", 0.2, 0.5)
            mm.probe_scheduler.note_confirmation("m3", 1.0)
            return [mm.next_probe_target(float(i)) for i in range(50)]

        assert run(42) == run(42)
        assert run(42) != run(43)  # and the seed actually matters

    @pytest.mark.parametrize("name", ["likelihood", "lhm-rtt"])
    def test_weighted_strategies_draw_nothing_on_insert(self, name):
        """Only the round-robin order needs a random position per new
        member; the weighted strategies select from the table itself."""
        rng = random.Random(7)
        state = rng.getstate()
        mm = MemberMap(
            "local", "local:7946", rng, probe_scheduler=make_probe_scheduler(name)
        )
        mm.add_many(
            mm.roster.extend((f"m{i}", f"m{i}:7946", b"", "") for i in range(50)),
            1, MemberState.ALIVE, 0.0,
        )
        mm.add("late", "late:7946", 1, MemberState.ALIVE, 0.0)
        assert rng.getstate() == state
        assert mm.next_probe_target(1.0) is not None


class TestBaseInterface:
    def test_base_next_target_is_abstract(self):
        scheduler = ProbeScheduler()
        scheduler.bind(make_map(1), random.Random(0))
        with pytest.raises(NotImplementedError):
            scheduler.next_target()

    def test_hears_acks_follows_the_hook_overrides(self):
        """The node skips ``note_ack`` / ``note_confirmation`` for a
        scheduler that does not hear acks, so whether it does is read
        off the class, never declared by hand."""
        assert not ProbeScheduler.hears_acks
        assert not RoundRobinScheduler.hears_acks
        assert LikelihoodWeightedScheduler.hears_acks
        assert LhmRttScheduler.hears_acks

        class Confirms(RoundRobinScheduler):
            hears_acks = False  # overridden by the class's hooks

            def note_confirmation(self, name, now):
                pass

        class Inherits(Confirms):
            pass

        assert Confirms.hears_acks and Inherits.hears_acks
