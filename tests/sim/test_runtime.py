"""Tests for the simulated cluster runtime."""

import gc
import tracemalloc

import pytest

from repro.config import SwimConfig
from repro.sim.runtime import SimCluster, default_member_names
from repro.swim.member_map import _BootstrapOrder
from repro.swim.state import MemberState


def small_config(**overrides):
    params = dict(push_pull_interval=0.0, reconnect_interval=0.0)
    params.update(overrides)
    return SwimConfig.swim_baseline(**params)


class TestConstruction:
    def test_default_names(self):
        assert default_member_names(3) == ["m000", "m001", "m002"]
        assert len(default_member_names(1500)[0]) == 5  # m0000

    def test_explicit_names(self):
        cluster = SimCluster(names=["x", "y"], config=small_config())
        assert cluster.names == ["x", "y"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SimCluster(names=["x", "x"], config=small_config())

    def test_needs_members(self):
        with pytest.raises(ValueError):
            SimCluster(n_members=0, config=small_config())

    def test_bad_bootstrap_rejected(self):
        with pytest.raises(ValueError):
            SimCluster(n_members=2, config=small_config(), bootstrap="weird")

    def test_heterogeneous_config(self):
        def config_for(name):
            if name == "m000":
                return SwimConfig.lifeguard()
            return SwimConfig.swim_baseline()

        cluster = SimCluster(n_members=3, config=config_for)
        assert cluster.nodes["m000"].config.flags.lha_probe
        assert not cluster.nodes["m001"].config.flags.lha_probe


class TestLifecycle:
    def test_preseed_starts_with_full_membership(self):
        cluster = SimCluster(n_members=5, config=small_config())
        cluster.start()
        assert all(len(node.members) == 5 for node in cluster.nodes.values())
        assert cluster.all_converged_alive()

    def test_preseed_seeds_every_table_with_what_members_announce(self):
        cluster = SimCluster(
            n_members=3,
            config=lambda name: small_config(zone=f"z-{name}"),
            meta_for=lambda name: f"service={name}".encode(),
        )
        # Still before start(): the bootstrap hands out the latest record.
        cluster.nodes["m002"].set_meta(b"service=changed")
        cluster.start()
        seen = cluster.nodes["m001"].members
        assert [(m.name, m.meta, m.zone) for m in seen.members()] == [
            ("m001", b"service=m001", "z-m001"),
            ("m000", b"service=m000", "z-m000"),
            ("m002", b"service=changed", "z-m002"),
        ]
        # One record per subject, referenced by every observer.
        assert len({id(n.members._records[0]) for n in cluster.nodes.values()}) == 1

    def test_preseed_start_allocates_gc_objects_linearly(self):
        """The n**2 (observer, subject) pairs live in array columns, not
        in objects: what ``start()`` leaves for the cyclic GC to walk is
        a handful of timers and lists per member (8 today; the per-pair
        ``Member`` objects this guards against were 263 per member at
        n=256)."""
        n = 256
        cluster = SimCluster(n_members=n, config=SwimConfig.lifeguard(), seed=1)
        gc.collect()
        before = len(gc.get_objects())
        cluster.start()
        assert len(gc.get_objects()) - before <= 16 * n

    def test_preseed_start_allocates_table_memory_linearly_per_pair(self):
        """What ``start()`` leaves allocated grows by at most ~6 bytes
        per added (observer, subject) pair, plus a per-member constant:
        the 4-byte probe order is all a quiet table costs per pair (the
        table-insertion order is two ints a map until its first insert;
        a private copy of the table per observer was ~37 bytes)."""

        def left_by_start(n):
            cluster = SimCluster(n_members=n, config=SwimConfig.lifeguard(), seed=1)
            tracemalloc.start()
            try:
                cluster.start()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        small, large = left_by_start(256), left_by_start(512)
        pairs = 512 * 512 - 256 * 256
        assert large - small <= 6 * pairs + 2048 * (512 - 256)

    def test_a_quiet_member_costs_its_state_not_its_scaffolding(self):
        """What construction plus ``start()`` leaves allocated is
        ``c + m*n + p*n**2``; three sizes solve it exactly. A member's
        ``m`` is its node, map, scheduler, RNG, queues and timers, slotted
        and built only as used (9,279 bytes when each had an instance
        dict and every node a user-event queue); a pair's ``p`` is the
        probe order's 4 bytes (9.0 while every map also held its own
        table-insertion order)."""

        def left_by_cluster(n):
            gc.collect()
            tracemalloc.start()
            try:
                cluster = SimCluster(n_members=n, config=SwimConfig.lifeguard(), seed=1)
                cluster.start()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        b1, b2, b4 = (left_by_cluster(n) for n in (128, 256, 512))
        # Differences over 128 and 256 added members: m + 384p, m + 768p.
        d1, d2 = (b2 - b1) / 128, (b4 - b2) / 256
        per_pair = (d2 - d1) / 384
        per_member = d1 - 384 * per_pair
        assert per_member <= 7300, (per_member, per_pair)
        assert per_pair <= 6, (per_member, per_pair)

    def test_a_quiet_cluster_holds_one_table(self):
        """``flat1024_steady``'s cluster: after ``start()`` and after 10
        quiet virtual seconds every map still holds the roster's one
        bootstrap table, by identity, and its bootstrap insertion
        order."""
        cluster = SimCluster(n_members=1024, config=SwimConfig.lifeguard(), seed=1)
        cluster.start()
        table = cluster.roster.bootstrap(MemberState.ALIVE, 1, 0.0)
        for _ in range(2):
            for node in cluster.nodes.values():
                members = node.members
                columns = (
                    members._states, members._incarnations,
                    members._changed_at, members._records,
                )
                assert all(a is b for a, b in zip(columns, table))
                assert members._order.__class__ is _BootstrapOrder
            cluster.run_for(10.0)

    def test_join_bootstrap_converges(self):
        cluster = SimCluster(
            n_members=8, config=SwimConfig.swim_baseline(), bootstrap="join"
        )
        cluster.start()
        cluster.run_for(20.0)
        assert cluster.all_converged_alive()

    def test_double_start_rejected(self):
        cluster = SimCluster(n_members=2, config=small_config())
        cluster.start()
        with pytest.raises(RuntimeError):
            cluster.start()

    def test_stop_halts_all(self):
        cluster = SimCluster(n_members=3, config=small_config())
        cluster.start()
        cluster.stop()
        assert all(not node.running for node in cluster.nodes.values())

    def test_run_until_converged_times_out(self):
        cluster = SimCluster(n_members=4, config=small_config())
        cluster.start()
        cluster.nodes["m000"].stop()
        cluster.run_for(15.0)  # m000 gets declared dead
        assert not cluster.run_until_converged(cluster.now + 5.0)

    def test_spawned_member_gets_cluster_meta_and_user_events(self):
        """Regression: ``spawn_member`` dropped the cluster's ``meta_for``
        and ``on_user_event``, so a member spawned mid-run advertised
        empty metadata and never delivered user events."""
        received = []
        cluster = SimCluster(
            n_members=4,
            config=small_config(),
            meta_for=lambda name: f"service={name}".encode(),
            on_user_event=lambda receiver, event: received.append(
                (receiver, event.payload)
            ),
        )
        cluster.start()
        node = cluster.spawn_member("late", join_via="m000")
        assert node.meta == b"service=late"
        cluster.run_for(10.0)
        assert cluster.nodes["m003"].members.get("late").meta == b"service=late"
        cluster.nodes["m001"].broadcast_event(b"deploy")
        cluster.run_for(10.0)
        assert ("late", b"deploy") in received
        assert sorted(r for r, _ in received) == sorted(cluster.names)


class TestObservation:
    def test_view(self):
        cluster = SimCluster(n_members=3, config=small_config())
        cluster.start()
        assert cluster.view("m000", "m001") is MemberState.ALIVE
        assert cluster.view("m000", "ghost") is None

    def test_unanimity_after_true_failure(self):
        cluster = SimCluster(n_members=6, config=small_config())
        cluster.start()
        cluster.run_for(5.0)
        cluster.nodes["m002"].stop()
        cluster.run_for(30.0)
        assert cluster.unanimity("m002", MemberState.DEAD)

    def test_telemetry_aggregates_all_nodes(self):
        cluster = SimCluster(n_members=4, config=small_config())
        cluster.start()
        cluster.run_for(5.0)
        total = cluster.telemetry()
        assert total.msgs_sent == sum(
            node.telemetry.msgs_sent for node in cluster.nodes.values()
        )
        assert total.msgs_sent > 0

    def test_event_log_shared(self):
        cluster = SimCluster(n_members=4, config=small_config())
        cluster.start()
        cluster.nodes["m000"].stop()
        cluster.run_for(20.0)
        observers = {e.observer for e in cluster.event_log.failures_about("m000")}
        assert observers == {"m001", "m002", "m003"}


class TestDeterminism:
    def _run(self, seed):
        cluster = SimCluster(n_members=12, config=SwimConfig.lifeguard(), seed=seed)
        cluster.start()
        cluster.run_for(10.0)
        cluster.anomalies.block_windows(
            ["m003", "m007"], cluster.now, cluster.now + 15.0
        )
        cluster.run_for(30.0)
        telemetry = cluster.telemetry()
        events = [
            (e.time, e.observer, e.subject, e.kind) for e in cluster.event_log.events
        ]
        return telemetry.msgs_sent, telemetry.bytes_sent, events

    def test_identical_runs_for_same_seed(self):
        assert self._run(42) == self._run(42)

    def test_different_seeds_diverge(self):
        assert self._run(1) != self._run(2)
