"""Unit tests for the invariant oracles, against hand-built node fakes
(so each oracle can be violated precisely) and one real clean cluster."""

import pytest

from repro.check.invariants import (
    BroadcastQueueOracle,
    ConvergenceOracle,
    LhmOracle,
    MembershipOracle,
    OracleSuite,
    ResurrectionOracle,
    SuspicionOracle,
    SyncConvergenceOracle,
    Violation,
)
from repro.config import SwimConfig
from repro.core.lhm import LhmEvent, LocalHealthMultiplier
from repro.sim.runtime import SimCluster
from repro.swim.state import MemberState


class FakeMember:
    def __init__(self, name, state=MemberState.ALIVE, incarnation=1):
        self.name = name
        self.state = state
        self.incarnation = incarnation

    @property
    def is_alive(self):
        return self.state is MemberState.ALIVE

    @property
    def is_suspect(self):
        return self.state is MemberState.SUSPECT


class FakeMap:
    def __init__(self, members):
        self._members = {m.name: m for m in members}

    def members(self):
        return iter(self._members.values())

    def claims(self):
        return ((m.name, m.state, m.incarnation) for m in self._members.values())

    def get(self, name):
        return self._members.get(name)

    def force(self, name, state, incarnation=None):
        """Overwrite a row in place — the illegal transitions the oracles
        exist to catch cannot be produced through a real map's API, and a
        real ``Member`` handle is read-only."""
        row = self._members[name]
        row.state = state
        if incarnation is not None:
            row.incarnation = incarnation

    def __len__(self):
        return len(self._members)


class FakeQueue:
    def __init__(self, rows=()):
        self.rows = list(rows)

    def entries(self):
        return iter(self.rows)


class FakeConfig:
    retransmit_mult = 4
    push_pull_interval = 30.0
    dead_member_reclaim = 600.0


class FakeNode:
    def __init__(self, name, members, suspicions=(), running=True):
        self.name = name
        self.members = FakeMap(members)
        self.running = running
        self.local_health = LocalHealthMultiplier()
        self.config = FakeConfig()
        self.broadcasts = FakeQueue()
        self.user_broadcasts = FakeQueue()
        # Subject -> the incarnation its suspicion is held at (a plain
        # list of subjects holds each at FakeMember's default, 1).
        self._suspicions = (
            dict(suspicions) if isinstance(suspicions, dict)
            else dict.fromkeys(suspicions, 1)
        )

    @property
    def suspicion_count(self):
        return len(self._suspicions)

    def suspicion_incarnations(self):
        return dict(self._suspicions)

    def suspicion_snapshot(self):
        return [
            {
                "member": name,
                "confirmations": 0,
                "k": 3,
                "started_at": 0.0,
                "deadline": 10.0,
                "timeout": 10.0,
                "min_timeout": 2.0,
                "max_timeout": 12.0,
            }
            for name in self._suspicions
        ]


class FakeCluster:
    def __init__(self, *nodes):
        self.nodes = {node.name: node for node in nodes}


def violations_of(oracle, cluster, now=1.0):
    oracle.reset(cluster)
    return oracle.check(cluster, now)


class TestLhmOracle:
    def test_clean_node_passes(self):
        cluster = FakeCluster(FakeNode("a", [FakeMember("a")]))
        assert violations_of(LhmOracle(), cluster) == []

    def test_out_of_bounds_flagged(self):
        node = FakeNode("a", [FakeMember("a")])
        node.local_health._score = 99  # simulate a lost clamp
        out = violations_of(LhmOracle(), FakeCluster(node))
        assert out and "outside" in out[0].detail

    def test_disabled_lhm_must_stay_zero(self):
        node = FakeNode("a", [FakeMember("a")])
        node.local_health = LocalHealthMultiplier(enabled=False)
        node.local_health._score = 2
        out = violations_of(LhmOracle(), FakeCluster(node))
        assert out and "disabled" in out[0].detail

    def test_unexplained_move_flagged(self):
        node = FakeNode("a", [FakeMember("a")])
        cluster = FakeCluster(node)
        oracle = LhmOracle()
        oracle.reset(cluster)
        assert oracle.check(cluster, 1.0) == []
        node.local_health._score = 3  # moved without any recorded event
        out = oracle.check(cluster, 2.0)
        assert out and "not explained" in out[0].detail

    def test_explained_move_passes(self):
        node = FakeNode("a", [FakeMember("a")])
        cluster = FakeCluster(node)
        oracle = LhmOracle()
        oracle.reset(cluster)
        oracle.check(cluster, 1.0)
        node.local_health.note(LhmEvent.PROBE_FAILED)
        node.local_health.note(LhmEvent.MISSED_NACK)
        assert oracle.check(cluster, 2.0) == []


class TestSuspicionOracle:
    def make_node(self, **snapshot_overrides):
        node = FakeNode("a", [FakeMember("a")], suspicions=["b"])
        record = {
            "member": "b",
            "confirmations": 1,
            "k": 3,
            "started_at": 0.0,
            "deadline": 8.0,
            "timeout": 8.0,
            "min_timeout": 2.0,
            "max_timeout": 12.0,
        }
        record.update(snapshot_overrides)
        node.suspicion_snapshot = lambda: [dict(record)]
        return node

    def test_in_bounds_passes(self):
        assert violations_of(
            SuspicionOracle(), FakeCluster(self.make_node())
        ) == []

    def test_timeout_above_max_flagged(self):
        node = self.make_node(timeout=13.0, deadline=13.0)
        out = violations_of(SuspicionOracle(), FakeCluster(node))
        assert any("outside" in v.detail for v in out)

    def test_timeout_below_min_flagged(self):
        node = self.make_node(timeout=1.0, deadline=1.0)
        out = violations_of(SuspicionOracle(), FakeCluster(node))
        assert any("outside" in v.detail for v in out)

    def test_deadline_mismatch_flagged(self):
        node = self.make_node(deadline=9.5)
        out = violations_of(SuspicionOracle(), FakeCluster(node))
        assert any("!= started_at + timeout" in v.detail for v in out)

    def test_confirmations_beyond_k_flagged(self):
        node = self.make_node(confirmations=4)
        out = violations_of(SuspicionOracle(), FakeCluster(node))
        assert any("exceed" in v.detail for v in out)

    def test_growing_deadline_flagged(self):
        node = self.make_node()
        cluster = FakeCluster(node)
        oracle = SuspicionOracle()
        oracle.reset(cluster)
        assert oracle.check(cluster, 1.0) == []
        node.suspicion_snapshot = lambda: [
            {
                "member": "b",
                "confirmations": 1,
                "k": 3,
                "started_at": 0.0,
                "deadline": 9.0,
                "timeout": 9.0,
                "min_timeout": 2.0,
                "max_timeout": 12.0,
            }
        ]
        out = oracle.check(cluster, 2.0)
        assert any("deadline grew" in v.detail for v in out)


class TestMembershipOracle:
    def test_incarnation_decrease_flagged(self):
        subject = FakeMember("b", incarnation=5)
        node = FakeNode("a", [FakeMember("a"), subject])
        cluster = FakeCluster(node)
        oracle = MembershipOracle()
        oracle.reset(cluster)
        assert oracle.check(cluster, 1.0) == []
        subject.incarnation = 3
        out = oracle.check(cluster, 2.0)
        assert any("incarnation decreased" in v.detail for v in out)

    def test_resurrection_without_higher_incarnation_flagged(self):
        subject = FakeMember("b", state=MemberState.DEAD, incarnation=5)
        node = FakeNode("a", [FakeMember("a"), subject])
        cluster = FakeCluster(node)
        oracle = MembershipOracle()
        oracle.reset(cluster)
        oracle.check(cluster, 1.0)
        subject.state = MemberState.ALIVE  # same incarnation: illegal
        out = oracle.check(cluster, 2.0)
        assert any("resurrected" in v.detail for v in out)

    def test_resurrection_with_higher_incarnation_passes(self):
        subject = FakeMember("b", state=MemberState.DEAD, incarnation=5)
        node = FakeNode("a", [FakeMember("a"), subject])
        cluster = FakeCluster(node)
        oracle = MembershipOracle()
        oracle.reset(cluster)
        oracle.check(cluster, 1.0)
        subject.state = MemberState.ALIVE
        subject.incarnation = 6
        assert oracle.check(cluster, 2.0) == []

    def test_suspect_without_timer_flagged(self):
        node = FakeNode(
            "a",
            [FakeMember("a"), FakeMember("b", state=MemberState.SUSPECT)],
            suspicions=[],
        )
        out = violations_of(MembershipOracle(), FakeCluster(node))
        assert any("no suspicion timer" in v.detail for v in out)

    def test_timer_without_suspect_flagged(self):
        node = FakeNode(
            "a", [FakeMember("a"), FakeMember("b")], suspicions=["b"]
        )
        out = violations_of(MembershipOracle(), FakeCluster(node))
        assert any("timer exists" in v.detail for v in out)

    def test_suspicion_held_above_the_table_flagged(self):
        members = [FakeMember("a"), FakeMember("b", MemberState.SUSPECT, incarnation=4)]
        for held, flagged in ((3, False), (4, False), (5, True)):
            node = FakeNode("a", members, suspicions={"b": held})
            out = violations_of(MembershipOracle(), FakeCluster(node))
            assert any("above the table's 4" in v.detail for v in out) == flagged
            assert len(out) == flagged

    def test_stopped_node_not_held_to_timer_agreement(self):
        node = FakeNode(
            "a",
            [FakeMember("a"), FakeMember("b", state=MemberState.SUSPECT)],
            suspicions=[],
            running=False,
        )
        assert violations_of(MembershipOracle(), FakeCluster(node)) == []


class TestBroadcastQueueOracle:
    def test_transmits_at_limit_flagged(self):
        node = FakeNode("a", [FakeMember("a"), FakeMember("b")])
        # retransmit_limit(4, 2) = 4; a transmit count of 4 means the
        # entry should already have been retired.
        node.broadcasts = FakeQueue([("b", 4, 30)])
        out = violations_of(BroadcastQueueOracle(), FakeCluster(node))
        assert any("transmitted" in v.detail for v in out)

    def test_transmits_below_limit_pass(self):
        node = FakeNode("a", [FakeMember("a"), FakeMember("b")])
        node.broadcasts = FakeQueue([("b", 3, 30)])
        assert violations_of(BroadcastQueueOracle(), FakeCluster(node)) == []

    def test_system_queue_depth_bounded_by_known_members(self):
        node = FakeNode("a", [FakeMember("a"), FakeMember("b")])
        node.broadcasts = FakeQueue([("b", 0, 10), ("c", 0, 10), ("d", 0, 10)])
        out = violations_of(BroadcastQueueOracle(), FakeCluster(node))
        assert any("queue depth" in v.detail for v in out)


class TestConvergenceOracle:
    def test_agreeing_views_pass(self):
        a = FakeNode("a", [FakeMember("a"), FakeMember("b")])
        b = FakeNode("b", [FakeMember("a"), FakeMember("b")])
        oracle = ConvergenceOracle()
        assert oracle.check_final(FakeCluster(a, b), 10.0, {"a", "b"}, set()) == []

    def test_disagreeing_view_flagged(self):
        a = FakeNode(
            "a", [FakeMember("a"), FakeMember("b", state=MemberState.SUSPECT)]
        )
        b = FakeNode("b", [FakeMember("a"), FakeMember("b")])
        out = ConvergenceOracle().check_final(
            FakeCluster(a, b), 10.0, {"a", "b"}, set()
        )
        assert any(v.node == "a" and v.subject == "b" for v in out)

    def test_departed_member_must_not_be_seen_alive(self):
        a = FakeNode("a", [FakeMember("a"), FakeMember("c")])
        out = ConvergenceOracle().check_final(
            FakeCluster(a), 10.0, {"a"}, {"c"}
        )
        assert any("departed" in v.detail for v in out)

    def test_stopped_expected_live_member_flagged(self):
        a = FakeNode("a", [FakeMember("a")], running=False)
        out = ConvergenceOracle().check_final(FakeCluster(a), 10.0, {"a"}, set())
        assert any("expected to be running" in v.detail for v in out)

    def test_gossip_only_cluster_tolerates_false_dead_view(self):
        # Without anti-entropy a false DEAD verdict can outlive the
        # gossip that could have corrected it; only SUSPECT (a protocol
        # state that *must* resolve) is a violation then.
        a = FakeNode(
            "a", [FakeMember("a"), FakeMember("b", state=MemberState.DEAD)]
        )
        b = FakeNode("b", [FakeMember("a"), FakeMember("b")])
        for node in (a, b):
            node.config.push_pull_interval = 0.0
        cluster = FakeCluster(a, b)
        assert ConvergenceOracle().check_final(
            cluster, 10.0, {"a", "b"}, set()
        ) == []
        a.members = FakeMap(
            [FakeMember("a"), FakeMember("b", state=MemberState.SUSPECT)]
        )
        out = ConvergenceOracle().check_final(cluster, 10.0, {"a", "b"}, set())
        assert any("never resolved" in v.detail for v in out)


class TestSyncConvergenceOracle:
    def test_agreeing_incarnations_pass(self):
        a = FakeNode("a", [FakeMember("a"), FakeMember("b", incarnation=4)])
        b = FakeNode("b", [FakeMember("a"), FakeMember("b", incarnation=4)])
        out = SyncConvergenceOracle().check_final(
            FakeCluster(a, b), 10.0, {"a", "b"}, set()
        )
        assert out == []

    def test_incarnation_disagreement_flagged(self):
        a = FakeNode("a", [FakeMember("a"), FakeMember("b", incarnation=4)])
        b = FakeNode("b", [FakeMember("a"), FakeMember("b", incarnation=6)])
        out = SyncConvergenceOracle().check_final(
            FakeCluster(a, b), 10.0, {"a", "b"}, set()
        )
        assert any(v.subject == "b" and "disagree" in v.detail for v in out)

    def test_skipped_when_sync_disabled(self):
        a = FakeNode("a", [FakeMember("a"), FakeMember("b", incarnation=4)])
        b = FakeNode("b", [FakeMember("a"), FakeMember("b", incarnation=6)])
        a.config.push_pull_interval = 0.0
        out = SyncConvergenceOracle().check_final(
            FakeCluster(a, b), 10.0, {"a", "b"}, set()
        )
        assert out == []


class TestResurrectionOracle:
    def _cluster(self):
        node = FakeNode(
            "a", [FakeMember("a"), FakeMember("b", MemberState.DEAD, 5)]
        )
        return node, FakeCluster(node)

    def test_resurrection_within_retention_flagged(self):
        node, cluster = self._cluster()
        oracle = ResurrectionOracle()
        oracle.reset(cluster)
        assert oracle.check(cluster, 10.0) == []
        # The entry flips back to ALIVE at the *same* incarnation well
        # inside the retention window — the exact stale-claim
        # resurrection the veto exists to prevent.
        node.members.force("b", MemberState.ALIVE)
        out = oracle.check(cluster, 20.0)
        assert any(v.subject == "b" and "DEAD sighting" in v.detail for v in out)

    def test_survives_entry_removal(self):
        # MembershipOracle forgets a subject once the entry disappears;
        # this oracle must not, or reclaim-then-re-add would dodge it.
        node, cluster = self._cluster()
        oracle = ResurrectionOracle()
        oracle.reset(cluster)
        oracle.check(cluster, 10.0)
        node.members = FakeMap([FakeMember("a")])
        oracle.check(cluster, 20.0)
        node.members = FakeMap(
            [FakeMember("a"), FakeMember("b", MemberState.ALIVE, 5)]
        )
        out = oracle.check(cluster, 30.0)
        assert any(v.subject == "b" for v in out)

    def test_refutation_at_higher_incarnation_is_legal(self):
        node, cluster = self._cluster()
        oracle = ResurrectionOracle()
        oracle.reset(cluster)
        oracle.check(cluster, 10.0)
        node.members.force("b", MemberState.ALIVE, incarnation=6)
        assert oracle.check(cluster, 20.0) == []

    def test_resurrection_past_retention_tolerated(self):
        node, cluster = self._cluster()
        node.config.dead_member_reclaim = 30.0
        oracle = ResurrectionOracle()
        oracle.reset(cluster)
        oracle.check(cluster, 10.0)
        node.members.force("b", MemberState.ALIVE)
        # 10.0 + 30.0 retention has passed: the observer has legitimately
        # forgotten the terminal sighting.
        assert oracle.check(cluster, 45.0) == []


class TestOracleSuiteOnRealCluster:
    def test_fault_free_cluster_is_clean(self):
        cluster = SimCluster(
            n_members=5, config=SwimConfig.lifeguard(), seed=1
        )
        suite = OracleSuite()
        suite.attach(cluster)
        cluster.start()
        cluster.run_until(30.0)
        suite.run_final_checks(
            cluster, cluster.now, set(cluster.names), set()
        )
        assert suite.violations == []
        assert suite.checks_run > 0

    def test_stride_reduces_checks(self):
        def run(stride):
            cluster = SimCluster(
                n_members=3, config=SwimConfig.lifeguard(), seed=2
            )
            suite = OracleSuite()
            suite.attach(cluster, stride=stride)
            cluster.start()
            cluster.run_until(10.0)
            return suite.checks_run

        assert run(10) < run(1)

    def test_stride_validation(self):
        cluster = SimCluster(n_members=2, config=SwimConfig.lifeguard(), seed=3)
        with pytest.raises(ValueError):
            OracleSuite().attach(cluster, stride=0)


class TestViolation:
    def test_round_trip_and_str(self):
        violation = Violation("lhm-bounds", 1.5, "m000", "score 9", "m001")
        assert Violation.from_dict(violation.as_dict()) == violation
        text = str(violation)
        assert "lhm-bounds" in text and "m000" in text and "m001" in text
