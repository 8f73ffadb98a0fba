"""Bridge-layer behavior through small end-to-end zoned clusters."""

import pytest

from repro.config import SwimConfig
from repro.swim.messages import ZoneClaim
from repro.swim.probe_scheduler import ProbeScheduler
from repro.swim.state import MemberState
from repro.zones.cluster import ZonedCluster


def make_cluster(n=24, zones=3, seed=1, **overrides):
    config = SwimConfig.lifeguard().replace(
        zone_count=zones, bridges_per_zone=2, **overrides
    )
    return ZonedCluster(n, config, seed=seed, zone_count=zones)


def bridges_of(cluster, zone_name):
    return [b for b in cluster.bridges if b.zone.name == zone_name]


def remote_bridges(cluster, zone_name):
    return [b for b in cluster.bridges if b.zone.name != zone_name]


class TestDirectory:
    def test_preseeded_with_full_roster(self):
        cluster = make_cluster()
        bridge = cluster.bridges[0]
        for name, zone_name in cluster.layout.roster().items():
            member = bridge.directory.get(name)
            assert member is not None, name
            assert member.zone == zone_name
            assert member.state is MemberState.ALIVE

    def test_directory_keeps_no_probe_order(self):
        """The directory is looked up and merged into, never probed: no
        scheduler state per member, and asking it for a probe target is
        an error rather than a silently working schedule."""
        cluster = make_cluster()
        for bridge in cluster.bridges:
            assert type(bridge.directory.probe_scheduler) is ProbeScheduler
            assert len(bridge.directory) == 24
            with pytest.raises(NotImplementedError):
                bridge.directory.next_probe_target()

    def test_bridges_share_one_roster(self):
        cluster = make_cluster()
        assert cluster.shard.roster == cluster.layout.roster()
        assert all(b._roster is cluster.shard.roster for b in cluster.bridges)

    def test_rng_isolated_from_node(self):
        cluster = make_cluster()
        cluster.start()
        cluster.run_until(10.0)
        # Directory inserts must not have consumed the node's RNG: the
        # zoned digest is pinned by the equivalence test, so here just
        # assert the node protocol made progress normally.
        assert all(node.running for node in cluster.nodes.values())


class TestEventForwarding:
    def test_crash_reaches_remote_directories(self):
        cluster = make_cluster()
        cluster.start()
        cluster.run_until(5.0)
        victim = "z000-m003"  # not a bridge (bridges are m000/m001)
        cluster.node(victim).stop()
        cluster.run_until(60.0)
        for bridge in remote_bridges(cluster, "z000"):
            member = bridge.directory.get(victim)
            assert member.state in (MemberState.DEAD, MemberState.LEFT), (
                f"{bridge.node.name} never heard {victim} died"
            )

    def test_leave_forwarded_as_left(self):
        cluster = make_cluster()
        cluster.start()
        cluster.run_until(5.0)
        cluster.node("z001-m002").leave()
        cluster.run_until(40.0)
        for bridge in remote_bridges(cluster, "z001"):
            assert bridge.directory.get("z001-m002").state is MemberState.LEFT


class TestZoneUnreachable:
    def test_silent_zone_flagged_and_cleared(self):
        cluster = make_cluster()
        cluster.start()
        cluster.run_until(10.0)
        stopped = bridges_of(cluster, "z002")
        for bridge in stopped:
            bridge.node.stop()
        cluster.run_until(60.0)
        for bridge in remote_bridges(cluster, "z002"):
            if bridge.node.running:
                assert "z002" in bridge.unreachable
        for bridge in stopped:
            bridge.node.start()
        cluster.run_until(120.0)
        for bridge in remote_bridges(cluster, "z002"):
            if bridge.node.running:
                assert "z002" not in bridge.unreachable


class TestEchoBackRefutation:
    def test_wrong_terminal_claim_about_bridge_is_refuted(self):
        cluster = make_cluster()
        cluster.start()
        cluster.run_until(5.0)
        bridge = bridges_of(cluster, "z000")[0]
        inc = bridge.node.members.local.incarnation
        # A remote zone wrongly believes this bridge node is dead.
        bridge._on_claim(
            ZoneClaim("z000", bridge.node.name, inc, int(MemberState.DEAD))
        )
        assert bridge.node.members.local.incarnation > inc
        assert bridge.directory.local.incarnation > inc

    def test_suspect_claims_never_strand_timerless_suspicion(self):
        cluster = make_cluster()
        cluster.start()
        cluster.run_until(5.0)
        bridge = bridges_of(cluster, "z000")[0]
        subject = "z000-m003"
        inc = bridge.node.members.get(subject).incarnation
        bridge.node.apply_external_claim(subject, MemberState.SUSPECT, inc)
        member = bridge.node.members.get(subject)
        if member.is_suspect:
            assert subject in bridge.node.suspicion_incarnations(), (
                "SUSPECT member has no suspicion timer"
            )

    def test_suspect_view_not_advertised_cross_zone(self):
        cluster = make_cluster()
        cluster.start()
        cluster.run_until(5.0)
        bridge = bridges_of(cluster, "z000")[0]
        own, echo = bridge._anti_entropy_claims()
        for claim in own + echo:
            assert claim.state is not MemberState.SUSPECT


def _claims_by_full_walk(bridge):
    """What anti-entropy re-advertises, recomputed from the whole
    directory: the reference the bridge's remembered answer must equal."""
    departed = {
        name: (state, incarnation)
        for name, state, incarnation in bridge.directory.claims()
        if state is not MemberState.SUSPECT
        and (state is not MemberState.ALIVE or incarnation > 1)
    }
    own, echo = [], []
    for zone in bridge.layout.zones:
        for name in zone.members:
            if name in departed:
                state, incarnation = departed[name]
                claim = ZoneClaim(zone.name, name, incarnation, int(state))
                (own if zone.name == bridge.zone.name else echo).append(claim)
    return own, echo


class TestAntiEntropyIsRememberedNotStale:
    def test_matches_a_full_walk_after_every_kind_of_directory_change(self):
        """The bridge walks its directory only after changing it. Drive
        every way it changes — a forwarded crash and leave (own-zone
        events), the claims about them arriving at the other zones, an
        echoed claim folded back, and a refutation bumping the bridge's
        own entry — and compare with a fresh walk all the way through."""
        cluster = make_cluster()
        cluster.start()
        cluster.run_until(5.0)
        cluster.node("z000-m003").stop()
        cluster.node("z001-m002").leave()
        refuter = bridges_of(cluster, "z002")[0]
        bumped = False
        changed = set()
        for step in range(6, 61):
            cluster.run_until(float(step))
            if step == 20:
                inc = refuter.node.members.local.incarnation
                refuter._on_claim(
                    ZoneClaim("z002", refuter.node.name, inc, int(MemberState.DEAD))
                )
                bumped = refuter.directory.local.incarnation > inc
            for bridge in cluster.bridges:
                expected = _claims_by_full_walk(bridge)
                assert bridge._anti_entropy_claims() == expected, (
                    f"{bridge.node.name} at t={step}"
                )
                changed.update(claim.member for claim in expected[0] + expected[1])
        assert bumped
        assert {"z000-m003", "z001-m002", refuter.node.name} <= changed

    def test_quiet_ticks_reuse_the_answer(self):
        cluster = make_cluster()
        cluster.start()
        cluster.run_until(5.0)
        bridge = cluster.bridges[0]
        first = bridge._anti_entropy_claims()
        cluster.run_until(8.0)
        assert bridge._anti_entropy_claims() is first
