"""Dissemination tests: piggybacking, the dedicated gossip tick,
anti-entropy push/pull, join/leave, and reconnection."""

import pytest

from repro.config import LifeguardFlags, SwimConfig
from repro.swim import codec
from repro.swim.events import EventKind
from repro.swim.messages import (
    Alive,
    Compound,
    Dead,
    Ping,
    PushPull,
    Suspect,
    flatten,
)
from repro.swim.state import MemberState

from tests.conftest import LocalCluster


def base_config(**overrides):
    params = dict(
        suspicion_beta=1.0, push_pull_interval=0.0, reconnect_interval=0.0
    )
    params.update(overrides)
    return SwimConfig(**params)


NAMES = [f"n{i}" for i in range(6)]


def packets_from(cluster, src, decoded=True):
    out = []
    for sender, dst, payload, reliable in cluster.fabric.log:
        if sender == src:
            out.append(
                (dst, codec.decode(payload) if decoded else payload, reliable)
            )
    return out


class TestPiggybacking:
    def test_gossip_rides_on_pings(self):
        # A huge gossip interval isolates the piggyback path: the only way
        # the update can travel is on the back of the ping.
        cluster = LocalCluster(NAMES, config=base_config(gossip_interval=100.0))
        node = cluster.nodes["n0"]
        node.start(first_probe_delay=0.3)
        node.broadcasts.enqueue(Alive(5, "n2", "n2"))
        cluster.run_for(0.5)
        pings = [
            msg
            for _dst, msg, _rel in packets_from(cluster, "n0")
            if isinstance(msg, Compound) and isinstance(msg.parts[0], Ping)
        ]
        assert pings, "expected a compound ping"
        assert Alive(5, "n2", "n2") in pings[0].parts

    def test_piggyback_respects_mtu(self):
        cluster = LocalCluster(
            NAMES, config=base_config(max_packet_size=128)
        )
        node = cluster.nodes["n0"]
        node.start(first_probe_delay=0.3)
        for i in range(40):
            node.broadcasts.enqueue(
                Alive(5, f"fake-member-{i:03d}", f"fake-address-{i:03d}:7946")
            )
        cluster.run_for(5.0)
        for _dst, payload, _rel in [
            (d, p, r)
            for d, p, r in (
                (dst, raw, rel)
                for (s, dst, raw, rel) in cluster.fabric.log
                if s == "n0"
            )
        ]:
            assert len(payload) <= 128

    def test_buddy_piggyback_precedes_queue_gossip(self):
        """A ping to a suspected member always carries the suspicion, even
        when the regular queue is bursting with other updates."""
        config = base_config(
            max_packet_size=128,
            gossip_interval=100.0,
            flags=LifeguardFlags(buddy_system=True),
        )
        cluster = LocalCluster(NAMES, config=config)
        node = cluster.nodes["n0"]
        node.start(first_probe_delay=100.0)
        node.handle_packet(codec.encode(Suspect(1, "n1", "n3")), "n3")
        for i in range(20):
            node.broadcasts.enqueue(Alive(5, f"f-{i:02d}", f"fa-{i:02d}"))
        # Force a direct ping at n1 via the probe path.
        target = node.members.get("n1")
        node._send_ping(target.name, target.address, 999)
        sent = packets_from(cluster, "n0")
        to_n1 = [msg for dst, msg, _rel in sent if dst == "n1"]
        assert to_n1
        parts = [p for msg in to_n1 for p in flatten(msg)]
        assert Suspect(1, "n1", "n0") in parts


class TestDedicatedGossipTick:
    def test_no_gossip_when_queue_empty(self):
        cluster = LocalCluster(NAMES, config=base_config())
        node = cluster.nodes["n0"]
        node.start(first_probe_delay=100.0)
        cluster.run_for(3.0)
        assert packets_from(cluster, "n0") == []

    def test_gossip_tick_fans_out(self):
        cluster = LocalCluster(NAMES, config=base_config(gossip_fanout=3))
        node = cluster.nodes["n0"]
        node.start(first_probe_delay=100.0)
        node.broadcasts.enqueue(Alive(5, "n2", "n2"))
        cluster.run_for(0.25)
        destinations = {dst for dst, _msg, _rel in packets_from(cluster, "n0")}
        assert 1 <= len(destinations) <= 3

    def test_gossip_reaches_recently_dead(self):
        cluster = LocalCluster(NAMES, config=base_config(gossip_fanout=10))
        node = cluster.nodes["n0"]
        node.start(first_probe_delay=100.0)
        node.handle_packet(codec.encode(Dead(1, "n1", "n4")), "n4")
        cluster.run_for(1.0)
        destinations = {dst for dst, _msg, _rel in packets_from(cluster, "n0")}
        assert "n1" in destinations  # dead members still get gossip

    def test_gossip_spreads_cluster_wide(self):
        cluster = LocalCluster(NAMES, config=base_config())
        cluster.start_all()
        cluster.nodes["n0"].broadcasts.enqueue(Alive(7, "n3", "n3"))
        cluster.run_for(3.0)
        # Every *receiver* learns the new incarnation. (n0 only relayed
        # it without applying; n3 ignores alive claims about itself.)
        for name in NAMES:
            if name in ("n0", "n3"):
                continue
            member = cluster.nodes[name].members.get("n3")
            assert member.incarnation == 7


class TestPushPull:
    def test_periodic_sync_issued(self):
        cluster = LocalCluster(NAMES, config=base_config(push_pull_interval=2.0))
        node = cluster.nodes["n0"]
        node.start(first_probe_delay=100.0)
        cluster.run_for(2.1)
        syncs = [
            msg
            for _dst, msg, reliable in packets_from(cluster, "n0")
            if isinstance(msg, PushPull)
        ]
        assert syncs
        assert not syncs[0].is_reply
        assert len(syncs[0].states) == len(NAMES)

    def test_sync_answered_with_reply(self):
        cluster = LocalCluster(NAMES, config=base_config())
        receiver = cluster.nodes["n1"]
        receiver.start(first_probe_delay=100.0)
        sync = PushPull("n0", cluster.nodes["n0"].members.snapshot())
        receiver.handle_packet(codec.encode(sync), "n0", reliable=True)
        replies = [
            msg
            for _dst, msg, _rel in packets_from(cluster, "n1")
            if isinstance(msg, PushPull) and msg.is_reply
        ]
        assert len(replies) == 1

    def test_reply_not_answered_again(self):
        cluster = LocalCluster(NAMES, config=base_config())
        receiver = cluster.nodes["n1"]
        receiver.start(first_probe_delay=100.0)
        sync = PushPull("n0", (), is_reply=True)
        receiver.handle_packet(codec.encode(sync), "n0", reliable=True)
        assert packets_from(cluster, "n1") == []

    def test_merge_learns_new_members(self):
        cluster = LocalCluster(NAMES, config=base_config())
        node = cluster.nodes["n0"]
        node.start(first_probe_delay=100.0)
        sync = PushPull(
            "n1",
            (("fresh", "fresh-addr", 4, int(MemberState.ALIVE)),),
            is_reply=True,
        )
        node.handle_packet(codec.encode(sync), "n1", reliable=True)
        member = node.members.get("fresh")
        assert member is not None
        assert member.address == "fresh-addr"
        joined = cluster.events.of_kind(EventKind.JOINED)
        assert any(e.subject == "fresh" for e in joined)

    def test_merge_refutes_remote_claims_about_self(self):
        cluster = LocalCluster(NAMES, config=base_config())
        node = cluster.nodes["n0"]
        node.start(first_probe_delay=100.0)
        before = node.incarnation
        sync = PushPull(
            "n1",
            (("n0", "n0", before, int(MemberState.DEAD)),),
            is_reply=True,
        )
        node.handle_packet(codec.encode(sync), "n1", reliable=True)
        assert node.incarnation == before + 1

    def test_merge_applies_suspects_with_sender_attribution(self):
        cluster = LocalCluster(NAMES, config=base_config())
        node = cluster.nodes["n0"]
        node.start(first_probe_delay=100.0)
        sync = PushPull(
            "n1",
            (("n2", "n2", 1, int(MemberState.SUSPECT)),),
            is_reply=True,
        )
        node.handle_packet(codec.encode(sync), "n1", reliable=True)
        assert cluster.view("n0", "n2") is MemberState.SUSPECT

    def test_merge_learns_dead_members(self):
        cluster = LocalCluster(NAMES, config=base_config())
        node = cluster.nodes["n0"]
        node.start(first_probe_delay=100.0)
        sync = PushPull(
            "n1", (("n2", "n2", 1, int(MemberState.DEAD)),), is_reply=True
        )
        node.handle_packet(codec.encode(sync), "n1", reliable=True)
        assert cluster.view("n0", "n2") is MemberState.DEAD


    def test_invalid_state_byte_drops_the_packet_whole(self):
        """Hostile input: a well-framed entry whose state byte is no
        ``MemberState`` used to decode, merge the entries ahead of it and
        then raise ``ValueError`` out of the transport's handler. The
        decoder refuses it, so nothing of the packet is acted on."""
        cluster = LocalCluster(NAMES, config=base_config())
        node = cluster.nodes["n0"]
        node.start(first_probe_delay=100.0)
        before = (node.members.names(), node.members.snapshot(), node.incarnation)
        sync = PushPull(
            "n1",
            (
                ("fresh", "fresh-addr", 4, int(MemberState.ALIVE)),
                ("n2", "n2", 1, int(MemberState.DEAD)),
                ("a", "1.1.1.1:1", 1, 9, b"", 0),
            ),
        )
        for payload in (codec.encode(sync), memoryview(bytearray(codec.encode(sync)))):
            node.handle_packet(payload, "n1", reliable=True)
        assert (node.members.names(), node.members.snapshot(), node.incarnation) == before
        assert cluster.view("n0", "n2") is MemberState.ALIVE
        assert packets_from(cluster, "n0") == []  # not even the reply
        assert not cluster.events.of_kind(EventKind.JOINED)
        assert node.telemetry.sync_merges == 0


class TestJoinAndLeave:
    def test_join_through_seed(self):
        cluster = LocalCluster(["seed", "late"], preseed=False, config=base_config())
        cluster.nodes["seed"].start(first_probe_delay=100.0)
        late = cluster.nodes["late"]
        late.start(first_probe_delay=100.0)
        late.join(["seed"])
        assert "late" in cluster.nodes["seed"].members
        assert "seed" in late.members

    def test_join_announces_via_gossip(self):
        cluster = LocalCluster(
            ["seed", "other", "late"], preseed=False, config=base_config()
        )
        cluster.nodes["seed"].members.add("other", "other", 1, MemberState.ALIVE, 0.0)
        cluster.nodes["other"].members.add("seed", "seed", 1, MemberState.ALIVE, 0.0)
        for node in cluster.nodes.values():
            node.start(first_probe_delay=0.5)
        cluster.nodes["late"].join(["seed"])
        cluster.run_for(5.0)
        assert "late" in cluster.nodes["other"].members
        assert "other" in cluster.nodes["late"].members

    def test_leave_marks_left_everywhere(self):
        cluster = LocalCluster(NAMES, config=base_config())
        cluster.start_all()
        cluster.run_for(1.0)
        cluster.nodes["n2"].leave()
        cluster.run_for(5.0)
        for name in NAMES:
            if name != "n2":
                assert cluster.view(name, "n2") is MemberState.LEFT
        assert not cluster.nodes["n2"].running
        # Graceful leave raises LEFT events, never FAILED ones.
        assert cluster.events.of_kind(EventKind.FAILED) == []

    def test_leaving_member_does_not_refute_its_own_departure(self):
        cluster = LocalCluster(NAMES, config=base_config())
        node = cluster.nodes["n0"]
        cluster.start_all()
        node.leave()
        incarnation = node.incarnation
        node.handle_packet(codec.encode(Dead(incarnation, "n0", "n0")), "n3")
        assert node.incarnation == incarnation


class TestReconnect:
    def test_reconnect_tick_contacts_dead_member(self):
        cluster = LocalCluster(
            NAMES, config=base_config(reconnect_interval=1.0)
        )
        node = cluster.nodes["n0"]
        node.start(first_probe_delay=100.0)
        node.handle_packet(codec.encode(Dead(1, "n1", "n4")), "n4")
        cluster.run_for(2.5)
        syncs = [
            dst
            for dst, msg, reliable in packets_from(cluster, "n0")
            if isinstance(msg, PushPull) and reliable
        ]
        assert "n1" in syncs

    def test_no_reconnect_to_left_members(self):
        cluster = LocalCluster(
            NAMES, config=base_config(reconnect_interval=1.0)
        )
        node = cluster.nodes["n0"]
        node.start(first_probe_delay=100.0)
        node.handle_packet(codec.encode(Dead(1, "n1", "n1")), "n1")  # leave
        cluster.run_for(3.0)
        syncs = [
            msg
            for _dst, msg, _rel in packets_from(cluster, "n0")
            if isinstance(msg, PushPull)
        ]
        assert syncs == []  # gossip about the leave is fine; reconnect is not

    def test_reconnect_disabled_by_default_in_tests(self):
        cluster = LocalCluster(NAMES, config=base_config())
        node = cluster.nodes["n0"]
        node.start(first_probe_delay=100.0)
        node.handle_packet(codec.encode(Dead(1, "n1", "n4")), "n4")
        cluster.run_for(5.0)
        syncs = [
            msg
            for _dst, msg, _rel in packets_from(cluster, "n0")
            if isinstance(msg, PushPull)
        ]
        assert syncs == []
