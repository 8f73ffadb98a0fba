"""Failure-detector probe cycle tests (direct, indirect, nack, fallback)."""

import pytest

from repro.config import LifeguardFlags, SwimConfig
from repro.core.lhm import LhmEvent
from repro.swim.state import MemberState

from tests.conftest import LocalCluster


def lha_probe_config(**overrides):
    params = dict(
        flags=LifeguardFlags(lha_probe=True),
        push_pull_interval=0.0,
        reconnect_interval=0.0,
    )
    params.update(overrides)
    return SwimConfig(**params)


def plain_config(**overrides):
    params = dict(
        suspicion_beta=1.0,
        push_pull_interval=0.0,
        reconnect_interval=0.0,
    )
    params.update(overrides)
    return SwimConfig(**params)


class TestDirectProbe:
    def test_ping_is_acked(self, pair):
        pair.nodes["a"].start(first_probe_delay=0.1)
        pair.nodes["b"].start(first_probe_delay=100.0)  # passive responder
        pair.run_for(1.0)
        kinds = pair.sent_kinds()
        assert "ping" in kinds
        assert "ack" in kinds

    def test_stopped_member_does_not_respond(self, pair):
        pair.nodes["a"].start(first_probe_delay=0.1)
        # b never started: packets reach it but it must stay silent.
        pair.run_for(1.0)
        assert "ack" not in pair.sent_kinds()

    def test_successful_probe_is_quiet(self):
        cluster = LocalCluster(["a", "b"], config=plain_config())
        cluster.start_all()
        cluster.run_for(10.0)
        assert cluster.view("a", "b") is MemberState.ALIVE
        assert cluster.view("b", "a") is MemberState.ALIVE
        assert "pingreq" not in cluster.sent_kinds()
        assert len(cluster.events) == 0

    def test_probe_success_decrements_lhm(self):
        cluster = LocalCluster(["a", "b"], config=lha_probe_config())
        node = cluster.nodes["a"]
        node.local_health.apply_delta(3)
        cluster.nodes["b"].start(first_probe_delay=100.0)  # b only answers
        node.start(first_probe_delay=0.1)
        # The interval is still scaled while unhealthy (4s at LHM=3), so
        # walking back to 0 takes 3 successful probes ~= 4+3+2 seconds.
        cluster.run_for(12.0)
        assert node.local_health.score == 0
        assert node.local_health.event_count(LhmEvent.PROBE_SUCCESS) >= 3

    def test_probe_ignores_stale_ack_seq(self, pair):
        from repro.swim import codec
        from repro.swim.messages import Ack

        node = pair.nodes["a"]
        node.start(first_probe_delay=0.1)
        node.handle_packet(codec.encode(Ack(999, "b")), "b")
        pair.run_for(0.05)  # nothing crashes, no probe state confused

    def test_ping_for_wrong_target_ignored(self, pair):
        from repro.swim import codec
        from repro.swim.messages import Ping

        node = pair.nodes["a"]
        node.start(first_probe_delay=50.0)
        before = len(pair.fabric.log)
        node.handle_packet(codec.encode(Ping(5, "not-a", "b")), "b")
        assert len(pair.fabric.log) == before  # no ack sent


class TestIndirectProbe:
    def test_unresponsive_target_triggers_ping_req(self):
        cluster = LocalCluster(["a", "b", "c", "d", "e"], config=plain_config())
        cluster.blackhole("b")
        node = cluster.nodes["a"]
        node.start(first_probe_delay=0.1)
        # Drive a's probes until it lands on b (round-robin guarantees it
        # within 4 periods).
        cluster.run_for(5.0)
        kinds = cluster.sent_kinds("a")
        assert "pingreq" in kinds

    def test_indirect_ack_completes_probe(self):
        """a cannot reach b directly, but helpers can: the relayed ack
        keeps b alive at a."""
        cluster = LocalCluster(["a", "b", "c", "d"], config=plain_config())

        # Drop only a->b traffic (helpers still reach b) by filtering at
        # the fabric level.
        original_send = cluster.fabric.send

        def filtered(src, dst, payload, reliable):
            if src == "a" and dst == "b":
                return
            original_send(src, dst, payload, reliable)

        cluster.fabric.send = filtered
        cluster.start_all()
        cluster.run_for(30.0)
        assert cluster.view("a", "b") is MemberState.ALIVE

    def test_helper_relays_ping_and_forwards_ack(self):
        from repro.swim import codec
        from repro.swim.messages import Ack, PingReq

        cluster = LocalCluster(["a", "b", "helper"], config=plain_config())
        helper = cluster.nodes["helper"]
        helper.start(first_probe_delay=100.0)
        helper.handle_packet(
            codec.encode(PingReq(77, "b", "a", want_nack=False)), "a"
        )
        # helper pinged b; b (not started) stays silent, so feed the ack
        # manually with helper's relayed seq.
        relayed = [
            (src, dst, payload)
            for src, dst, payload, _ in cluster.fabric.log
            if src == "helper" and dst == "b"
        ]
        assert len(relayed) == 1
        ping = codec.decode(relayed[0][2])
        parts = ping.parts if hasattr(ping, "parts") else [ping]
        inner = parts[0]
        helper.handle_packet(codec.encode(Ack(inner.seq_no, "b")), "b")
        forwarded = [
            codec.decode(payload)
            for src, dst, payload, _ in cluster.fabric.log
            if src == "helper" and dst == "a"
        ]
        assert any(
            getattr(m, "seq_no", None) == 77 for m in forwarded
        ), forwarded

    def test_helper_ignores_request_about_unknown_member(self):
        from repro.swim import codec
        from repro.swim.messages import PingReq

        cluster = LocalCluster(["a", "helper"], config=plain_config())
        helper = cluster.nodes["helper"]
        helper.start(first_probe_delay=100.0)
        before = len(cluster.fabric.log)
        helper.handle_packet(
            codec.encode(PingReq(5, "ghost", "a", want_nack=True)), "a"
        )
        assert len(cluster.fabric.log) == before


class TestNack:
    def test_nack_sent_at_fraction_of_timeout(self):
        from repro.swim import codec
        from repro.swim.messages import PingReq

        cluster = LocalCluster(["a", "b", "helper"], config=lha_probe_config())
        cluster.blackhole("b")
        helper = cluster.nodes["helper"]
        helper.start(first_probe_delay=100.0)
        start = cluster.clock.now
        helper.handle_packet(codec.encode(PingReq(9, "b", "a", want_nack=True)), "a")
        cluster.run_for(0.39)  # 80% of 0.5s timeout = 0.4s
        nacks = [k for k in cluster.sent_kinds("helper") if k == "nack"]
        assert nacks == []
        cluster.run_for(0.02)
        nacks = [k for k in cluster.sent_kinds("helper") if k == "nack"]
        assert nacks == ["nack"]

    def test_no_nack_without_want_nack(self):
        from repro.swim import codec
        from repro.swim.messages import PingReq

        cluster = LocalCluster(["a", "b", "helper"], config=plain_config())
        cluster.blackhole("b")
        helper = cluster.nodes["helper"]
        helper.start(first_probe_delay=100.0)
        helper.handle_packet(codec.encode(PingReq(9, "b", "a", want_nack=False)), "a")
        cluster.run_for(2.0)
        assert "nack" not in cluster.sent_kinds("helper")

    def test_late_ack_still_forwarded_after_nack(self):
        from repro.swim import codec
        from repro.swim.messages import Ack, PingReq

        cluster = LocalCluster(["a", "b", "helper"], config=lha_probe_config())
        cluster.blackhole("b")
        helper = cluster.nodes["helper"]
        helper.start(first_probe_delay=100.0)
        helper.handle_packet(codec.encode(PingReq(9, "b", "a", want_nack=True)), "a")
        cluster.run_for(0.45)  # nack fired
        # b's ack arrives late; find helper's relayed seq from the log.
        relayed = [
            codec.decode(p)
            for src, dst, p, _ in cluster.fabric.log
            if src == "helper" and dst == "b"
        ]
        inner = relayed[0].parts[0] if hasattr(relayed[0], "parts") else relayed[0]
        helper.handle_packet(codec.encode(Ack(inner.seq_no, "b")), "b")
        to_a = [
            codec.decode(p)
            for src, dst, p, _ in cluster.fabric.log
            if src == "helper" and dst == "a"
        ]
        kinds = [type(m).__name__ for m in to_a]
        assert "Nack" in kinds and "Ack" in kinds

    def test_missed_nacks_raise_lhm(self):
        """A probe that fails with missing nacks is evidence of *local*
        slowness (Section IV-A)."""
        cluster = LocalCluster(
            ["a", "b", "c", "d", "e"], config=lha_probe_config()
        )
        # Nobody responds to anything a sends: all acks AND nacks missing.
        node = cluster.nodes["a"]
        cluster.blackhole("b", "c", "d", "e")
        node.start(first_probe_delay=0.1)
        cluster.run_for(4.0)
        assert node.local_health.score > 0
        assert node.local_health.event_count(LhmEvent.MISSED_NACK) > 0

    def test_all_nacks_received_no_lhm_penalty(self):
        """When every helper nacks, the evidence points at the target,
        not at the local member: LHM stays put."""
        cluster = LocalCluster(["a", "b", "c", "d", "e"], config=lha_probe_config())
        cluster.blackhole("b")  # target of interest unreachable by all
        for name, node in cluster.nodes.items():
            node.start(first_probe_delay=0.1 if name == "a" else 50.0)
        node = cluster.nodes["a"]
        # Run long enough for a to probe b (round-robin: <= 4 periods).
        cluster.run_for(6.0)
        assert node.local_health.event_count(LhmEvent.MISSED_NACK) == 0
        assert node.local_health.score == 0


class TestLhaProbeScaling:
    def test_probe_interval_scales_with_lhm(self):
        cluster = LocalCluster(["a", "b"], config=lha_probe_config())
        node = cluster.nodes["a"]
        assert node.current_probe_interval() == pytest.approx(1.0)
        node.local_health.apply_delta(4)
        assert node.current_probe_interval() == pytest.approx(5.0)
        assert node.current_probe_timeout() == pytest.approx(2.5)

    def test_saturated_lhm_hits_paper_maxima(self):
        cluster = LocalCluster(["a", "b"], config=lha_probe_config())
        node = cluster.nodes["a"]
        node.local_health.apply_delta(100)
        assert node.current_probe_interval() == pytest.approx(9.0)
        assert node.current_probe_timeout() == pytest.approx(4.5)

    def test_swim_config_never_scales(self):
        cluster = LocalCluster(["a", "b"], config=plain_config())
        node = cluster.nodes["a"]
        node.local_health.apply_delta(5)  # disabled: no-op
        assert node.current_probe_interval() == pytest.approx(1.0)

    def test_slow_member_probes_less_often(self):
        """With LHA-Probe, a member whose probes all fail backs off; the
        number of probes it sends drops accordingly."""
        def count_pings(config):
            cluster = LocalCluster(["a", "b", "c", "d", "e"], config=config)
            cluster.blackhole("b", "c", "d", "e")
            cluster.nodes["a"].start(first_probe_delay=0.1)
            cluster.run_for(30.0)
            return sum(1 for k in cluster.sent_kinds("a") if k == "ping")

        swim_pings = count_pings(plain_config(tcp_fallback_probe=False))
        lha_pings = count_pings(lha_probe_config(tcp_fallback_probe=False))
        # (Both stop probing once every peer is declared dead, so the
        # absolute counts are small; the back-off must still show.)
        assert lha_pings < swim_pings


class TestTcpFallback:
    def test_fallback_ping_sent_reliably(self):
        cluster = LocalCluster(["a", "b", "c", "d"], config=plain_config())
        cluster.blackhole("b")
        cluster.nodes["a"].start(first_probe_delay=0.1)
        cluster.run_for(5.0)
        reliable_pings = [
            (src, dst)
            for src, dst, _p, reliable in cluster.fabric.log
            if reliable and src == "a" and dst == "b"
        ]
        assert reliable_pings

    def test_fallback_disabled(self):
        cluster = LocalCluster(
            ["a", "b", "c", "d"], config=plain_config(tcp_fallback_probe=False)
        )
        cluster.blackhole("b")
        cluster.nodes["a"].start(first_probe_delay=0.1)
        cluster.run_for(5.0)
        assert not any(reliable for _s, _d, _p, reliable in cluster.fabric.log)


class TestOneTimerPerProbe:
    def test_an_acked_probe_costs_one_push_and_one_cancel(self, monkeypatch):
        """In a quiet, lossless cluster every probe is acked inside its
        timeout: the probe arms its timeout alone (the end of its period
        only if the timeout fires) and the ack cancels that one timer."""
        from repro.sim.runtime import SimCluster
        from repro.sim.scheduler import EventScheduler, _Event
        from repro.swim.node import SwimNode

        cluster = SimCluster(n_members=32, config=SwimConfig.lifeguard(), seed=5)
        cluster.start()
        cluster.run_until(3.0)
        deliveries = cluster.network._deliver_batch
        counts = {"probes": 0, "acked": 0, "pushes": 0, "cancels": 0}
        inside = []

        call_at = EventScheduler.call_at
        cancel = _Event.cancel
        begin_probe = SwimNode._begin_probe
        handle_ack = SwimNode._handle_ack

        def counting_call_at(self, when, callback):
            # The probe's own timers; the ping's delivery is the fabric's.
            if inside and callback != deliveries:
                counts["pushes"] += 1
            return call_at(self, when, callback)

        def counting_cancel(self):
            if inside and not self.cancelled:
                counts["cancels"] += 1
            cancel(self)

        def counting_begin_probe(self, *args):
            counts["probes"] += 1
            inside.append(True)
            try:
                begin_probe(self, *args)
            finally:
                inside.pop()

        def counting_handle_ack(self, ack, reliable=False):
            counts["acked"] += ack.seq_no in self._probes
            inside.append(True)
            try:
                handle_ack(self, ack, reliable)
            finally:
                inside.pop()

        monkeypatch.setattr(EventScheduler, "call_at", counting_call_at)
        monkeypatch.setattr(_Event, "cancel", counting_cancel)
        monkeypatch.setattr(SwimNode, "_begin_probe", counting_begin_probe)
        monkeypatch.setattr(SwimNode, "_handle_ack", counting_handle_ack)
        cluster.run_until(13.0)

        assert counts["probes"] >= 300
        # Probes still in flight at the end were begun but not acked.
        assert counts["probes"] - 32 <= counts["acked"] <= counts["probes"]
        assert counts["pushes"] == counts["probes"]
        assert counts["cancels"] == counts["acked"]
