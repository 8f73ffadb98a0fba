"""Tests for the metrics registry and the per-node collector."""

import pytest

from repro.config import LifeguardFlags, SwimConfig
from repro.ops.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NodeCollector,
)
from repro.swim.state import MemberState

from tests.conftest import LocalCluster


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("requests_total", "total requests", ())
        counter.inc()
        counter.inc(4)
        samples = list(counter.samples())
        assert samples == [("requests_total", (), 5.0)]

    def test_negative_increment_rejected(self):
        counter = Counter("x_total", "", ())
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labelled_children_independent(self):
        counter = Counter("msgs_total", "", ("kind",))
        counter.inc(2, kind="ping")
        counter.inc(3, kind="ack")
        values = {pairs: value for _n, pairs, value in counter.samples()}
        assert values[(("kind", "ping"),)] == 2
        assert values[(("kind", "ack"),)] == 3

    def test_wrong_label_set_rejected(self):
        counter = Counter("msgs_total", "", ("kind",))
        with pytest.raises(ValueError):
            counter.inc(1, nope="x")
        with pytest.raises(ValueError):
            counter.inc(1)

    def test_watched_series_reads_its_source_in_place(self):
        counter = Counter("watched_total", "", ("node",))
        source = {"total": 17}
        counter.watch((("node", "a"),), lambda: source["total"])
        counter.inc(3, node="b")  # stored and watched series share a family
        assert dict((pairs, v) for _n, pairs, v in counter.samples()) == {
            (("node", "a"),): 17,
            (("node", "b"),): 3,
        }
        source["total"] = 21
        values = {pairs: value for _n, pairs, value in counter.samples()}
        assert values[(("node", "a"),)] == 21

    def test_watch_rejects_wrong_label_set(self):
        counter = Counter("watched_total", "", ("node",))
        with pytest.raises(ValueError):
            counter.watch((("zone", "a"),), lambda: 0)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("depth", "", ())
        gauge.set(5)
        child = gauge.labels()
        child.inc(2)
        child.dec()
        assert list(gauge.samples()) == [("depth", (), 6.0)]


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        histogram = Histogram("rtt", "", (), buckets=(0.1, 0.5, 1.0))
        for value in (0.05, 0.3, 0.3, 0.9, 4.0):
            histogram.observe(value)
        samples = {
            (name, pairs): value for name, pairs, value in histogram.samples()
        }
        assert samples[("rtt_bucket", (("le", "0.1"),))] == 1
        assert samples[("rtt_bucket", (("le", "0.5"),))] == 3
        assert samples[("rtt_bucket", (("le", "1.0"),))] == 4
        assert samples[("rtt_bucket", (("le", "+Inf"),))] == 5  # includes 4.0
        assert samples[("rtt_count", ())] == 5
        assert samples[("rtt_sum", ())] == pytest.approx(5.55)

    def test_buckets_must_be_sorted_and_distinct(self):
        with pytest.raises(ValueError):
            Histogram("h", "", (), buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            Histogram("h", "", (), buckets=(0.5, 0.5))
        with pytest.raises(ValueError):
            Histogram("h", "", (), buckets=())

    def test_bound_child_observes(self):
        histogram = Histogram("rtt", "", ("node",), buckets=(1.0,))
        bound = histogram.labels(node="a")
        bound.observe(0.5)
        bound.observe(2.0)
        samples = {
            (name, pairs): value for name, pairs, value in histogram.samples()
        }
        assert samples[("rtt_bucket", (("node", "a"), ("le", "1.0")))] == 1
        assert samples[("rtt_count", (("node", "a"),))] == 2


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "help", ("node",))
        b = registry.counter("x_total", "ignored", ("node",))
        assert a is b

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_label_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("depth", labelnames=("node",))
        with pytest.raises(ValueError):
            registry.gauge("depth", labelnames=("node", "queue"))

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("0bad")
        with pytest.raises(ValueError):
            registry.counter("has space")

    def test_readers_discover_label_values_when_sampled(self):
        registry = MetricsRegistry()
        counter = registry.counter("by_kind_total", "", ("kind",))
        by_kind = {"ping": 2}
        counter.read(
            lambda: [((("kind", k),), v) for k, v in by_kind.items()]
        )
        (family,) = registry.collect()
        assert [v for _n, _p, v in family.samples()] == [2]
        by_kind["ack"] = 5
        assert {p[0][1]: v for _n, p, v in family.samples()} == {
            "ping": 2, "ack": 5,
        }

    def test_collect_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.gauge("zz")
        registry.gauge("aa")
        assert [m.name for m in registry.collect()] == ["aa", "zz"]


def lifeguard_config():
    return SwimConfig(
        flags=LifeguardFlags.lifeguard(),
        push_pull_interval=0.0,
        reconnect_interval=0.0,
    )


class TestNodeCollector:
    def test_snapshot_reflects_node_state(self):
        cluster = LocalCluster(["a", "b", "c"], config=lifeguard_config())
        node = cluster.nodes["a"]
        registry = MetricsRegistry()
        NodeCollector(registry, node)
        node.local_health.apply_delta(2)
        registry.collect()

        def value(name, **labels):
            metric = registry.get(name)
            pairs = tuple((k, labels[k]) for k in metric.labelnames)
            for _n, sample_pairs, sample_value in metric.samples():
                if sample_pairs == pairs:
                    return sample_value
            raise AssertionError(f"no sample {name} {labels}")

        assert value("lifeguard_members", node="a", state="alive") == 3
        assert value("lifeguard_lhm_score", node="a") == 2
        assert value("lifeguard_lhm_max", node="a") == 8
        # LHA-Probe scales the interval by (LHM + 1).
        assert value("lifeguard_probe_interval_seconds", node="a") == 3.0
        assert value("lifeguard_node_running", node="a") == 0
        assert value("lifeguard_suspicions", node="a") == 0

    def test_telemetry_counters_mirrored(self):
        cluster = LocalCluster(["a", "b"], config=lifeguard_config())
        node = cluster.nodes["a"]
        registry = MetricsRegistry()
        NodeCollector(registry, node)
        node.start(first_probe_delay=0.05)
        cluster.run_for(2.0)
        registry.collect()
        metric = registry.get("lifeguard_msgs_sent_total")
        values = {pairs: v for _n, pairs, v in metric.samples()}
        assert values[(("node", "a"),)] == node.telemetry.msgs_sent > 0
        by_kind = registry.get("lifeguard_msgs_sent_by_kind_total")
        kind_values = {pairs: v for _n, pairs, v in by_kind.samples()}
        assert kind_values[(("node", "a"), ("kind", "ping"))] > 0

    def test_scheduler_selections_mirrored(self):
        cluster = LocalCluster(["a", "b"], config=lifeguard_config())
        node = cluster.nodes["a"]
        registry = MetricsRegistry()
        NodeCollector(registry, node)
        node.start(first_probe_delay=0.05)
        cluster.run_for(2.0)
        registry.collect()
        metric = registry.get("lifeguard_probe_scheduler_selections_total")
        values = {pairs: v for _n, pairs, v in metric.samples()}
        selections = node.members.probe_scheduler.selections
        assert (
            values[(("node", "a"), ("strategy", "round-robin"))]
            == selections
            > 0
        )

    def test_rtt_hook_feeds_histogram(self):
        cluster = LocalCluster(["a", "b"], config=lifeguard_config())
        node = cluster.nodes["a"]
        registry = MetricsRegistry()
        collector = NodeCollector(registry, node)
        collector.install_rtt_hook()
        assert node.on_probe_rtt == collector.observe_rtt
        node.on_probe_rtt("b", 0.002)
        samples = {
            (name, pairs): v for name, pairs, v in collector.rtt.samples()
        }
        assert samples[("lifeguard_probe_rtt_seconds_count", (("node", "a"),))] == 1

    def test_one_registry_hosts_many_nodes(self):
        cluster = LocalCluster(["a", "b"], config=lifeguard_config())
        registry = MetricsRegistry()
        for node in cluster.nodes.values():
            NodeCollector(registry, node)
        registry.collect()
        metric = registry.get("lifeguard_members")
        nodes_seen = {
            dict(pairs)["node"] for _n, pairs, _v in metric.samples()
        }
        assert nodes_seen == {"a", "b"}

    def test_member_states_tracked_through_failure(self):
        cluster = LocalCluster(["a", "b", "c"], config=lifeguard_config())
        registry = MetricsRegistry()
        collector = NodeCollector(registry, cluster.nodes["a"])
        cluster.blackhole("b")
        for name, node in cluster.nodes.items():
            if name != "b":
                node.start(first_probe_delay=0.05)
        cluster.run_for(60.0)
        registry.collect()
        metric = registry.get("lifeguard_members")
        values = {pairs: v for _n, pairs, v in metric.samples()}
        assert values[(("node", "a"), ("state", "dead"))] >= 1
        assert collector.node.members.num_in_state(MemberState.DEAD) >= 1


class TestSimClusterIntegration:
    def test_install_ops_registry(self):
        from repro.sim.runtime import SimCluster

        cluster = SimCluster(
            n_members=4, config=SwimConfig.lifeguard(), seed=7
        )
        registry = cluster.install_ops_registry()
        assert cluster.install_ops_registry() is registry  # idempotent
        cluster.start()
        cluster.run_for(10.0)
        registry.collect()
        rtt = registry.get("lifeguard_probe_rtt_seconds")
        total_rtt_count = sum(
            v for name, _p, v in rtt.samples() if name.endswith("_count")
        )
        assert total_rtt_count > 0  # direct acks observed under sim clock
        members = registry.get("lifeguard_members")
        nodes_seen = {dict(p)["node"] for _n, p, _v in members.samples()}
        assert nodes_seen == set(cluster.names)
