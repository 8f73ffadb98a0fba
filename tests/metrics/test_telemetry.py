"""Tests for message/byte accounting."""

from collections import Counter

import pytest

from repro.metrics.telemetry import TELEMETRY_STATS, Telemetry
from repro.metrics.trace import telemetry_from_json, telemetry_to_json
from repro.ops.registry import MetricsRegistry, NodeCollector

from tests.conftest import LocalCluster


class TestRecording:
    def test_record_send(self):
        telemetry = Telemetry()
        telemetry.record_send("ping", 25)
        telemetry.record_send("ping", 30)
        telemetry.record_send("gossip", 100)
        assert telemetry.msgs_sent == 3
        assert telemetry.bytes_sent == 155
        assert telemetry.msgs_by_kind["ping"] == 2
        assert telemetry.bytes_by_kind["gossip"] == 100

    def test_reliable_tracked_separately(self):
        telemetry = Telemetry()
        telemetry.record_send("pushpull", 500, reliable=True)
        telemetry.record_send("ping", 25, reliable=False)
        assert telemetry.reliable_msgs_sent == 1
        assert telemetry.reliable_bytes_sent == 500
        assert telemetry.msgs_sent == 2  # reliable included in totals

    def test_record_receive(self):
        telemetry = Telemetry()
        telemetry.record_receive(40)
        telemetry.record_receive(60)
        assert telemetry.msgs_received == 2
        assert telemetry.bytes_received == 100


class TestAggregation:
    def test_merge(self):
        a, b = Telemetry(), Telemetry()
        a.record_send("ping", 10)
        b.record_send("ping", 20)
        b.record_send("ack", 5, reliable=True)
        a.merge(b)
        assert a.msgs_sent == 3
        assert a.bytes_sent == 35
        assert a.msgs_by_kind["ping"] == 2
        assert a.reliable_msgs_sent == 1

    def test_aggregate(self):
        parts = []
        for i in range(4):
            telemetry = Telemetry()
            telemetry.record_send("ping", 10 * (i + 1))
            parts.append(telemetry)
        total = Telemetry.aggregate(parts)
        assert total.msgs_sent == 4
        assert total.bytes_sent == 100

    def test_aggregate_empty(self):
        total = Telemetry.aggregate([])
        assert total.msgs_sent == 0

    def test_as_dict(self):
        telemetry = Telemetry()
        telemetry.record_send("ping", 10)
        data = telemetry.as_dict()
        assert data["msgs_sent"] == 1
        assert data["bytes_sent"] == 10


class TestTransportStats:
    def test_incr_and_get(self):
        from repro.metrics.telemetry import TransportStats

        stats = TransportStats()
        stats.incr("conns_opened")
        stats.incr("conns_reused", 3)
        assert stats.get("conns_opened") == 1
        assert stats.get("conns_reused") == 3
        assert stats.get("never_seen") == 0

    def test_merge(self):
        from repro.metrics.telemetry import TransportStats

        a, b = TransportStats(), TransportStats()
        a.incr("frames_received", 2)
        b.incr("frames_received", 3)
        b.incr("frames_truncated")
        a.merge(b)
        assert a.get("frames_received") == 5
        assert a.get("frames_truncated") == 1

    def test_telemetry_carries_transport_stats(self):
        a, b = Telemetry(), Telemetry()
        a.transport.incr("reliable_send_ok")
        b.transport.incr("reliable_send_ok", 2)
        b.record_oversized_broadcast(2000)
        a.merge(b)
        assert a.transport.get("reliable_send_ok") == 3
        assert a.oversized_broadcasts == 1
        data = a.as_dict()
        assert data["transport"]["reliable_send_ok"] == 3
        assert data["oversized_broadcasts"] == 1

    def test_aggregate_includes_transport(self):
        parts = []
        for _ in range(3):
            telemetry = Telemetry()
            telemetry.transport.incr("conns_opened")
            parts.append(telemetry)
        total = Telemetry.aggregate(parts)
        assert total.transport.get("conns_opened") == 3


class TestDeclarationTable:
    """Every counter is declared once, in ``TELEMETRY_STATS``; storage,
    serialization, aggregation and exposition all derive from the row."""

    @pytest.mark.parametrize("stat", TELEMETRY_STATS, ids=lambda s: s.field)
    def test_declared_counter_is_stored_serialized_summed_exposed(
        self, stat, tmp_path
    ):
        node = LocalCluster(["a", "b"]).nodes["a"]
        telemetry = node.telemetry
        value = 7 if stat.key is None else Counter({"x": 3, "y": 4})
        setattr(telemetry, stat.field, value)
        plain = value if stat.key is None else dict(value)

        assert telemetry.as_dict()[stat.field] == plain

        path = tmp_path / "telemetry.json"
        telemetry_to_json(telemetry, path)
        assert getattr(telemetry_from_json(path), stat.field) == value

        total = Telemetry.aggregate([telemetry, telemetry])
        assert getattr(total, stat.field) == value + value

        registry = MetricsRegistry()
        NodeCollector(registry, node)
        family = registry.get(stat.family)
        assert family.kind == "counter"
        assert family.labelnames == ("node",) + stat.labelnames
        exposed = {pairs: v for _name, pairs, v in family.samples()}
        base = (("node", "a"),) + stat.labels
        if stat.key is None:
            assert exposed[base] == 7
        else:
            assert exposed[base + ((stat.key, "x"),)] == 3
            assert exposed[base + ((stat.key, "y"),)] == 4

    def test_fields_are_exactly_the_table_plus_transport(self):
        fields = [stat.field for stat in TELEMETRY_STATS]
        assert len(set(fields)) == len(fields)
        assert set(Telemetry.__slots__) == set(fields) | {"transport"}
        assert set(Telemetry().as_dict()) == set(Telemetry.__slots__)

    def test_series_are_distinct(self):
        series = [(s.family, s.labels) for s in TELEMETRY_STATS]
        assert len(set(series)) == len(series)
