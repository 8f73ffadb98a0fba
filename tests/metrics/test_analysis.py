"""Tests for false-positive classification and latency extraction
(the paper's metric definitions, Sections V-F1 / V-F2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.analysis import (
    FalsePositiveStats,
    classify_false_positives,
    detection_latencies,
    percentile_summary,
    ratio_pct,
)
from repro.swim.events import EventKind, MemberEvent


def ev(time, observer, subject, kind=EventKind.FAILED):
    return MemberEvent(time, observer, subject, kind, 1)


class TestClassification:
    def test_paper_definitions(self):
        """FP: failure events about healthy members at any member.
        FP-: those raised at healthy members."""
        anomalous = {"slow1", "slow2"}
        events = [
            ev(1.0, "slow1", "healthy1"),   # FP (at anomalous observer)
            ev(2.0, "healthy2", "healthy1"),  # FP and FP-
            ev(3.0, "healthy2", "slow1"),   # about anomalous: not an FP
            ev(4.0, "slow2", "slow1"),      # about anomalous: not an FP
        ]
        stats = classify_false_positives(events, anomalous)
        assert stats.fp_events == 2
        assert stats.fp_healthy_events == 1
        assert stats.anomalous_subject_events == 2

    def test_non_failure_events_ignored(self):
        events = [ev(1.0, "a", "b", EventKind.SUSPECTED)]
        stats = classify_false_positives(events, set())
        assert stats.fp_events == 0

    def test_window_filtering(self):
        events = [ev(1.0, "a", "b"), ev(5.0, "a", "b"), ev(9.0, "a", "b")]
        stats = classify_false_positives(events, set(), since=2.0, until=8.0)
        assert stats.fp_events == 1

    def test_fp_by_observer(self):
        events = [ev(1.0, "a", "x"), ev(2.0, "a", "y"), ev(3.0, "b", "x")]
        stats = classify_false_positives(events, set())
        assert stats.fp_by_observer == {"a": 2, "b": 1}

    def test_aggregate(self):
        parts = []
        for i in range(3):
            stats = FalsePositiveStats(fp_events=i, fp_healthy_events=1)
            stats.fp_by_observer = {"a": i}
            parts.append(stats)
        total = FalsePositiveStats.aggregate(parts)
        assert total.fp_events == 3
        assert total.fp_healthy_events == 3
        assert total.fp_by_observer == {"a": 3}


class TestDetectionLatencies:
    MEMBERS = ["h1", "h2", "h3", "slow"]

    def test_first_detection_at_healthy_observer(self):
        events = [
            ev(12.0, "h1", "slow"),
            ev(13.0, "h2", "slow"),
            ev(14.0, "h3", "slow"),
        ]
        stats = detection_latencies(events, {"slow"}, 10.0, self.MEMBERS)
        assert stats.first_detection["slow"] == pytest.approx(2.0)
        assert stats.full_dissemination["slow"] == pytest.approx(4.0)
        assert stats.undetected == []

    def test_detection_by_anomalous_observer_ignored(self):
        events = [ev(12.0, "slow2", "slow")]
        stats = detection_latencies(
            events, {"slow", "slow2"}, 10.0, self.MEMBERS + ["slow2"]
        )
        assert "slow" in stats.undetected

    def test_events_before_anomaly_ignored(self):
        events = [ev(5.0, "h1", "slow"), ev(12.0, "h1", "slow")]
        stats = detection_latencies(events, {"slow"}, 10.0, self.MEMBERS)
        assert stats.first_detection["slow"] == pytest.approx(2.0)

    def test_partial_dissemination_absent(self):
        events = [ev(12.0, "h1", "slow")]
        stats = detection_latencies(events, {"slow"}, 10.0, self.MEMBERS)
        assert "slow" in stats.first_detection
        assert "slow" not in stats.full_dissemination

    def test_undetected_member_listed(self):
        stats = detection_latencies([], {"slow"}, 10.0, self.MEMBERS)
        assert stats.undetected == ["slow"]
        assert stats.first_detection_values == []

    def test_multiple_anomalous_members(self):
        events = [
            ev(11.0, "h1", "s1"), ev(12.0, "h2", "s1"),
            ev(15.0, "h1", "s2"), ev(13.0, "h2", "s2"),
        ]
        members = ["h1", "h2", "s1", "s2"]
        stats = detection_latencies(events, {"s1", "s2"}, 10.0, members)
        assert stats.first_detection["s1"] == pytest.approx(1.0)
        assert stats.first_detection["s2"] == pytest.approx(3.0)
        assert stats.full_dissemination["s1"] == pytest.approx(2.0)
        assert stats.full_dissemination["s2"] == pytest.approx(5.0)


class TestPercentiles:
    def test_empty_sample(self):
        summary = percentile_summary([])
        assert summary == {50.0: None, 99.0: None, 99.9: None}

    def test_single_value(self):
        summary = percentile_summary([3.0])
        assert summary[50.0] == pytest.approx(3.0)
        assert summary[99.9] == pytest.approx(3.0)

    def test_median(self):
        summary = percentile_summary([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary[50.0] == pytest.approx(3.0)

    def test_custom_percentiles(self):
        summary = percentile_summary(list(range(101)), percentiles=(25.0, 75.0))
        assert summary[25.0] == pytest.approx(25.0)
        assert summary[75.0] == pytest.approx(75.0)

    def test_tail_percentiles_ordered(self):
        values = [float(i) for i in range(1000)]
        summary = percentile_summary(values)
        assert summary[50.0] < summary[99.0] < summary[99.9]

    def test_out_of_range_percentile_rejected(self):
        for bad in (-0.1, 100.1):
            with pytest.raises(ValueError):
                percentile_summary([1.0, 2.0], percentiles=(bad,))

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(-1e9, 1e9, allow_nan=False),
                st.integers(0, 5).map(float),  # ties
            ),
            min_size=1,
            max_size=200,
        ),
        extra=st.floats(0.0, 100.0),
    )
    def test_bit_equal_to_numpy_linear_method(self, values, extra):
        """``numpy.percentile`` (default ``linear`` method) is the
        reference the pure-Python spelling replaced; equality is exact,
        not approximate — gated statistics hang off these floats."""
        np = pytest.importorskip("numpy")
        percentiles = (0.0, 50.0, 99.0, 99.9, 100.0, extra)
        expected = np.percentile(np.asarray(values, dtype=float), percentiles)
        summary = percentile_summary(values, percentiles)
        assert [summary[p] for p in percentiles] == [float(v) for v in expected]


class TestRatio:
    def test_percentage(self):
        assert ratio_pct(50, 200) == pytest.approx(25.0)

    def test_zero_baseline(self):
        assert ratio_pct(5, 0) is None
