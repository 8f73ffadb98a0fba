"""Experiment metrics, exactly as the paper defines them.

Section V-F1: *"We define a failure detection false positive as occurring
each time an agent failure event is raised about a Consul agent that is
not in the set of agents for which anomalies have been introduced. Within
these false positives, we distinguish between false positives that occur
at any Consul agent (denoted FP), and those that occur at healthy agents
(denoted FP-)."*

Section V-F2 (Threshold experiment): first-detection latency is the time
from the start of an anomaly to the first failure event about that member
at one other agent; full-dissemination latency is the time until *all
healthy* agents have raised the failure event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.swim.events import EventKind, MemberEvent


@dataclass
class FalsePositiveStats:
    """False-positive counts for one run (or an aggregate of runs)."""

    #: FP: failure events about healthy members, raised at *any* member.
    fp_events: int = 0
    #: FP-: failure events about healthy members raised *at* healthy members.
    fp_healthy_events: int = 0
    #: Failure events about anomalous members (true-ish positives; not FPs).
    anomalous_subject_events: int = 0
    #: FP counts broken down by observer member (diagnostics).
    fp_by_observer: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "FalsePositiveStats") -> None:
        self.fp_events += other.fp_events
        self.fp_healthy_events += other.fp_healthy_events
        self.anomalous_subject_events += other.anomalous_subject_events
        for observer, count in other.fp_by_observer.items():
            self.fp_by_observer[observer] = self.fp_by_observer.get(observer, 0) + count

    @classmethod
    def aggregate(cls, parts: Iterable["FalsePositiveStats"]) -> "FalsePositiveStats":
        total = cls()
        for part in parts:
            total.merge(part)
        return total


def classify_false_positives(
    events: Sequence[MemberEvent],
    anomalous: Set[str],
    since: float = float("-inf"),
    until: float = float("inf"),
) -> FalsePositiveStats:
    """Classify every FAILED event in the window per the paper's rules."""
    stats = FalsePositiveStats()
    for event in events:
        if event.kind is not EventKind.FAILED:
            continue
        if not since <= event.time <= until:
            continue
        if event.subject in anomalous:
            stats.anomalous_subject_events += 1
            continue
        stats.fp_events += 1
        stats.fp_by_observer[event.observer] = (
            stats.fp_by_observer.get(event.observer, 0) + 1
        )
        if event.observer not in anomalous:
            stats.fp_healthy_events += 1
    return stats


@dataclass
class DisseminationStats:
    """Detection/dissemination latencies for one set of anomalies."""

    #: Per anomalous member: seconds from anomaly start to first failure
    #: event at a healthy agent. Members never detected are absent.
    first_detection: Dict[str, float] = field(default_factory=dict)
    #: Per anomalous member: seconds from anomaly start until every
    #: healthy agent had raised the failure event. Members never fully
    #: disseminated are absent.
    full_dissemination: Dict[str, float] = field(default_factory=dict)
    #: Members whose failure was never detected by any healthy agent.
    undetected: List[str] = field(default_factory=list)

    @property
    def first_detection_values(self) -> List[float]:
        return list(self.first_detection.values())

    @property
    def full_dissemination_values(self) -> List[float]:
        return list(self.full_dissemination.values())


def first_failed_times(
    events: Iterable[MemberEvent],
    since: Dict[str, float],
    observers: Optional[Set[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Per subject in ``since``: the time of each observer's earliest
    FAILED event about it at or after the subject's start time.

    One pass over ``events`` in any order; ``observers`` restricts whose
    events count. Every detection-latency figure in the tree — Table V,
    the soak report and its simulator twin, the event-log queries — is
    read off this table.
    """
    firsts: Dict[str, Dict[str, float]] = {subject: {} for subject in since}
    for event in events:
        if event.kind is not EventKind.FAILED:
            continue
        start = since.get(event.subject)
        if start is None or event.time < start:
            continue
        if observers is not None and event.observer not in observers:
            continue
        per_observer = firsts[event.subject]
        seen = per_observer.get(event.observer)
        if seen is None or event.time < seen:
            per_observer[event.observer] = event.time
    return firsts


def detection_latencies(
    events: Sequence[MemberEvent],
    anomalous: Set[str],
    anomaly_start: float,
    all_members: Sequence[str],
) -> DisseminationStats:
    """Extract the Threshold experiment's latency metrics.

    Healthy agents are ``all_members`` minus ``anomalous``. Only failure
    events at healthy observers count, per the paper ("first detection by
    one other agent" of a genuinely anomalous member, and dissemination
    "to all healthy agents").
    """
    healthy = {m for m in all_members if m not in anomalous}
    firsts = first_failed_times(
        events, dict.fromkeys(anomalous, anomaly_start), healthy
    )
    stats = DisseminationStats()
    for subject in anomalous:
        per_observer = firsts[subject]
        if not per_observer:
            stats.undetected.append(subject)
            continue
        stats.first_detection[subject] = min(per_observer.values()) - anomaly_start
        if len(per_observer) == len(healthy):
            stats.full_dissemination[subject] = (
                max(per_observer.values()) - anomaly_start
            )
    return stats


def percentile_summary(
    values: Sequence[float],
    percentiles: Tuple[float, ...] = (50.0, 99.0, 99.9),
) -> Dict[float, Optional[float]]:
    """Percentiles of a latency sample (``None`` for an empty sample).

    Uses linear interpolation, matching the conventional definition used
    in systems papers — spelled out operation for operation as
    ``numpy.percentile``'s default ``linear`` method computes it, so the
    results are bit-equal to numpy's (``tests/metrics/test_analysis.py``
    holds the two together) without importing numpy into every process.
    """
    if not values:
        return {p: None for p in percentiles}
    ordered = sorted(float(v) for v in values)
    last = len(ordered) - 1
    out: Dict[float, Optional[float]] = {}
    for p in percentiles:
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentiles must be in the range [0, 100]")
        virtual = last * (p / 100.0)
        lower = int(virtual)
        gamma = virtual - lower
        a, b = ordered[lower], ordered[min(lower + 1, last)]
        # numpy's _lerp: anchored at whichever end is nearer.
        out[p] = b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma
    return out


def ratio_pct(value: float, baseline: float) -> Optional[float]:
    """``value`` as a percentage of ``baseline`` (``None`` if undefined)."""
    if baseline == 0:
        return None
    return 100.0 * value / baseline
