"""Table IV — aggregated false positives per configuration.

Paper values (alpha=5, beta=6): Lifeguard cuts total FP to 1.53% of SWIM
and FP at healthy members to 1.89%; LHA-Suspicion is the biggest single
contributor; Buddy System barely moves total FP.
"""

import pytest

from benchmarks.conftest import publish
from repro.harness.sweep import IntervalAggregate


def aggregate(interval_data):
    return [
        IntervalAggregate.from_results(name, results)
        for name, results in interval_data.items()
    ]


@pytest.mark.benchmark(group="table4")
def test_table4_false_positives(benchmark, interval_data):
    aggregates = benchmark.pedantic(
        aggregate, args=(interval_data,), rounds=1, iterations=1
    )
    publish(
        "table4_false_positives",
        {
            a.configuration: {
                "fp": a.fp_events,
                "fp_healthy": a.fp_healthy_events,
                "runs": a.runs,
            }
            for a in aggregates
        },
    )

    by_name = {a.configuration: a for a in aggregates}
    swim = by_name["SWIM"]
    lifeguard = by_name["Lifeguard"]
    lha_suspicion = by_name["LHA-Suspicion"]

    # The paper's headline: slow message processing makes SWIM raise
    # false positives, and full Lifeguard suppresses them by well over an
    # order of magnitude.
    assert swim.fp_events > 0
    assert lifeguard.fp_events <= swim.fp_events * 0.10

    # LHA-Suspicion alone already delivers most of the reduction.
    assert lha_suspicion.fp_events <= swim.fp_events * 0.30

    # FP- never exceeds FP by definition.
    for agg in aggregates:
        assert agg.fp_healthy_events <= agg.fp_events

    # Lifeguard also reduces false positives at healthy members.
    assert lifeguard.fp_healthy_events <= max(1, swim.fp_healthy_events)
