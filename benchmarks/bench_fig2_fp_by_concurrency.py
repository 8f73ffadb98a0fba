"""Figure 2 — total false positives versus concurrent anomalies.

Paper: FP rises with the number of concurrent anomalies for every
configuration, and full Lifeguard sits 50-100x below SWIM at every
concurrency level (log-scale plot).
"""

import pytest

from benchmarks.conftest import publish
from repro.harness.sweep import fp_by_concurrency


@pytest.mark.benchmark(group="fig2")
def test_fig2_total_fp_by_concurrency(benchmark, interval_data):
    series = benchmark.pedantic(
        lambda: {
            name: fp_by_concurrency(results)
            for name, results in interval_data.items()
        },
        rounds=1,
        iterations=1,
    )
    publish(
        "fig2_fp_by_concurrency",
        {
            name: {c: stats.fp_events for c, stats in per.items()}
            for name, per in series.items()
        },
    )

    swim = series["SWIM"]
    lifeguard = series["Lifeguard"]
    concurrencies = sorted(swim)

    # FP grows with concurrency for SWIM: the top of the sweep must be
    # well above the bottom (the paper's curves rise ~2 decades).
    assert swim[concurrencies[-1]].fp_events > swim[concurrencies[0]].fp_events

    # Lifeguard is far below SWIM at every concurrency with enough
    # signal to compare.
    for c in concurrencies:
        if swim[c].fp_events >= 20:
            assert lifeguard[c].fp_events <= swim[c].fp_events * 0.25, c

    # Aggregate reduction is at least ~10x.
    total_swim = sum(s.fp_events for s in swim.values())
    total_lifeguard = sum(s.fp_events for s in lifeguard.values())
    assert total_lifeguard <= total_swim * 0.10
