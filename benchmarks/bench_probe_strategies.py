"""Probe-scheduling strategy comparison (docs/PROBE_SCHEDULING.md).

Runs the paper's two fault regimes — Threshold (detection latency,
Section V-D1) and Interval (false positives, Section V-D2) — under every
probe-scheduling strategy with paired seeds, and asserts the directional
claim from arXiv:1302.0792: spending the same probe budget on
likelier-failed targets must not detect slower than round-robin, and
must not manufacture false positives. The published
``probe_strategies.json`` feeds ``regression.py``, which gates the
default (round-robin) detection latency against the committed baseline.
"""

import pytest

from benchmarks.conftest import publish
from repro.harness.schedulers import (
    SchedulerComparisonParams,
    run_scheduler_comparison,
)


@pytest.fixture(scope="module")
def comparison(scale):
    return run_scheduler_comparison(
        SchedulerComparisonParams(
            configuration="Lifeguard",
            n_members=scale.n_members,
            reps=scale.reps,
            fp_test_time=scale.min_test_time,
            seed=0,
        )
    )


@pytest.mark.benchmark(group="probe_strategies")
def test_probe_strategy_comparison(benchmark, comparison):
    result = benchmark.pedantic(lambda: comparison, rounds=1, iterations=1)
    publish("probe_strategies", result.as_dict())

    round_robin = result.outcome("round-robin")
    assert round_robin.detection_p50 is not None

    for strategy in ("likelihood", "lhm-rtt"):
        outcome = result.outcome(strategy)
        # Every anomaly must be detected, whatever the scheduling bias.
        assert outcome.undetected == 0, strategy
        # Biased scheduling must not detect slower than round-robin
        # beyond small-sample noise (C*reps latency samples per side).
        assert outcome.detection_p50 is not None, strategy
        assert (
            outcome.detection_p50 <= round_robin.detection_p50 * 1.15
        ), strategy
        # ... and must not manufacture false positives: staleness decays
        # toward uniform probing, it never starves a healthy member into
        # a missed refutation.
        assert outcome.fp_events <= round_robin.fp_events + 1, strategy
        assert (
            outcome.fp_healthy_events <= round_robin.fp_healthy_events + 1
        ), strategy
