"""Figure 1 — false positives from CPU exhaustion.

Paper: 100-member cluster; the Linux ``stress`` tool (128 CPU hogs) runs
on 1..32 members for 5 minutes. Even one overloaded member makes SWIM
raise false positives; Lifeguard produces none until 16 members are
stressed and stays 1-2 orders of magnitude below SWIM throughout.
"""

import pytest

from benchmarks.conftest import publish
from repro.metrics.analysis import FalsePositiveStats


def build_rows(stress_data):
    """FP counts per stressed-member count, under ``"stressed"``, and
    the cluster size they were measured at, under ``"members"``."""
    rows = {}
    by_count = {"SWIM": {}, "Lifeguard": {}}
    for configuration, results in stress_data.items():
        for result in results:
            by_count[configuration].setdefault(
                result.params.n_stressed, []
            ).append(result)
    for count in sorted(by_count["SWIM"]):
        swim = FalsePositiveStats.aggregate(
            r.false_positives for r in by_count["SWIM"][count]
        )
        lifeguard = FalsePositiveStats.aggregate(
            r.false_positives for r in by_count["Lifeguard"][count]
        )
        rows[count] = {
            "swim_fp": swim.fp_events,
            "swim_fp_healthy": swim.fp_healthy_events,
            "lifeguard_fp": lifeguard.fp_events,
            "lifeguard_fp_healthy": lifeguard.fp_healthy_events,
        }
    (members,) = {r.params.n_members for rs in stress_data.values() for r in rs}
    return {"members": members, "stressed": rows}


@pytest.mark.benchmark(group="fig1")
def test_fig1_cpu_exhaustion_false_positives(benchmark, stress_data):
    payload = benchmark.pedantic(
        build_rows, args=(stress_data,), rounds=1, iterations=1
    )
    publish("fig1_stress", payload)
    rows = payload["stressed"]

    counts = sorted(rows)
    total_swim = sum(rows[c]["swim_fp"] for c in counts)
    total_lifeguard = sum(rows[c]["lifeguard_fp"] for c in counts)

    # SWIM suffers false positives from CPU exhaustion...
    assert total_swim > 0
    # ... and a substantial share of them land at healthy members (the
    # paper's most concerning metric).
    total_swim_healthy = sum(rows[c]["swim_fp_healthy"] for c in counts)
    assert total_swim_healthy > 0

    # Lifeguard suppresses the phenomenon by an order of magnitude+.
    assert total_lifeguard <= total_swim * 0.15

    # The trend rises with the number of stressed members (compare the
    # bottom third against the top third of the sweep to absorb noise).
    third = max(1, len(counts) // 3)
    low = sum(rows[c]["swim_fp"] for c in counts[:third]) / third
    high = sum(rows[c]["swim_fp"] for c in counts[-third:]) / third
    assert high > low
