"""Table VI — message load (messages and bytes sent).

Paper (alpha=5, beta=6): full Lifeguard sends ~11% more messages than
SWIM but ~2% fewer bytes; LHA-Suspicion adds load (re-gossip), LHA-Probe
removes load (probe back-off).
"""

import pytest

from benchmarks.conftest import publish
from repro.harness.sweep import IntervalAggregate


@pytest.mark.benchmark(group="table6")
def test_table6_message_load(benchmark, interval_data):
    aggregates = benchmark.pedantic(
        lambda: [
            IntervalAggregate.from_results(name, results)
            for name, results in interval_data.items()
        ],
        rounds=1,
        iterations=1,
    )
    publish(
        "table6_message_load",
        {
            a.configuration: {
                "msgs": a.msgs_sent,
                "bytes": a.bytes_sent,
                "member_seconds": a.member_seconds,
                "msgs_per_member_per_sec": a.msgs_per_member_per_sec,
            }
            for a in aggregates
        },
    )

    by_name = {a.configuration: a for a in aggregates}
    swim = by_name["SWIM"]
    lifeguard = by_name["Lifeguard"]
    lha_probe = by_name["LHA-Probe"]
    buddy = by_name["Buddy System"]

    assert swim.msgs_sent > 0

    # Lifeguard's message count stays within tens of percent of SWIM
    # (paper: +11%) — it must never be a multiple.
    ratio_msgs = lifeguard.msgs_sent / swim.msgs_sent
    assert 0.7 < ratio_msgs < 1.6

    # Bytes stay comparable as well (paper: -2%).
    ratio_bytes = lifeguard.bytes_sent / swim.bytes_sent
    assert 0.6 < ratio_bytes < 1.6

    # LHA-Probe alone reduces load relative to SWIM (its back-off sends
    # fewer probes), per the paper's Table VI row (98.5% / 90.0%).
    assert lha_probe.msgs_sent <= swim.msgs_sent * 1.05

    # Buddy System is load-neutral (100.07% / 99.01% in the paper).
    assert 0.85 < buddy.msgs_sent / swim.msgs_sent < 1.15
