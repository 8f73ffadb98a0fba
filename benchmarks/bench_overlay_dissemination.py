"""Future-work exploration (paper Section VII): overlay dissemination.

"All measures of detection and dissemination latency are reduced by the
tuning, however the gap between median and 99th percentile latencies
widens ... Future work could explore ways to more tightly bound detection
and dissemination latencies. Adding a random overlay network is one
possible approach."

This benchmark compares full-dissemination latency spread (p99 - median)
for uniform random gossip versus gossip over a fixed random regular
overlay, on identical true-failure workloads.
"""

import pytest

from benchmarks.conftest import publish
from repro.config import SwimConfig
from repro.harness.sweep import env_scale, run_many
from repro.metrics.analysis import percentile_summary

SCALE = env_scale()
N = min(SCALE.n_members, 64)
SEEDS = tuple(range(300, 300 + (8 if not SCALE.full else 20)))
OVERLAY_DEGREE = 8


def _measure(args):
    """Kill one member; return its full-dissemination latency (or None)."""
    overlay, seed = args
    from repro.sim.runtime import SimCluster

    cluster = SimCluster(n_members=N, config=SwimConfig.lifeguard(), seed=seed)
    if overlay:
        cluster.install_gossip_overlay(OVERLAY_DEGREE)
    cluster.start()
    cluster.run_for(10.0)
    victim = cluster.names[seed % N]
    cluster.nodes[victim].stop()
    start = cluster.now
    cluster.run_for(40.0)
    healthy = [n for n in cluster.names if n != victim]
    full = cluster.event_log.full_dissemination_time(victim, healthy, since=start)
    return None if full is None else full - start


@pytest.mark.benchmark(group="overlay")
def test_overlay_dissemination_tails(benchmark):
    def sweep():
        rows = {}
        for overlay, label in ((False, "uniform"), (True, f"overlay(k={OVERLAY_DEGREE})")):
            samples = [
                s
                for s in run_many(
                    _measure, [(overlay, s) for s in SEEDS], SCALE.workers
                )
                if s is not None
            ]
            stats = percentile_summary(samples, (50.0, 99.0))
            rows[label] = {
                "median": stats[50.0],
                "p99": stats[99.0],
                "spread": (
                    stats[99.0] - stats[50.0]
                    if stats[99.0] is not None
                    else None
                ),
                "samples": len(samples),
            }
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    params = dict(members=N, trials=len(SEEDS))
    publish("overlay_dissemination", {**rows, "params": params})

    uniform = rows["uniform"]
    overlay = rows[f"overlay(k={OVERLAY_DEGREE})"]
    # Every trial must fully disseminate under both strategies.
    assert uniform["samples"] == len(SEEDS)
    assert overlay["samples"] == len(SEEDS)
    # The overlay must not meaningfully delay dissemination.
    assert overlay["median"] <= uniform["median"] * 1.25
