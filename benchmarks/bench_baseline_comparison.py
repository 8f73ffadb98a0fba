"""Related-work comparison (paper Section VI, future work Section VII).

Pits four detectors against the same slow-member anomaly:

* Chen et al.'s adaptive heartbeat detector;
* the phi-accrual detector;
* Chen + the transplanted local-health heuristic (Section VII);
* SWIM with full Lifeguard.

The paper's argument is qualitative — adaptive heartbeat detectors adapt
to the *network* but not to their own slowness, so a slow monitor makes
false accusations that Lifeguard-style local health suppresses. This
benchmark quantifies it on identical anomalies.
"""

import pytest

from benchmarks.conftest import publish
from repro.baselines.heartbeat import HeartbeatConfig
from repro.baselines.runtime import HeartbeatCluster
from repro.config import SwimConfig
from repro.harness.sweep import env_scale, run_many
from repro.metrics.analysis import classify_false_positives
from repro.sim.runtime import SimCluster
from repro.swim.events import EventKind

SCALE = env_scale()
N = min(SCALE.n_members, 48)
SLOW = 4
STALL = 6.0
TEST_TIME = min(SCALE.min_test_time, 60.0)


def _slow_windows(cluster, members, until):
    start = cluster.now
    return cluster.anomalies.cyclic_windows(
        members, first_start=start, duration=STALL, interval=0.002,
        until=until if until > start else start + TEST_TIME,
    )


def _run_heartbeat(args):
    estimator, local_awareness, seed = args
    config = HeartbeatConfig(estimator=estimator, local_awareness=local_awareness)
    cluster = HeartbeatCluster(n_members=N, config=config, seed=seed)
    cluster.start()
    cluster.run_for(15.0)
    slow = cluster.names[:SLOW]
    start = cluster.now
    end = _slow_windows(cluster, slow, start + TEST_TIME)
    cluster.run_until(end)
    stats = classify_false_positives(
        cluster.event_log.events, set(slow), since=start, until=end
    )
    return stats.fp_events


def _run_lifeguard(seed):
    cluster = SimCluster(n_members=N, config=SwimConfig.lifeguard(), seed=seed)
    cluster.start()
    cluster.run_for(15.0)
    slow = cluster.names[:SLOW]
    start = cluster.now
    end = _slow_windows(cluster, slow, start + TEST_TIME)
    cluster.run_until(end)
    stats = classify_false_positives(
        cluster.event_log.events, set(slow), since=start, until=end
    )
    return stats.fp_events


SEEDS = (31, 32)


@pytest.mark.benchmark(group="baselines")
def test_baseline_detector_comparison(benchmark):
    def sweep():
        rows = {}
        rows["Chen"] = sum(
            run_many(_run_heartbeat, [("chen", False, s) for s in SEEDS], SCALE.workers)
        )
        rows["Phi-accrual"] = sum(
            run_many(_run_heartbeat, [("phi", False, s) for s in SEEDS], SCALE.workers)
        )
        rows["Chen+LocalHealth"] = sum(
            run_many(_run_heartbeat, [("chen", True, s) for s in SEEDS], SCALE.workers)
        )
        rows["Lifeguard"] = sum(
            run_many(_run_lifeguard, list(SEEDS), SCALE.workers)
        )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    params = dict(
        members=N, slow=SLOW, stall_s=STALL, test_time=TEST_TIME, seeds=SEEDS
    )
    publish("baseline_comparison", {**rows, "params": params})

    # The related-work detectors accuse healthy members when the
    # *monitor* is slow; local health (either transplanted onto Chen, or
    # Lifeguard proper) suppresses the phenomenon.
    assert rows["Chen"] > 0
    assert rows["Chen+LocalHealth"] < rows["Chen"]
    assert rows["Lifeguard"] <= rows["Chen"]
