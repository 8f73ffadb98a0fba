"""Buddy System mechanism benchmark: time to refutation.

The Buddy System's method of action (paper Section IV-C) is to tell a
suspected member about the suspicion at the first ping, so refutation
starts sooner. In the aggregated Interval metrics its effect is diluted
(the members that benefit are the suspected ones, and the reduced sweeps
rarely exercise the exact race it wins), so this benchmark measures the
mechanism directly:

    a member is briefly unresponsive, long enough to be suspected and
    for the suspect gossip to retire from the queues; once it recovers,
    how long until the whole group sees it alive again?

The victim's receive buffer overflows during the stall (capacity 0 —
everything sent to it while unresponsive is lost), so at recovery it
knows nothing of the suspicion, and the suspect gossip has already
retired from every queue. Without Buddy, the probes it now answers do
NOT clear the suspicion (an ack does not refute — paper footnote 3), so
the suspicion times out: a false failure, repaired only when
gossip-to-the-dead reaches the victim. With Buddy, the first ping to the
suspected member carries the suspicion, the victim refutes immediately,
and the false failure never happens.
"""

import pytest

from benchmarks.conftest import publish
from repro.config import LifeguardFlags, SwimConfig
from repro.harness.sweep import env_scale, run_many
from repro.metrics.analysis import percentile_summary

SCALE = env_scale()
N = min(SCALE.n_members, 48)
#: Long enough to be suspected and for the suspect gossip to retire,
#: comfortably shorter than the ~8.4 s suspicion timeout at n=48.
BLOCK = 6.0
SEEDS = tuple(range(200, 200 + (10 if not SCALE.full else 30)))


def _measure(args):
    """Returns (seconds from unblock until nobody suspects the victim,
    whether the victim was ever wrongly declared failed)."""
    buddy_enabled, seed = args
    from repro.sim.runtime import SimCluster
    from repro.swim.state import MemberState

    config = SwimConfig(
        suspicion_beta=1.0,
        flags=LifeguardFlags(buddy_system=buddy_enabled),
        push_pull_interval=0.0,
        reconnect_interval=0.0,
        tcp_fallback_probe=False,
    )
    cluster = SimCluster(
        n_members=N, config=config, seed=seed, anomaly_inbound_capacity=0
    )
    cluster.start()
    cluster.run_for(10.0)
    victim = cluster.names[seed % N]
    start = cluster.now
    cluster.anomalies.block_window(victim, start, start + BLOCK)
    cluster.run_until(start + BLOCK)

    deadline = start + BLOCK + 60.0
    while cluster.now < deadline:
        suspected = any(
            cluster.view(observer, victim)
            in (MemberState.SUSPECT, MemberState.DEAD)
            for observer in cluster.names
            if observer != victim
        )
        if not suspected and cluster.now > start + BLOCK + 0.2:
            break
        cluster.run_for(0.2)
    cleared_after = cluster.now - (start + BLOCK)
    was_failed = bool(
        [e for e in cluster.event_log.failures_about(victim) if e.time >= start]
    )
    return cleared_after, was_failed


@pytest.mark.benchmark(group="buddy")
def test_buddy_time_to_refutation(benchmark):
    def sweep():
        rows = {}
        for buddy_enabled, label in ((False, "SWIM"), (True, "Buddy System")):
            samples = run_many(
                _measure, [(buddy_enabled, s) for s in SEEDS], SCALE.workers
            )
            times = [t for t, _failed in samples]
            failures = sum(1 for _t, failed in samples if failed)
            rows[label] = {
                "median": percentile_summary(times, (50.0,))[50.0],
                "max": max(times),
                "wrongly_failed": failures,
            }
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    params = dict(members=N, block_s=BLOCK, trials=len(SEEDS))
    publish("buddy_refutation", {**rows, "params": params})

    swim = rows["SWIM"]
    buddy = rows["Buddy System"]
    # Buddy tells the victim at the first probe: suspicions clear much
    # faster and the wrongful failure verdicts mostly disappear.
    assert buddy["median"] <= swim["median"]
    assert buddy["wrongly_failed"] < swim["wrongly_failed"]
