"""Ablations of Lifeguard's design choices (DESIGN.md section 4).

Not part of the paper's evaluation; these probe the heuristically-chosen
constants the paper flags for future work (Section VII) and our own
anomaly-model choice:

* ``K`` — independent suspicions needed to reach the minimum timeout;
* ``S`` — the LHM saturation limit;
* the nack deadline fraction (80% of the probe timeout in the paper);
* blocked-member semantics: loop-stalling (the paper's instrumentation)
  versus io-only blocking (CPU-starvation-like).
"""

import pytest

from benchmarks.conftest import publish
from repro.harness.interval import IntervalParams, run_interval
from repro.harness.sweep import env_scale, run_many

SCALE = env_scale()
N = min(SCALE.n_members, 64)  # ablations run on a reduced cluster
TEST_TIME = min(SCALE.min_test_time, 60.0)


def corner_params(seed, **config_overrides):
    """One FP-rich Interval corner, used as the ablation workload."""
    return IntervalParams(
        configuration="Lifeguard",
        n_members=N,
        concurrent=max(2, N // 8),
        duration=8.192,
        interval=0.001,
        min_test_time=TEST_TIME,
        seed=seed,
        **config_overrides,
    )


def run_variant(make_params, seeds=(11, 12)):
    results = run_many(run_interval, [make_params(s) for s in seeds], SCALE.workers)
    return sum(r.fp_events for r in results), sum(r.msgs_sent for r in results)


@pytest.mark.benchmark(group="ablations")
def test_ablation_suspicion_k(benchmark):
    """K = 0 collapses LHA-Suspicion to a fixed timeout; larger K delays
    the floor. FP suppression must already be strong at the paper's K=3."""
    def sweep():
        rows = {}
        for k in (0, 1, 3, 6):
            results = run_many(
                _run_with_k, [(k, seed) for seed in (11, 12)], SCALE.workers
            )
            rows[k] = sum(r.fp_events for r in results)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    publish("ablation_suspicion_k", rows)
    # The paper's default must be at least as good as the degenerate K=0.
    assert rows[3] <= max(rows[0], 1)


def _run_with_k(args):
    k, seed = args
    from repro.config import SwimConfig

    return _run_corner(SwimConfig.lifeguard(suspicion_k=k), seed)


def _run_corner(config, seed, concurrent=None, stall_loops=True):
    """Run the shared ablation corner workload with an explicit config."""
    from repro.harness.interval import IntervalResult
    from repro.metrics.analysis import classify_false_positives
    from repro.sim.runtime import SimCluster

    concurrent = concurrent or max(2, N // 8)
    cluster = SimCluster(n_members=N, config=config, seed=seed)
    cluster.anomalies.stall_loops = stall_loops
    cluster.start()
    cluster.run_for(10.0)
    anomalous = cluster.names[:concurrent]
    start = cluster.now
    end = cluster.anomalies.cyclic_windows(
        anomalous, first_start=start, duration=8.192, interval=0.001,
        until=start + TEST_TIME,
    )
    before = cluster.telemetry().msgs_sent
    cluster.run_until(end)
    stats = classify_false_positives(
        cluster.event_log.events, set(anomalous), since=start, until=end
    )
    result = IntervalResult(
        params=corner_params(seed),
        anomalous=list(anomalous),
        false_positives=stats,
        msgs_sent=cluster.telemetry().msgs_sent - before,
        test_time=end - start,
    )
    return result


def _run_with_lhm_max(args):
    # LHA-Probe alone, so S's effect is not drowned by LHA-Suspicion's
    # (much stronger) suppression.
    s, seed = args
    from repro.config import LifeguardFlags, SwimConfig

    config = SwimConfig(
        lhm_max=s,
        suspicion_beta=1.0,
        flags=LifeguardFlags(lha_probe=True),
    )
    return _run_corner(config, seed)


def _run_with_nack_fraction(args):
    fraction, seed = args
    from repro.config import LifeguardFlags, SwimConfig

    config = SwimConfig(
        nack_timeout_fraction=fraction,
        suspicion_beta=1.0,
        flags=LifeguardFlags(lha_probe=True),
    )
    return _run_corner(config, seed)


def _run_with_model(args):
    stall, seed = args
    from repro.config import SwimConfig

    return _run_corner(SwimConfig.swim_baseline(), seed, stall_loops=stall)


@pytest.mark.benchmark(group="ablations")
def test_ablation_lhm_saturation(benchmark):
    """S bounds how far a slow member backs off. S=0 disables the
    back-off entirely; the paper's S=8 must beat it on false positives."""
    def sweep():
        rows = {}
        for s in (0, 2, 8, 16):
            results = run_many(
                _run_with_lhm_max, [(s, seed) for seed in (11, 12)], SCALE.workers
            )
            rows[s] = sum(r.fp_events for r in results)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    publish("ablation_lhm_saturation", rows)
    assert rows[8] <= max(rows[0], 1)


@pytest.mark.benchmark(group="ablations")
def test_ablation_nack_fraction(benchmark):
    """The nack deadline (80% of probe timeout in the paper) trades how
    early helpers prove their liveness against false nack omissions."""
    def sweep():
        rows = {}
        for fraction in (0.5, 0.8, 0.95):
            results = run_many(
                _run_with_nack_fraction,
                [(fraction, seed) for seed in (11, 12)],
                SCALE.workers,
            )
            rows[fraction] = sum(r.fp_events for r in results)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    publish("ablation_nack_fraction", rows)
    assert all(fp >= 0 for fp in rows.values())


@pytest.mark.benchmark(group="ablations")
def test_ablation_anomaly_model(benchmark):
    """Loop-stalling (instrumented blocking) vs io-only (starvation-like)
    semantics for plain SWIM: io-only lets the blocked member keep
    probing into the void, so it must produce at least as many FPs."""
    def sweep():
        rows = {}
        for stall in (True, False):
            results = run_many(
                _run_with_model, [(stall, seed) for seed in (11, 12)], SCALE.workers
            )
            label = "stall_loops" if stall else "io_only"
            rows[label] = sum(r.fp_events for r in results)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    publish("ablation_anomaly_model", rows)
    assert rows["io_only"] >= rows["stall_loops"] * 0.5
