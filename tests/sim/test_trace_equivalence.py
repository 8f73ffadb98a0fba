"""Seeded trace-equivalence pins for the hot-path optimizations.

Every optimization in the simulation and protocol hot paths (scheduler
heap compaction, the indexed member map, the bucketed broadcast queue,
the cached codec, batched network delivery) promises *bit-identical
seeded behavior*. These tests make that promise checkable: a family of
seeded scenarios runs end to end and the full membership event log —
every (time, observer, subject, kind, incarnation) tuple — plus the
cluster's message/byte telemetry is hashed and compared against golden
digests captured before the optimization pass.

If a change legitimately alters protocol behavior (not just speed),
regenerate the goldens and say so in the PR:

.. code-block:: console

    $ REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest \
          tests/sim/test_trace_equivalence.py -q

The digests intentionally cover the paths the optimizations touch:
steady-state probing, anomaly windows (blocked members), partitions and
sync-driven healing, churn (join/leave/crash), lossy networks, and the
fuzzer's generated composite scenarios.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.check.runner import run_scenario
from repro.check.scenarios import generate_scenario
from repro.config import SwimConfig
from repro.sim.runtime import SimCluster

GOLDEN_PATH = Path(__file__).parent / "golden_traces.json"

REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"


def _digest_cluster(cluster: SimCluster) -> str:
    """Canonical digest of a finished run: event log + telemetry."""
    log = [
        (e.time, e.observer, e.subject, e.kind.name, e.incarnation)
        for e in cluster.event_log.events
    ]
    telemetry = cluster.telemetry()
    record = {
        "events": log,
        "executed": cluster.scheduler.executed,
        "msgs_sent": telemetry.msgs_sent,
        "bytes_sent": telemetry.bytes_sent,
        "msgs_received": telemetry.msgs_received,
        "msgs_by_kind": dict(sorted(telemetry.msgs_by_kind.items())),
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# Scenario builders: each returns a digest for its finished run.
# --------------------------------------------------------------------- #


def _run_steady() -> str:
    cluster = SimCluster(n_members=48, config=SwimConfig.lifeguard(), seed=3)
    cluster.start()
    cluster.run_for(40.0)
    return _digest_cluster(cluster)


def _run_blocked() -> str:
    cluster = SimCluster(n_members=32, config=SwimConfig.swim_baseline(), seed=5)
    for name in ("m000", "m001", "m002", "m003"):
        cluster.anomalies.block_window(name, 5.0, 25.0)
    cluster.start()
    cluster.run_for(60.0)
    return _digest_cluster(cluster)


def _run_partition() -> str:
    cluster = SimCluster(n_members=24, config=SwimConfig.lifeguard(), seed=11)
    group = [f"m{i:03d}" for i in range(6)]
    rest = [f"m{i:03d}" for i in range(6, 24)]
    cluster.scheduler.call_at(5.0, lambda: cluster.network.partition(group, rest))
    cluster.scheduler.call_at(35.0, cluster.network.heal_partition)
    cluster.start()
    cluster.run_for(90.0)
    return _digest_cluster(cluster)


def _run_churn() -> str:
    cluster = SimCluster(n_members=16, config=SwimConfig.lifeguard(), seed=7)

    def crash() -> None:
        cluster.nodes["m002"].stop()

    def leave() -> None:
        cluster.nodes["m003"].leave()

    def join() -> None:
        cluster.spawn_member("m16", join_via="m000")

    cluster.scheduler.call_at(10.0, crash)
    cluster.scheduler.call_at(15.0, leave)
    cluster.scheduler.call_at(20.0, join)
    cluster.start()
    cluster.run_for(80.0)
    return _digest_cluster(cluster)


def _run_lossy() -> str:
    cluster = SimCluster(
        n_members=24, config=SwimConfig.lifeguard(), seed=13, loss_rate=0.2
    )
    cluster.network.set_link_loss("m000", "m001", 0.9)
    cluster.start()
    cluster.run_for(60.0)
    return _digest_cluster(cluster)


def _run_fuzz_seed(seed: int) -> str:
    """End-to-end fuzzer determinism: generated spec -> verdict."""
    spec = generate_scenario(seed)
    result = run_scenario(spec, stride=4)
    record = {
        "spec": spec.as_dict(),
        "events": result.events,
        "sim_time": result.sim_time,
        "checks_run": result.checks_run,
        "violations": [v.as_dict() for v in result.violations],
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


SCENARIOS = {
    "steady": _run_steady,
    "blocked": _run_blocked,
    "partition": _run_partition,
    "churn": _run_churn,
    "lossy": _run_lossy,
    "fuzz-seed-1": lambda: _run_fuzz_seed(1),
    "fuzz-seed-2": lambda: _run_fuzz_seed(2),
    "fuzz-seed-3": lambda: _run_fuzz_seed(3),
}


def _load_goldens() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden(name: str) -> None:
    digest = SCENARIOS[name]()
    goldens = _load_goldens()
    if REGEN:
        goldens[name] = digest
        GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
        return
    assert name in goldens, (
        f"no golden digest for {name!r}; regenerate with "
        f"REPRO_REGEN_GOLDENS=1 (see module docstring)"
    )
    assert digest == goldens[name], (
        f"seeded trace for {name!r} diverged from the golden digest — "
        f"an optimization changed protocol behavior. If the change is "
        f"intentional, regenerate goldens and call it out in the PR."
    )
