"""Scenario execution, seed sweeps and counterexample shrinking.

``run_scenario`` replays one :class:`~repro.check.scenarios.ScenarioSpec`
against a fresh :class:`~repro.sim.runtime.SimCluster` (a
:class:`~repro.zones.cluster.ZonedCluster` for zoned specs) — faults
applied by :class:`~repro.sim.faults.SimFaultExecutor`, the full oracle
suite attached to the event tap; ``run_sweep`` drives N generated
scenarios and, for every failing seed, greedily shrinks the schedule to
a minimal spec that still violates the same invariants, then packages a
replayable JSON artifact (``repro check --replay file.json``).

Everything is deterministic in the spec: shrinking re-runs candidates
with the same seed, so a kept candidate is guaranteed to reproduce.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.check.invariants import (
    Oracle,
    OracleSuite,
    Violation,
    ZoneConvergenceOracle,
    default_oracles,
)
from repro.check.scenarios import (
    GeneratorParams,
    ScenarioSpec,
    generate_scenario,
    shrink_candidates,
)
from repro.faults import FaultSchedule
from repro.harness.configurations import make_config
from repro.harness.sweep import ordered_map
from repro.sim.faults import SimFaultExecutor
from repro.sim.runtime import SimCluster, default_member_names

if TYPE_CHECKING:  # pragma: no cover - kept lazy at runtime
    from repro.zones.cluster import ZonedCluster

ARTIFACT_SCHEMA = "repro-check/v1"

#: Virtual-time chunk between early-abort checks while running a scenario.
_CHUNK = 5.0

#: Bridges per zone in zoned fuzz runs: two, so a single bridge crash or
#: flap never leaves a zone without a live claim forwarder (the scenario
#: generator additionally keeps each zone's first bridge out of churn).
ZONED_BRIDGES = 2


@dataclass
class CheckResult:
    """Verdict for one scenario run."""

    spec: ScenarioSpec
    violations: List[Violation]
    #: Scheduler events executed (summed over zones for zoned specs).
    events: int
    sim_time: float
    wall_time: float
    checks_run: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "seed": self.spec.seed,
            "ok": self.ok,
            "events": self.events,
            "sim_time": self.sim_time,
            "wall_time": round(self.wall_time, 3),
            "checks_run": self.checks_run,
            "violations": [v.as_dict() for v in self.violations],
        }


def run_scenario(
    spec: ScenarioSpec,
    stride: int = 1,
    oracles: Optional[Callable[[], List[Oracle]]] = None,
    fail_fast: bool = True,
    max_violations: int = 25,
) -> CheckResult:
    """Run one scenario under the oracle suite and report violations.

    ``fail_fast`` stops the simulation at the next chunk boundary after
    the first violation (runs are deterministic, so nothing more is
    learned by continuing). ``oracles`` overrides the suite factory —
    used by tests to check a single invariant in isolation.
    """
    spec.validate()
    started = time.monotonic()
    config = make_config(
        spec.configuration,
        alpha=spec.alpha,
        beta=spec.beta,
        probe_scheduler=spec.scheduler,
    )
    if not spec.sync:
        # Gossip-only regime: no push-pull rounds, no reconnect offers.
        config = config.replace(push_pull_interval=0.0, reconnect_interval=0.0)
    cluster: "SimCluster | ZonedCluster"
    if spec.zones:
        from repro.zones.cluster import ZonedCluster

        cluster = ZonedCluster(
            spec.n_members,
            config.replace(bridges_per_zone=ZONED_BRIDGES),
            seed=spec.seed,
            zone_count=spec.zones,
            loss_rate=spec.loss_rate,
        )
        fabrics = list(cluster.clusters.values())
    else:
        cluster = SimCluster(
            names=default_member_names(spec.n_members),
            config=config,
            seed=spec.seed,
            loss_rate=spec.loss_rate,
        )
        fabrics = [cluster]
    # One suite per fabric (a flat cluster is its own; a zoned one has a
    # fabric per zone) watches that fabric's event tap with its slice of
    # the expected live/gone sets. Cluster-wide obligations
    # (ZoneConvergenceOracle, inert on flat clusters) run once, at the
    # end, against the whole cluster with the global sets.
    factory = oracles if oracles is not None else default_oracles
    suites = [OracleSuite(oracles=factory()) for _ in fabrics]
    for suite, fabric in zip(suites, fabrics):
        suite.attach(fabric, stride=stride)
    faults = SimFaultExecutor(cluster, FaultSchedule(spec.faults), seed=spec.seed)
    faults.schedule()
    cluster.start()

    events = 0
    now = 0.0
    aborted = False
    while now < spec.total_time:
        step_to = min(now + _CHUNK, spec.total_time)
        events += cluster.run_until(step_to)
        now = step_to
        found = sum(len(suite.violations) for suite in suites)
        if (fail_fast and found >= 1) or found >= max_violations:
            aborted = True
            break

    cross: List[Violation] = []
    if not aborted:
        expected_live = faults.expected_live()
        expected_gone = faults.expected_gone
        for suite, fabric in zip(suites, fabrics):
            members = set(fabric.names)
            suite.run_final_checks(
                fabric, cluster.now, expected_live & members, expected_gone & members
            )
        for oracle in factory():
            if isinstance(oracle, ZoneConvergenceOracle):
                cross.extend(
                    oracle.check_final(
                        cluster, cluster.now, expected_live, expected_gone
                    )
                )
    cluster.set_event_tap(None)
    cluster.stop()
    violations = [v for suite in suites for v in suite.violations] + cross
    return CheckResult(
        spec=spec,
        violations=violations[:max_violations],
        events=events,
        sim_time=cluster.now,
        wall_time=time.monotonic() - started,
        checks_run=sum(suite.checks_run for suite in suites),
    )


# ---------------------------------------------------------------------- #
# Shrinking
# ---------------------------------------------------------------------- #


@dataclass
class ShrinkOutcome:
    minimal: ScenarioSpec
    violations: List[Violation]
    runs: int
    improved: bool


def shrink_failure(
    spec: ScenarioSpec,
    original: CheckResult,
    stride: int = 1,
    max_runs: int = 120,
    oracles: Optional[Callable[[], List[Oracle]]] = None,
) -> ShrinkOutcome:
    """Greedily minimize a failing spec while it keeps violating.

    A candidate is accepted when it still trips at least one oracle that
    the original run tripped (so shrinking cannot wander to an unrelated
    failure). Deterministic: every candidate runs with the spec's seed.
    """
    target_oracles = {v.oracle for v in original.violations}
    current = spec
    current_violations = list(original.violations)
    runs = 0
    improved = True
    while improved and runs < max_runs:
        improved = False
        for candidate in shrink_candidates(current):
            if runs >= max_runs:
                break
            runs += 1
            result = run_scenario(candidate, stride=stride, oracles=oracles)
            if result.ok:
                continue
            if not target_oracles & {v.oracle for v in result.violations}:
                continue
            current = candidate
            current_violations = result.violations
            improved = True
            break
    return ShrinkOutcome(
        minimal=current,
        violations=current_violations,
        runs=runs,
        improved=current is not spec,
    )


def build_artifact(
    seed: int,
    original: CheckResult,
    shrunk: Optional[ShrinkOutcome] = None,
) -> dict:
    """The replayable failure record written next to CI logs."""
    minimal = shrunk.minimal if shrunk is not None else original.spec
    violations = shrunk.violations if shrunk is not None else original.violations
    return {
        "schema": ARTIFACT_SCHEMA,
        "seed": seed,
        "spec": minimal.as_dict(),
        "violations": [v.as_dict() for v in violations],
        "shrink": {
            "runs": shrunk.runs if shrunk is not None else 0,
            "original_faults": len(original.spec.faults),
            "minimal_faults": len(minimal.faults),
            "original_members": original.spec.n_members,
            "minimal_members": minimal.n_members,
        },
        "original_spec": original.spec.as_dict(),
    }


def load_artifact_spec(data: dict) -> ScenarioSpec:
    """Accept either a full artifact or a bare scenario document."""
    if data.get("schema") == ARTIFACT_SCHEMA:
        return ScenarioSpec.from_dict(data["spec"])
    return ScenarioSpec.from_dict(data)


# ---------------------------------------------------------------------- #
# Sweeps
# ---------------------------------------------------------------------- #


@dataclass
class SeedFailure:
    seed: int
    result: CheckResult
    shrunk: Optional[ShrinkOutcome]
    artifact: dict


@dataclass
class SweepResult:
    seeds_run: int = 0
    seeds_failed: int = 0
    violations: int = 0
    shrink_runs: int = 0
    events: int = 0
    wall_time: float = 0.0
    failures: List[SeedFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.seeds_failed == 0

    def as_dict(self) -> dict:
        return {
            "seeds_run": self.seeds_run,
            "seeds_failed": self.seeds_failed,
            "violations": self.violations,
            "shrink_runs": self.shrink_runs,
            "events": self.events,
            "wall_time": round(self.wall_time, 3),
            "failures": [
                {
                    "seed": failure.seed,
                    "violations": [
                        v.as_dict() for v in failure.result.violations
                    ],
                    "minimal_faults": len(
                        failure.shrunk.minimal.faults
                        if failure.shrunk is not None
                        else failure.result.spec.faults
                    ),
                }
                for failure in self.failures
            ],
        }


def install_check_metrics(registry) -> dict:
    """Get-or-create the fuzzer's counters on an ops registry."""
    return {
        "seeds": registry.counter(
            "lifeguard_check_seeds_total",
            "Fuzzer scenarios executed by repro check",
        ),
        "failed": registry.counter(
            "lifeguard_check_failed_seeds_total",
            "Fuzzer scenarios that violated at least one invariant",
        ),
        "violations": registry.counter(
            "lifeguard_check_violations_total",
            "Individual invariant violations observed by repro check",
        ),
        "shrink_runs": registry.counter(
            "lifeguard_check_shrink_runs_total",
            "Scenario re-executions spent shrinking counterexamples",
        ),
    }


#: One fully-processed sweep seed: (seed, run verdict, shrink outcome).
_SeedOutcome = Tuple[int, CheckResult, Optional["ShrinkOutcome"]]


def _sweep_seed_worker(
    job: Tuple[
        int, GeneratorParams, int, bool, int,
        Optional[Callable[[], List[Oracle]]],
    ]
) -> _SeedOutcome:
    """Process one sweep seed end to end (run + shrink on failure).

    Module-level and, with the default oracle factory (``None``), fed
    only picklable values so it can cross a ``ProcessPoolExecutor``
    boundary. Everything is a pure function of the seed, so a worker
    pool produces byte-identical outcomes to the sequential loop.
    """
    seed, params, stride, shrink, max_shrink_runs, oracles = job
    spec = generate_scenario(seed, params)
    result = run_scenario(spec, stride=stride, oracles=oracles)
    shrunk: Optional[ShrinkOutcome] = None
    if not result.ok and shrink:
        shrunk = shrink_failure(
            spec, result, stride=stride, max_runs=max_shrink_runs, oracles=oracles
        )
    return seed, result, shrunk


def run_sweep(
    seeds: int,
    params: Optional[GeneratorParams] = None,
    start_seed: int = 0,
    stride: int = 1,
    shrink: bool = True,
    max_shrink_runs: int = 120,
    max_failures: int = 5,
    registry=None,
    on_seed: Optional[Callable[[int, CheckResult], None]] = None,
    oracles: Optional[Callable[[], List[Oracle]]] = None,
    seed_list: Optional[Sequence[int]] = None,
    jobs: int = 1,
) -> SweepResult:
    """Run ``seeds`` generated scenarios; shrink and record failures.

    Stops early after ``max_failures`` failing seeds (each failure costs
    a shrink campaign; a systemic bug fails every seed and would turn the
    sweep into hours of redundant shrinking). ``seed_list`` overrides the
    contiguous ``range(start_seed, start_seed + seeds)`` — used by
    :func:`run_partitioned_sweep` to hand each partition an interleaved
    slice. ``oracles`` overrides the suite factory, as in
    :func:`run_scenario`.

    ``jobs > 1`` fans the per-seed work (scenario run plus shrink
    campaign) out over a process pool
    (:func:`repro.harness.sweep.ordered_map`). Outcomes are consumed in seed
    order and every seed is a pure function of its number, so verdicts,
    artifacts and progress output are identical to a sequential sweep —
    including the early stop, which discards any extra seeds workers
    speculatively completed past the failure budget.
    """
    params = params or GeneratorParams()
    metrics = install_check_metrics(registry) if registry is not None else None
    sweep = SweepResult()
    started = time.monotonic()
    plan = (
        list(seed_list)
        if seed_list is not None
        else list(range(start_seed, start_seed + seeds))
    )

    sweep_jobs = [
        (seed, params, stride, shrink, max_shrink_runs, oracles) for seed in plan
    ]
    if jobs > 1 and len(plan) > 1 and oracles is not None:
        raise ValueError(
            "a custom oracle factory cannot cross the worker-process "
            "boundary; use jobs=1"
        )
    outcomes = ordered_map(_sweep_seed_worker, sweep_jobs, jobs)
    try:
        for seed, result, shrunk in outcomes:
            sweep.seeds_run += 1
            sweep.events += result.events
            if metrics is not None:
                metrics["seeds"].inc()
            if not result.ok:
                sweep.seeds_failed += 1
                sweep.violations += len(result.violations)
                if shrunk is not None:
                    sweep.shrink_runs += shrunk.runs
                artifact = build_artifact(seed, result, shrunk)
                sweep.failures.append(
                    SeedFailure(seed, result, shrunk, artifact)
                )
                if metrics is not None:
                    metrics["failed"].inc()
                    metrics["violations"].inc(len(result.violations))
                    if shrunk is not None:
                        metrics["shrink_runs"].inc(shrunk.runs)
            if on_seed is not None:
                on_seed(seed, result)
            if sweep.seeds_failed >= max_failures:
                break
    finally:
        outcomes.close()
    sweep.wall_time = time.monotonic() - started
    return sweep


@dataclass
class PartitionedSweepResult:
    """Verdicts for a sweep split into independent seed partitions.

    The overall verdict is the conjunction of every partition's verdict:
    one violating seed anywhere fails the whole sweep. (An earlier CLI
    bug reported only the *last* partition's status, letting failures in
    earlier partitions exit zero — :attr:`ok` is the single source of
    truth precisely so that cannot recur.)
    """

    partitions: List[SweepResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(partition.ok for partition in self.partitions)

    @property
    def seeds_run(self) -> int:
        return sum(p.seeds_run for p in self.partitions)

    @property
    def seeds_failed(self) -> int:
        return sum(p.seeds_failed for p in self.partitions)

    @property
    def failures(self) -> List[SeedFailure]:
        return [f for p in self.partitions for f in p.failures]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seeds_run": self.seeds_run,
            "seeds_failed": self.seeds_failed,
            "partitions": [p.as_dict() for p in self.partitions],
        }


def partition_seeds(
    seeds: int, partitions: int, start_seed: int = 0
) -> List[List[int]]:
    """Split ``range(start_seed, start_seed + seeds)`` into interleaved
    slices: partition ``p`` gets ``start+p, start+p+P, start+p+2P, ...``.

    Interleaving (rather than chunking) keeps every partition sampling
    the whole seed range, so a bug clustered around e.g. high seed
    numbers still hits every partition's share of the sweep.
    """
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    return [
        list(range(start_seed + p, start_seed + seeds, partitions))
        for p in range(partitions)
    ]


def run_partitioned_sweep(
    seeds: int,
    partitions: int,
    params: Optional[GeneratorParams] = None,
    start_seed: int = 0,
    stride: int = 1,
    shrink: bool = True,
    max_shrink_runs: int = 120,
    max_failures: int = 5,
    registry=None,
    on_seed: Optional[Callable[[int, CheckResult], None]] = None,
    oracles: Optional[Callable[[], List[Oracle]]] = None,
    jobs: int = 1,
) -> PartitionedSweepResult:
    """Run a sweep as ``partitions`` independent interleaved slices.

    Each partition gets its own ``max_failures`` budget, so a systemic
    bug that exhausts one partition's budget early does not silence the
    seeds another partition would have run. ``jobs`` is forwarded to
    each partition's :func:`run_sweep`.
    """
    result = PartitionedSweepResult()
    for seed_list in partition_seeds(seeds, partitions, start_seed):
        result.partitions.append(
            run_sweep(
                len(seed_list),
                params=params,
                stride=stride,
                shrink=shrink,
                max_shrink_runs=max_shrink_runs,
                max_failures=max_failures,
                registry=registry,
                on_seed=on_seed,
                oracles=oracles,
                seed_list=seed_list,
                jobs=jobs,
            )
        )
    return result


def write_artifact(path: str, artifact: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")


def replay_file(path: str, stride: int = 1) -> CheckResult:
    """Re-run a saved artifact or scenario JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    spec = load_artifact_spec(data)
    return run_scenario(spec, stride=stride)
