"""Parameter-sweep driver and the experiment grids.

The paper sweeps a very large space (Tables II/III: 9 C-values, 6
durations, 8 intervals, 10 repetitions, 5 configurations). Reproducing
that literally is thousands of simulator-hours; the default grids here
are reduced but *shape-preserving*: they keep the extremes and the middle
of each dimension so every trend the paper reports (FP growth with C, the
latency/false-positive trade-off, the message-load balance) is exercised.

Environment knobs honoured by :func:`env_scale`:

* ``REPRO_FULL=1`` — use the paper's full grids (very slow).
* ``REPRO_REPS=<n>`` — repetitions per parameter combination.
* ``REPRO_WORKERS=<n>`` — process-pool width for sweeps.
* ``REPRO_N=<n>`` — cluster size override (paper: 128 / 100 for stress).
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
)

from repro.harness.interval import IntervalParams, IntervalResult
from repro.harness.stress import StressParams
from repro.harness.threshold import ThresholdParams, ThresholdResult
from repro.metrics.analysis import FalsePositiveStats, percentile_summary

TParams = TypeVar("TParams")
TResult = TypeVar("TResult")

#: Paper Table II / III values (seconds).
FULL_CONCURRENCY = [1, 4, 8, 12, 16, 20, 24, 28, 32]
FULL_DURATIONS = [0.128, 0.512, 2.048, 8.192, 16.384, 32.768]
FULL_INTERVALS = [0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384]

#: Reduced, shape-preserving defaults. Durations keep one value below and
#: one above the SWIM suspicion timeout (~10.5 s at n=128). Intervals
#: keep the small-I corner (1 ms / 4 ms — shorter than the time to
#: receive and process an ack, so blocked members' probes keep failing
#: across cycles; this is where the false-positive mass lives) plus one
#: benign value that contributes quiescent message-load balance.
REDUCED_CONCURRENCY = [1, 4, 8, 16, 24, 32]
REDUCED_DURATIONS = [8.192, 32.768]
REDUCED_INTERVALS = [0.001, 0.004, 1.024]
#: Threshold latency measurements need anomalies that outlive the
#: suspicion timeout; shorter durations yield refutations, not failures.
REDUCED_THRESHOLD_DURATIONS = [16.384, 32.768]
REDUCED_THRESHOLD_CONCURRENCY = [4, 16, 32]


@dataclass(frozen=True)
class Scale:
    """Resolved sweep-scale settings."""

    full: bool
    reps: int
    workers: int
    n_members: int
    stress_members: int
    min_test_time: float
    stress_duration: float

    @property
    def concurrency(self) -> List[int]:
        return FULL_CONCURRENCY if self.full else REDUCED_CONCURRENCY

    @property
    def durations(self) -> List[float]:
        return FULL_DURATIONS if self.full else REDUCED_DURATIONS

    @property
    def intervals(self) -> List[float]:
        return FULL_INTERVALS if self.full else REDUCED_INTERVALS

    @property
    def threshold_durations(self) -> List[float]:
        return FULL_DURATIONS if self.full else REDUCED_THRESHOLD_DURATIONS

    @property
    def threshold_concurrency(self) -> List[int]:
        return FULL_CONCURRENCY if self.full else REDUCED_THRESHOLD_CONCURRENCY


def env_scale(environ: Optional[Mapping[str, str]] = None) -> Scale:
    """Resolve sweep scale from the environment (see module docstring),
    or from ``environ`` in its place."""
    env = os.environ if environ is None else environ
    full = env.get("REPRO_FULL", "0") == "1"
    reps = int(env.get("REPRO_REPS", "10" if full else "1"))
    workers = int(env.get("REPRO_WORKERS", str(os.cpu_count() or 1)))
    n_members = int(env.get("REPRO_N", "128"))
    stress_members = int(env.get("REPRO_STRESS_N", "100"))
    min_test_time = float(env.get("REPRO_TEST_TIME", "120" if full else "60"))
    stress_duration = float(env.get("REPRO_STRESS_TIME", "300" if full else "120"))
    return Scale(
        full=full,
        reps=max(1, reps),
        workers=max(1, workers),
        n_members=n_members,
        stress_members=stress_members,
        min_test_time=min_test_time,
        stress_duration=stress_duration,
    )


def is_default_scale(scale: Scale) -> bool:
    """Whether ``scale`` measures what no ``REPRO_*`` variable would:
    the reduced grids at their default sizes. The worker count is not
    part of a result."""
    return dataclasses.replace(scale, workers=1) == dataclasses.replace(
        env_scale({}), workers=1
    )


def ordered_map(
    runner: Callable[[TParams], TResult],
    params: Sequence[TParams],
    workers: int,
) -> Iterator[TResult]:
    """Lazily yield ``runner(p)`` for every ``p``, in input order — the
    one worker-pool idiom of the package.

    With ``workers > 1`` the calls fan out over a process pool
    (``runner`` and every params object must be picklable) and results
    are yielded as soon as their turn comes. A consumer that stops early
    should ``close()`` the iterator: queued work is cancelled and the
    pool released without waiting for what is already running.
    """
    if workers <= 1 or len(params) <= 1:
        yield from map(runner, params)
        return
    pool = ProcessPoolExecutor(max_workers=min(workers, len(params)))
    try:
        yield from pool.map(runner, params, chunksize=1)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def run_many(
    runner: Callable[[TParams], TResult],
    params: Sequence[TParams],
    workers: Optional[int] = None,
) -> List[TResult]:
    """Run ``runner`` over every params object, optionally in parallel.

    Results are returned in input order (see :func:`ordered_map`).
    """
    if workers is None:
        workers = env_scale().workers
    return list(ordered_map(runner, params, workers))


# --------------------------------------------------------------------- #
# Grid builders
# --------------------------------------------------------------------- #

def interval_grid(
    configuration: str,
    scale: Optional[Scale] = None,
    alpha: float = 5.0,
    beta: float = 6.0,
    concurrency: Optional[Sequence[int]] = None,
) -> List[IntervalParams]:
    """All Interval runs for one configuration (Table III sweep)."""
    scale = scale or env_scale()
    grid: List[IntervalParams] = []
    seed = 0
    for c in (concurrency if concurrency is not None else scale.concurrency):
        for d in scale.durations:
            for i in scale.intervals:
                for rep in range(scale.reps):
                    seed += 1
                    grid.append(
                        IntervalParams(
                            configuration=configuration,
                            n_members=scale.n_members,
                            concurrent=c,
                            duration=d,
                            interval=i,
                            alpha=alpha,
                            beta=beta,
                            min_test_time=scale.min_test_time,
                            seed=seed * 31 + rep,
                        )
                    )
    return grid


def threshold_grid(
    configuration: str,
    scale: Optional[Scale] = None,
    alpha: float = 5.0,
    beta: float = 6.0,
) -> List[ThresholdParams]:
    """All Threshold runs for one configuration (Table II sweep)."""
    scale = scale or env_scale()
    grid: List[ThresholdParams] = []
    seed = 0
    reps = max(scale.reps, 2 if not scale.full else scale.reps)
    for c in scale.threshold_concurrency:
        for d in scale.threshold_durations:
            for rep in range(reps):
                seed += 1
                grid.append(
                    ThresholdParams(
                        configuration=configuration,
                        n_members=scale.n_members,
                        concurrent=c,
                        duration=d,
                        alpha=alpha,
                        beta=beta,
                        seed=seed * 37 + rep,
                    )
                )
    return grid


def stress_grid(
    configuration: str,
    scale: Optional[Scale] = None,
    stressed_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
) -> List[StressParams]:
    """All CPU-exhaustion runs for one configuration (Figure 1 sweep)."""
    scale = scale or env_scale()
    grid: List[StressParams] = []
    seed = 0
    for count in stressed_counts:
        for rep in range(scale.reps):
            seed += 1
            grid.append(
                StressParams(
                    configuration=configuration,
                    n_members=scale.stress_members,
                    n_stressed=count,
                    stress_duration=scale.stress_duration,
                    seed=seed * 41 + rep,
                )
            )
    return grid


#: The alpha/beta combinations examined in Table VII.
TUNING_COMBINATIONS = [
    (2.0, 2.0),
    (2.0, 4.0),
    (2.0, 6.0),
    (4.0, 2.0),
    (4.0, 4.0),
    (4.0, 6.0),
    (5.0, 2.0),
    (5.0, 4.0),
    (5.0, 6.0),
]


# --------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------- #

@dataclass
class IntervalAggregate:
    """Aggregated Interval results for one configuration (Table IV/VI row)."""

    configuration: str
    fp_events: int
    fp_healthy_events: int
    msgs_sent: int
    bytes_sent: int
    runs: int
    #: Total member-seconds observed (sum of ``n_members * test_time``
    #: over the runs); normalizes message load into a scale-independent
    #: rate for cross-run comparison (the CI regression gate).
    member_seconds: float = 0.0

    @property
    def msgs_per_member_per_sec(self) -> float:
        """Messages per member per virtual second across the sweep."""
        if self.member_seconds <= 0:
            return 0.0
        return self.msgs_sent / self.member_seconds

    @classmethod
    def from_results(
        cls, configuration: str, results: Sequence[IntervalResult]
    ) -> "IntervalAggregate":
        fp = FalsePositiveStats.aggregate(r.false_positives for r in results)
        return cls(
            configuration=configuration,
            fp_events=fp.fp_events,
            fp_healthy_events=fp.fp_healthy_events,
            msgs_sent=sum(r.msgs_sent for r in results),
            bytes_sent=sum(r.bytes_sent for r in results),
            runs=len(results),
            member_seconds=sum(
                r.params.n_members * r.test_time for r in results
            ),
        )


@dataclass
class ThresholdAggregate:
    """Aggregated Threshold latencies for one configuration (Table V row)."""

    configuration: str
    first_detection: Dict[float, Optional[float]]
    full_dissemination: Dict[float, Optional[float]]
    samples: int
    undetected: int

    @classmethod
    def from_results(
        cls, configuration: str, results: Sequence[ThresholdResult]
    ) -> "ThresholdAggregate":
        first: List[float] = []
        full: List[float] = []
        undetected = 0
        for result in results:
            first.extend(result.first_detection)
            full.extend(result.full_dissemination)
            undetected += len(result.latencies.undetected)
        return cls(
            configuration=configuration,
            first_detection=percentile_summary(first),
            full_dissemination=percentile_summary(full),
            samples=len(first),
            undetected=undetected,
        )


def fp_by_concurrency(
    results: Sequence[IntervalResult],
) -> Dict[int, FalsePositiveStats]:
    """Group Interval results by C (Figures 2 and 3 series)."""
    grouped: Dict[int, List[IntervalResult]] = {}
    for result in results:
        grouped.setdefault(result.params.concurrent, []).append(result)
    return {
        c: FalsePositiveStats.aggregate(r.false_positives for r in rs)
        for c, rs in sorted(grouped.items())
    }
