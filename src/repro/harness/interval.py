"""The Interval experiment (paper Section V-D2).

Anomalies are introduced *cyclically*: ``C`` members block for duration
``D``, run normally for interval ``I``, and repeat in rotation until at
least 120 seconds have passed; the test ends at the end of the next
anomalous period. This models real-world intermittent slowness (CPU or
network delays where processes make progress in small bursts) and is used
to measure false positives (Table IV, Figures 2-3) and message load
(Table VI).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.harness.configurations import make_config
from repro.metrics.analysis import FalsePositiveStats, classify_false_positives
from repro.sim.runtime import SimCluster


@dataclass(frozen=True)
class IntervalParams:
    """Inputs for one Interval run (paper Table III sweeps C, D and I)."""

    configuration: str = "SWIM"
    n_members: int = 128
    #: C: number of concurrent anomalies.
    concurrent: int = 4
    #: D: duration of each anomalous period, seconds.
    duration: float = 8.192
    #: I: normal-operation interval between anomalous periods, seconds.
    interval: float = 0.064
    alpha: float = 5.0
    beta: float = 6.0
    quiesce: float = 15.0
    #: Cycles repeat until at least this much time has passed (paper: 120 s).
    min_test_time: float = 120.0
    seed: int = 0
    #: Probe-target scheduling strategy (see docs/PROBE_SCHEDULING.md).
    probe_scheduler: str = "round-robin"

    def __post_init__(self) -> None:
        if not 0 < self.concurrent < self.n_members:
            raise ValueError("need 0 < concurrent < n_members")
        if self.duration <= 0 or self.interval <= 0:
            raise ValueError("duration and interval must be positive")


@dataclass
class IntervalResult:
    """Outputs of one Interval run."""

    params: IntervalParams
    anomalous: List[str] = field(default_factory=list)
    false_positives: FalsePositiveStats = field(default_factory=FalsePositiveStats)
    #: Messages sent by all members during the test (compound = 1).
    msgs_sent: int = 0
    #: Bytes sent by all members during the test.
    bytes_sent: int = 0
    #: Virtual duration of the measured window (for rate computations).
    test_time: float = 0.0
    #: ``msgs_sent`` and ``bytes_sent`` by primary message kind (kept in
    #: the per-run ledger rows; not part of :meth:`as_dict`).
    msgs_by_kind: Dict[str, int] = field(default_factory=dict)
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def fp_events(self) -> int:
        return self.false_positives.fp_events

    @property
    def fp_healthy_events(self) -> int:
        return self.false_positives.fp_healthy_events

    def as_dict(self) -> dict:
        """JSON-safe summary (shared schema with the ops plane; see
        :mod:`repro.ops.schema`)."""
        return {
            "params": dataclasses.asdict(self.params),
            "anomalous": sorted(self.anomalous),
            "fp_events": self.fp_events,
            "fp_healthy_events": self.fp_healthy_events,
            "msgs_sent": self.msgs_sent,
            "bytes_sent": self.bytes_sent,
            "test_time": self.test_time,
        }


def run_interval(params: IntervalParams) -> IntervalResult:
    """Execute one Interval experiment in the simulator."""
    config = make_config(
        params.configuration,
        params.alpha,
        params.beta,
        probe_scheduler=params.probe_scheduler,
    )
    cluster = SimCluster(
        n_members=params.n_members, config=config, seed=params.seed
    )
    cluster.start()
    cluster.run_for(params.quiesce)

    picker = random.Random(params.seed * 2_147_483_629 + 13)
    anomalous = picker.sample(cluster.names, params.concurrent)
    start = cluster.now
    end = cluster.anomalies.cyclic_windows(
        anomalous,
        first_start=start,
        duration=params.duration,
        interval=params.interval,
        until=start + params.min_test_time,
    )

    before = cluster.telemetry()
    cluster.run_until(end)
    after = cluster.telemetry()

    stats = classify_false_positives(
        cluster.event_log.events, set(anomalous), since=start, until=end
    )
    return IntervalResult(
        params=params,
        anomalous=list(anomalous),
        false_positives=stats,
        msgs_sent=after.msgs_sent - before.msgs_sent,
        bytes_sent=after.bytes_sent - before.bytes_sent,
        test_time=end - start,
        msgs_by_kind=dict(sorted((after.msgs_by_kind - before.msgs_by_kind).items())),
        bytes_by_kind=dict(sorted((after.bytes_by_kind - before.bytes_by_kind).items())),
    )
