"""The CPU-exhaustion scenario (paper Figure 1 and Section II).

The paper deploys 100 single-core Azure VMs running Consul and runs the
Linux ``stress`` tool (128 CPU-hog processes) on 1..32 of them for five
minutes, counting false positives about *healthy* machines.

Here, CPU exhaustion is modelled by the anomaly controller's stochastic
CPU-stress mode: stressed members alternate between starved (blocked)
bursts and short runnable bursts — the protocol-visible signature of an
agent fighting 128 hogs for one core.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import List

from repro.harness.configurations import make_config
from repro.metrics.analysis import FalsePositiveStats, classify_false_positives
from repro.sim.runtime import SimCluster


@dataclass(frozen=True)
class StressParams:
    """Inputs for one CPU-exhaustion run."""

    configuration: str = "SWIM"
    #: The paper's cluster size for this scenario.
    n_members: int = 100
    #: Number of members running the stress workload (1..32 in Figure 1).
    n_stressed: int = 4
    #: Length of the stress window, seconds (paper: 300).
    stress_duration: float = 300.0
    #: Mean short starved burst length while stressed, seconds.
    mean_blocked: float = 0.8
    #: Mean runnable burst length while stressed, seconds.
    mean_runnable: float = 0.15
    #: Probability that a stall is a long one (throttling/thrash tail).
    long_stall_prob: float = 0.12
    #: Mean long stall length, seconds.
    mean_long_stall: float = 7.0
    alpha: float = 5.0
    beta: float = 6.0
    quiesce: float = 15.0
    #: Extra time after the stress ends during which failure events are
    #: still attributed to the experiment (log-analysis tail).
    tail: float = 10.0
    seed: int = 0
    #: When > 0, run the scenario on a hierarchical zoned cluster with
    #: this many zones (see :mod:`repro.zones`) instead of a flat group.
    zones: int = 0
    #: Worker processes for the zoned driver (only meaningful with
    #: ``zones > 0``); the result is shard-count independent.
    shards: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.n_stressed < self.n_members:
            raise ValueError("need 0 < n_stressed < n_members")
        if self.zones < 0 or self.shards < 1:
            raise ValueError("need zones >= 0 and shards >= 1")
        if self.zones and self.n_members < 2 * self.zones:
            raise ValueError("zoned stress needs n_members >= 2 * zones")


@dataclass
class StressResult:
    """Outputs of one CPU-exhaustion run (the two Figure 1 metrics)."""

    params: StressParams
    stressed: List[str] = field(default_factory=list)
    false_positives: FalsePositiveStats = field(default_factory=FalsePositiveStats)

    @property
    def total_false_positives(self) -> int:
        """Figure 1's 'Total False Positives'."""
        return self.false_positives.fp_events

    @property
    def false_positives_at_healthy(self) -> int:
        """Figure 1's 'False Positives at Healthy Members'."""
        return self.false_positives.fp_healthy_events

    def as_dict(self) -> dict:
        """JSON-safe summary (shared schema with the ops plane; see
        :mod:`repro.ops.schema`)."""
        return {
            "params": dataclasses.asdict(self.params),
            "stressed": sorted(self.stressed),
            "total_false_positives": self.total_false_positives,
            "false_positives_at_healthy": self.false_positives_at_healthy,
        }


def _run_stress_zoned(params: StressParams) -> StressResult:
    """The CPU-exhaustion scenario on a hierarchical zoned cluster.

    Mirrors the flat run exactly — same picker and per-member burst
    seeds — but drives a :class:`~repro.zones.cluster.ZonedCluster`
    through the sharded driver, which replays the identical trace for
    any shard count. False positives are classified over the serialized
    member events every zone ships back.
    """
    from repro.swim.events import MemberEvent
    from repro.zones.sharded import StressWindow, run_zoned
    from repro.zones.topology import build_layout

    config = make_config(params.configuration, params.alpha, params.beta)
    config = config.replace(zone_count=params.zones)
    layout = build_layout(
        params.n_members, params.zones, config.bridges_per_zone
    )
    names = list(layout.roster())
    picker = random.Random(params.seed * 2_147_483_629 + 17)
    stressed = picker.sample(names, params.n_stressed)
    start = params.quiesce
    windows = tuple(
        StressWindow(
            member=member,
            start=start,
            duration=params.stress_duration,
            burst_seed=params.seed * 7_368_787 + index * 104_729 + 3,
            mean_blocked=params.mean_blocked,
            mean_runnable=params.mean_runnable,
            long_stall_prob=params.long_stall_prob,
            mean_long_stall=params.mean_long_stall,
        )
        for index, member in enumerate(stressed)
    )
    end = start + params.stress_duration
    result = run_zoned(
        params.n_members,
        config,
        seed=params.seed,
        zone_count=params.zones,
        duration=end + params.tail,
        shards=params.shards,
        stress_windows=windows,
        return_events=True,
    )
    events = [MemberEvent.from_tuple(item) for item in result.member_events]
    stats = classify_false_positives(
        events, set(stressed), since=start, until=end + params.tail
    )
    return StressResult(
        params=params, stressed=list(stressed), false_positives=stats
    )


def run_stress(params: StressParams) -> StressResult:
    """Execute one CPU-exhaustion experiment in the simulator."""
    if params.zones:
        return _run_stress_zoned(params)
    config = make_config(params.configuration, params.alpha, params.beta)
    cluster = SimCluster(
        n_members=params.n_members, config=config, seed=params.seed
    )
    cluster.start()
    cluster.run_for(params.quiesce)

    picker = random.Random(params.seed * 2_147_483_629 + 17)
    stressed = picker.sample(cluster.names, params.n_stressed)
    start = cluster.now
    for index, member in enumerate(stressed):
        burst_rng = random.Random(params.seed * 7_368_787 + index * 104_729 + 3)
        cluster.anomalies.cpu_stress(
            member,
            start,
            params.stress_duration,
            burst_rng,
            mean_blocked=params.mean_blocked,
            mean_runnable=params.mean_runnable,
            long_stall_prob=params.long_stall_prob,
            mean_long_stall=params.mean_long_stall,
        )

    end = start + params.stress_duration
    cluster.run_until(end + params.tail)
    stats = classify_false_positives(
        cluster.event_log.events, set(stressed), since=start, until=end + params.tail
    )
    return StressResult(params=params, stressed=list(stressed), false_positives=stats)
