"""Replays a soak's fault schedule on the deterministic simulator.

The soak report pairs every real-cluster run with a simulator run of the
*same* :class:`~repro.faults.FaultSchedule` at the same protocol tuning,
so a surprising wall-clock number can immediately be triaged: if the
simulator agrees, the behaviour is protocol-inherent; if it disagrees,
the delta came from real-world physics (scheduling jitter, socket
buffers, slow host). The schedule is applied by the simulator's one
fault executor (:mod:`repro.sim.faults`).

The cluster bootstraps pre-seeded (the converged state the real run is
in when its chaos epoch is chosen) and runs a short warm-up before the
virtual epoch. Nothing is scored here: the twin's event log goes to
:func:`repro.soak.report.analyze`, the function that scores the real
run, with the same grace — which is what makes the two comparable.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SwimConfig
from repro.faults import FaultSchedule
from repro.soak.report import SoakAnalysis, analyze

#: Virtual seconds of pre-epoch warm-up (lets initial probes settle).
_WARMUP = 2.0


def run_sim_comparison(
    schedule: FaultSchedule,
    n_members: int,
    probe_interval: float = 0.5,
    alpha: float = 5.0,
    beta: float = 6.0,
    seed: int = 0,
    duration: Optional[float] = None,
    grace: float = 10.0,
) -> SoakAnalysis:
    """Run ``schedule`` on a fresh :class:`~repro.sim.runtime.SimCluster`
    and score its event log from the virtual epoch on."""
    from repro.sim.faults import SimFaultExecutor
    from repro.sim.runtime import SimCluster

    config = SwimConfig.lifeguard(
        alpha=alpha,
        beta=beta,
        probe_interval=probe_interval,
        probe_timeout=min(0.5, probe_interval / 2.0),
    )
    cluster = SimCluster(n_members, config=config, seed=seed)
    cluster.start()
    cluster.run_for(_WARMUP)
    epoch = cluster.now
    SimFaultExecutor(cluster, schedule, seed=seed, epoch=epoch).schedule()

    run_for = duration if duration is not None else schedule.end + 30.0
    cluster.run_until(epoch + run_for)
    cluster.stop()

    return analyze(
        schedule,
        epoch,
        cluster.event_log.events,
        cluster.names,
        duration=run_for,
        grace=grace,
        since=epoch,
    )
