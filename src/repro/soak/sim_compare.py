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
virtual epoch. Results use the same per-kill metrics as
:func:`repro.soak.report.analyze`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import SwimConfig
from repro.faults import FaultSchedule

#: Virtual seconds of pre-epoch warm-up (lets initial probes settle).
_WARMUP = 2.0


def _median(values: Sequence[float]) -> Optional[float]:
    clean = sorted(v for v in values if v is not None)
    if not clean:
        return None
    mid = len(clean) // 2
    if len(clean) % 2:
        return clean[mid]
    return (clean[mid - 1] + clean[mid]) / 2.0


def run_sim_comparison(
    schedule: FaultSchedule,
    n_members: int,
    probe_interval: float = 0.5,
    alpha: float = 5.0,
    beta: float = 6.0,
    seed: int = 0,
    duration: Optional[float] = None,
) -> dict:
    """Run ``schedule`` on a fresh :class:`~repro.sim.runtime.SimCluster`
    and return the comparison metrics as a JSON-safe dict."""
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
    names = cluster.names
    SimFaultExecutor(cluster, schedule, seed=seed, epoch=epoch).schedule()

    run_for = duration if duration is not None else schedule.end + 30.0
    cluster.run_until(epoch + run_for)
    cluster.stop()

    kill_time = {}
    for entry in schedule.of_kind("crash"):
        for name in entry.members:
            kill_time.setdefault(name, epoch + entry.start)
    killed = set(kill_time)
    survivors = [name for name in names if name not in killed]

    kills = []
    undetected = []
    log = cluster.event_log
    for victim, when in sorted(kill_time.items(), key=lambda kv: kv[1]):
        first = log.first_failure_time(victim, since=when, observers=survivors)
        dissemination = log.full_dissemination_time(
            victim, survivors, since=when
        )
        observers = log.observers_declaring_failed(victim, since=when)
        detected = dissemination is not None
        if not detected:
            undetected.append(victim)
        kills.append(
            {
                "victim": victim,
                "kill_t": when - epoch,
                "first_detection": first - when if first is not None else None,
                "dissemination": (
                    dissemination - when if dissemination is not None else None
                ),
                "detected_by": len(observers & set(survivors)),
                "survivors": len(survivors),
                "detected": detected,
            }
        )

    false_positives = sum(
        1
        for event in log.failure_events(since=epoch)
        if event.subject not in killed
        or event.time < kill_time.get(event.subject, float("inf"))
    )
    return {
        "members": n_members,
        "seed": seed,
        "virtual_duration": run_for,
        "kills": kills,
        "undetected": undetected,
        "detection_median": _median([k["first_detection"] for k in kills]),
        "dissemination_median": _median([k["dissemination"] for k in kills]),
        "false_positives": false_positives,
        "events": len(log),
    }
