"""End-to-end soak orchestration (the ``repro soak`` command's engine).

One :func:`run_soak` call is one soak run:

1. spawn N real members (:class:`~repro.soak.launcher.SoakLauncher`) and
   start scraping their admin APIs;
2. wait for full membership convergence everywhere — the run aborts if
   the cluster cannot even form;
3. pick the chaos **epoch** a short margin in the future, deliver the
   per-member fault plans (transport-level loss/partition) and start the
   :class:`~repro.soak.chaos.ChaosDriver` (process-level crash/block);
4. soak for ``duration`` wall seconds past the epoch, scraping all the
   while;
5. tear the cluster down, classify the merged event record
   (:func:`~repro.soak.report.analyze`), replay the same schedule on the
   simulator (:func:`~repro.soak.sim_compare.run_sim_comparison`), and
   write the report artifact (``report.json`` + ``report.md`` + the raw
   event/series/metrics dumps) into the run directory.

Progress counters land in a :class:`~repro.ops.registry.MetricsRegistry`
under ``lifeguard_soak_*`` and are included in the JSON artifact, so a
soak run is observable with the same machinery as a live member.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.faults import FaultSchedule
from repro.ops.registry import MetricsRegistry
from repro.soak.chaos import ChaosDriver
from repro.soak.launcher import SoakLauncher
from repro.soak.report import SoakAnalysis, analyze, render_markdown, wall_events
from repro.soak.schedule import validate_real_schedule
from repro.soak.scraper import SoakScraper
from repro.soak.sim_compare import run_sim_comparison


@dataclass
class SoakParams:
    """Knobs for one soak run."""

    members: int
    schedule: FaultSchedule
    #: Wall seconds to soak *after* the chaos epoch. Must cover the
    #: schedule plus detection slack.
    duration: float
    #: Run directory (logs, plans, artifacts). Auto-derived when empty.
    run_dir: str = ""
    host: str = "127.0.0.1"
    probe_interval: float = 0.5
    alpha: float = 5.0
    beta: float = 6.0
    seed: int = 0
    stagger: float = 0.1
    ready_timeout: float = 30.0
    converge_timeout: float = 60.0
    #: Seconds between the convergence instant and the chaos epoch
    #: (plan files must reach every member's watcher first).
    epoch_margin: float = 2.0
    scrape_interval: float = 1.0
    #: Replay the schedule on the simulator for the comparison section.
    sim_compare: bool = True

    def __post_init__(self) -> None:
        if self.members < 2:
            raise ValueError("a soak needs at least 2 members")
        validate_real_schedule(self.schedule)
        if self.duration <= self.schedule.end:
            raise ValueError(
                f"duration ({self.duration:g}s) must exceed the schedule's "
                f"last window ({self.schedule.end:g}s) to leave detection "
                f"slack"
            )
        launched = {
            SoakLauncher.member_name(i, self.members) for i in range(self.members)
        }
        unknown = sorted(self.schedule.members() - launched)
        if unknown:
            raise ValueError(
                f"schedule names member(s) {unknown} but the {self.members} "
                f"launched members are {min(launched)}..{max(launched)}"
            )

    def grace(self) -> float:
        """Grace tail after a chaos window during which FAILED events
        about its targets stay excused (suspicion timeouts in flight):
        max suspicion timeout + a couple of probe rounds of slack. The
        real run and its simulator twin are scored with this one value."""
        log_n = max(1.0, math.log10(max(self.members, 2)))
        return (
            self.beta * self.alpha * log_n * self.probe_interval
            + 5 * self.probe_interval
        )


@dataclass
class SoakResult:
    """What one soak run produced."""

    analysis: SoakAnalysis
    #: The simulator twin's analysis (``None`` when not requested).
    sim: Optional[SoakAnalysis]
    run_dir: str
    report_json: str
    report_md: str
    chaos_log: List[dict] = field(default_factory=list)

    @property
    def gate_ok(self) -> bool:
        return self.analysis.gate()["ok"]


def _soak_metrics(registry: MetricsRegistry):
    return {
        "runs": registry.counter(
            "lifeguard_soak_runs_total", "Soak runs started."
        ),
        "members": registry.counter(
            "lifeguard_soak_members_spawned_total",
            "Member processes spawned across soak runs.",
        ),
        "actions": registry.counter(
            "lifeguard_soak_chaos_actions_total",
            "Chaos actions (kill/pause/resume) executed.",
        ),
        "kills_detected": registry.counter(
            "lifeguard_soak_kills_detected_total",
            "Killed members fully detected by all survivors.",
        ),
        "kills_missed": registry.counter(
            "lifeguard_soak_kills_missed_total",
            "Killed members some survivor never declared failed.",
        ),
        "fp": registry.counter(
            "lifeguard_soak_false_positives_total",
            "FAILED events about live members during soak runs.",
        ),
        "fp_healthy": registry.counter(
            "lifeguard_soak_healthy_false_positives_total",
            "False positives outside every chaos window (gate metric).",
        ),
        "scrape_errors": registry.counter(
            "lifeguard_soak_scrape_errors_total",
            "Failed admin-API polls (expected for killed members).",
        ),
        "convergence": registry.gauge(
            "lifeguard_soak_convergence_seconds",
            "Launch-to-convergence time of the latest soak run.",
        ),
    }


def run_soak(
    params: SoakParams,
    registry: Optional[MetricsRegistry] = None,
    log: Callable[[str], None] = lambda message: None,
) -> SoakResult:
    """Run one full soak; returns the result (artifacts written)."""
    registry = registry if registry is not None else MetricsRegistry()
    metrics = _soak_metrics(registry)
    metrics["runs"].inc()

    run_dir = params.run_dir or os.path.join(
        "soak-runs", time.strftime("%Y%m%d-%H%M%S")
    )
    os.makedirs(run_dir, exist_ok=True)
    params.schedule.dump(os.path.join(run_dir, "schedule.json"))

    launcher = SoakLauncher(
        run_dir=run_dir,
        host=params.host,
        probe_interval=params.probe_interval,
        alpha=params.alpha,
        beta=params.beta,
        seed=params.seed,
        stagger=params.stagger,
        ready_timeout=params.ready_timeout,
    )
    launch_t = time.time()
    chaos: Optional[ChaosDriver] = None
    scraper: Optional[SoakScraper] = None
    try:
        log(f"spawning {params.members} members into {run_dir} ...")
        launcher.spawn_all(params.members)
        metrics["members"].inc(params.members)

        scraper = SoakScraper(
            launcher.members, interval=params.scrape_interval
        )
        converged_at = scraper.wait_converged(
            params.members, params.converge_timeout
        )
        if converged_at is None:
            raise RuntimeError(
                f"cluster did not converge within {params.converge_timeout}s"
            )
        convergence_time = converged_at - launch_t
        metrics["convergence"].set(convergence_time)
        log(f"converged in {convergence_time:.1f}s; starting scraper")
        scraper.start()

        epoch = time.time() + params.epoch_margin
        written = launcher.write_fault_plans(params.schedule, epoch)
        log(
            f"chaos epoch in {params.epoch_margin:g}s; "
            f"{len(written)} fault plan(s) delivered"
        )
        chaos = ChaosDriver(launcher, params.schedule, epoch)
        chaos.start()

        deadline = epoch + params.duration
        while time.time() < deadline:
            time.sleep(min(1.0, max(0.0, deadline - time.time())))
            launcher.reap()
        chaos.join(timeout=5.0)
        metrics["actions"].inc(len(chaos.log))
        log("soak window over; collecting final state")
        scraper.stop(final_poll=True)
    finally:
        if chaos is not None:
            chaos.stop()
        if scraper is not None and not scraper.stopped:
            scraper.stop(final_poll=False)
        launcher.terminate_all()

    metrics["scrape_errors"].inc(scraper.scrape_errors)
    analysis = analyze(
        params.schedule,
        epoch,
        wall_events(scraper.merged_events()),
        [record.name for record in launcher.members],
        duration=params.duration,
        convergence_time=convergence_time,
        grace=params.grace(),
    )
    for kill in analysis.kills:
        metrics["kills_detected" if kill["detected"] else "kills_missed"].inc()
    metrics["fp"].inc(analysis.fp_total)
    metrics["fp_healthy"].inc(analysis.fp_healthy)

    sim = None
    if params.sim_compare:
        log("replaying the schedule on the simulator ...")
        sim = run_sim_comparison(
            params.schedule,
            params.members,
            probe_interval=params.probe_interval,
            alpha=params.alpha,
            beta=params.beta,
            seed=params.seed,
            duration=params.duration,
            grace=params.grace(),
        )

    report_json, report_md = _write_artifacts(
        run_dir, params, analysis, sim, chaos.log if chaos else [],
        launcher, scraper, registry,
    )
    log(f"report written: {report_md}")
    return SoakResult(
        analysis=analysis,
        sim=sim,
        run_dir=run_dir,
        report_json=report_json,
        report_md=report_md,
        chaos_log=chaos.log if chaos else [],
    )


def _write_artifacts(
    run_dir: str,
    params: SoakParams,
    analysis: SoakAnalysis,
    sim: Optional[SoakAnalysis],
    chaos_log: List[dict],
    launcher: SoakLauncher,
    scraper: SoakScraper,
    registry: MetricsRegistry,
):
    from repro.ops.exposition import render_text
    from repro.ops.schema import envelope

    payload = envelope(
        "soak-report",
        {
            "params": {
                "members": params.members,
                "duration": params.duration,
                "probe_interval": params.probe_interval,
                "alpha": params.alpha,
                "beta": params.beta,
                "seed": params.seed,
                "host": params.host,
            },
            "analysis": analysis.as_dict(),
            "sim": sim.as_dict() if sim is not None else None,
            "chaos_log": chaos_log,
            "members": launcher.registry(),
            "scrape_errors": scraper.scrape_errors,
        },
    )
    report_json = os.path.join(run_dir, "report.json")
    with open(report_json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    report_md = os.path.join(run_dir, "report.md")
    with open(report_md, "w", encoding="utf-8") as handle:
        handle.write(render_markdown(analysis, sim, chaos_log))
    with open(
        os.path.join(run_dir, "events.jsonl"), "w", encoding="utf-8"
    ) as handle:
        for event in scraper.merged_events():
            handle.write(json.dumps(event, separators=(",", ":")) + "\n")
    with open(
        os.path.join(run_dir, "series.jsonl"), "w", encoding="utf-8"
    ) as handle:
        for snap in scraper.series:
            handle.write(json.dumps(snap, separators=(",", ":")) + "\n")
    with open(
        os.path.join(run_dir, "soak-metrics.prom"), "w", encoding="utf-8"
    ) as handle:
        handle.write(render_text(registry))
    return report_json, report_md
