"""Cost of the ops plane on the protocol's hot path.

The ops plane promises to be pull-based: installing the metrics registry
on a cluster adds only the ack-latency hook to the probe path (one
callback per directly-acked probe); everything else is snapshotted at
scrape time. This benchmark measures both halves on a simulated cluster:

* **hooks** — wall-clock to run the identical simulation with the
  registry installed but never scraped. Asserted < 5% over baseline.
* **scraped** — the same run scraping (sample + render) once per
  virtual second, reported for context: scrape cost scales with cluster
  size, not with protocol traffic, and happens off the probe path.
* **one scrape, absolute** — milliseconds per ``render_text`` and
  microseconds per exposed series at n=24 and n=256. The scraped row's
  ratio is 60 scrapes against a ~0.09 s run, so it says more about how
  short the run is than about what a scrape costs; these are the
  numbers to compare across commits (docs/PERFORMANCE.md).

Wall-clock is min-of-N over identical deterministic runs, which strips
scheduler noise the way ``timeit`` does.
"""

from __future__ import annotations

import time

from benchmarks.conftest import publish
from repro.config import SwimConfig
from repro.ops.exposition import render_text
from repro.sim.runtime import SimCluster

N_MEMBERS = 24
VIRTUAL_SECONDS = 60.0
REPS = 3
SCRAPE_EVERY = 1.0
MAX_HOOK_OVERHEAD = 0.05
SCRAPE_SIZES = (24, 256)
SCRAPE_REPS = 20


def _build(n_members: int = N_MEMBERS) -> SimCluster:
    return SimCluster(
        n_members=n_members, config=SwimConfig.lifeguard(), seed=11
    )


def _run(mode: str) -> float:
    """Wall-clock seconds for one full simulated run in the given mode."""
    cluster = _build()
    registry = None
    if mode != "baseline":
        registry = cluster.install_ops_registry()
    cluster.start()
    started = time.perf_counter()
    if mode == "scraped":
        elapsed = 0.0
        while elapsed < VIRTUAL_SECONDS:
            step = min(SCRAPE_EVERY, VIRTUAL_SECONDS - elapsed)
            cluster.run_for(step)
            elapsed += step
            render_text(registry)
    else:
        cluster.run_for(VIRTUAL_SECONDS)
    return time.perf_counter() - started


def _best(mode: str) -> float:
    return min(_run(mode) for _ in range(REPS))


def _one_scrape(n_members: int) -> dict:
    """Best-of-N wall-clock for one scrape of a warmed-up cluster."""
    cluster = _build(n_members)
    registry = cluster.install_ops_registry()
    cluster.start()
    cluster.run_for(10.0)
    text = render_text(registry)
    series = sum(1 for line in text.splitlines() if not line.startswith("#"))
    best = float("inf")
    for _ in range(SCRAPE_REPS):
        started = time.perf_counter()
        render_text(registry)
        best = min(best, time.perf_counter() - started)
    return {
        "n_members": n_members,
        "series": series,
        "ms_per_scrape": best * 1e3,
        "us_per_series": best * 1e6 / series,
    }


class TestOpsOverhead:
    def test_hook_overhead_under_five_percent(self):
        baseline = _best("baseline")
        hooks = _best("hooks")
        scraped = _best("scraped")

        overhead = hooks / baseline - 1.0
        scrape_overhead = scraped / baseline - 1.0
        rows = [
            ("baseline (no registry)", baseline, ""),
            ("registry installed", hooks, f"{overhead:+.1%}"),
            (f"scraped every {SCRAPE_EVERY:g}s", scraped,
             f"{scrape_overhead:+.1%}"),
        ]
        lines = [
            f"Ops-plane overhead: n={N_MEMBERS}, {VIRTUAL_SECONDS:g} virtual "
            f"seconds, min of {REPS} runs",
            f"{'mode':26s} {'wall-clock':>11s} {'vs baseline':>12s}",
        ]
        for label, seconds, delta in rows:
            lines.append(f"{label:26s} {seconds:10.3f}s {delta:>12s}")
        scrapes = [_one_scrape(n) for n in SCRAPE_SIZES]
        lines.append("")
        lines.append(
            f"One scrape (sample + render), best of {SCRAPE_REPS}, after 10 "
            "virtual seconds"
        )
        lines.append(
            f"{'members':>7s} {'series':>8s} {'ms/scrape':>10s} {'us/series':>10s}"
        )
        for row in scrapes:
            lines.append(
                f"{row['n_members']:7d} {row['series']:8d} "
                f"{row['ms_per_scrape']:10.2f} {row['us_per_series']:10.2f}"
            )
        publish(
            "ops_overhead",
            "\n".join(lines),
            {
                "n_members": N_MEMBERS,
                "virtual_seconds": VIRTUAL_SECONDS,
                "reps": REPS,
                "baseline_s": baseline,
                "hooks_s": hooks,
                "scraped_s": scraped,
                "hook_overhead": overhead,
                "scrape_overhead": scrape_overhead,
                "scrapes": scrapes,
            },
        )
        assert overhead < MAX_HOOK_OVERHEAD, (
            f"registry hooks cost {overhead:.1%} of the probe cycle "
            f"(limit {MAX_HOOK_OVERHEAD:.0%})"
        )
