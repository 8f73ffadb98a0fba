"""Discrete-event core throughput at multi-thousand-member scale.

The simulator is the instrument every experiment in this repository is
run on, so its throughput bounds how much of the paper's parameter space
is affordable. This benchmark pins that throughput down across the flat
rungs — the paper's own scale (well below 256), the first
"multi-thousand" rung (1024) and a stress rung (4096) — and the
hierarchical rungs the zoned subsystem unlocks (16384 = 64 zones x 256,
and opt-in 65536 = 1024 zones x 64), reporting per size:

* **events/sec** — scheduler events executed per wall-clock second of
  the drive loop, the metric the hot-path optimizations (heap
  compaction, indexed member map, bucketed broadcast queue, fused codec,
  batched deliveries) are aimed at;
* **setup** — wall-clock seconds of construction plus ``start()`` (the
  preseed bootstrap), timed separately so the gated drive-only columns
  keep their meaning while the cost of reaching the first event is on
  record;
* **virtual seconds per wall second** — how much simulated time one real
  second buys, the number an experiment designer actually budgets with;
* **peak RSS** — the process high-water mark after the rung, from
  ``resource.getrusage`` (monotonic across rungs, so the grid runs
  smallest-first and each rung's value is the memory the run needed so
  far).

Runs are fully deterministic (fixed seed, no anomalies), so wall-clock
is min-of-N over identical runs, which strips scheduler noise the way
``timeit`` does. The event count per size is also asserted stable across
reps — a cheap tripwire for accidental nondeterminism in the core.

Scale control: ``REPRO_SCALE_SIZES=256,1024`` restricts the size grid
(CI uses this to keep the gate fast), ``REPRO_REPS`` sets the rep count,
``REPRO_SCALE_TIME`` scales the virtual duration budget. The 65536 rung
is opt-in (name it in ``REPRO_SCALE_SIZES``; CI runs it nightly): measured
on the 2-core reference box it peaks at 682 MB of RSS (646 MB after
set-up) at its 0.5-virtual-second budget, with 6.3 s of set-up plus
2.7 s of drive per rep. The 1,024 bridge directories, each a full table
over one interned roster, share that roster's one read-only bootstrap
table and hold their insertion order as two ints until a directory is
first written (1.9 GB when each held its own columns, 1.1 GB while each
held its own 256 KB insertion order); what is left is the 65,536
members' slotted objects, each member's ``Random`` and probe order, and
each zone's 64-member tables. It stays ungated until a bar is set for
it (ROADMAP).
"""

from __future__ import annotations

import os
import resource
import time
from typing import Any, Dict, List, Tuple

from benchmarks.conftest import publish
from repro.config import SwimConfig
from repro.sim.runtime import SimCluster
from repro.zones.cluster import ZonedCluster
from repro.zones.sharded import run_zoned

#: (cluster size, virtual seconds, zone count) — larger clusters execute
#: more events per virtual second, so the virtual budget shrinks with
#: size to keep the total wall-clock roughly flat across rungs. Rungs
#: with ``zones > 0`` run on the hierarchical zoned driver; flat SWIM
#: above ~4096 members is O(n^2) in the full-mesh member maps — in
#: push-pull work always, in memory 4 bytes a pair (the probe order)
#: while the tables are quiet and shared and 33 once each map has
#: written and inserted into its own — which is exactly the wall the
#: zone hierarchy removes.
SIZE_GRID: Tuple[Tuple[int, float, int], ...] = (
    (256, 20.0, 0),
    (1024, 10.0, 0),
    (4096, 3.0, 0),
    (16384, 2.0, 64),
)

#: Opt-in rung (include 65536 in REPRO_SCALE_SIZES to run it).
EXTRA_GRID: Tuple[Tuple[int, float, int], ...] = (
    (65536, 0.5, 1024),
)

#: Floor asserted at n=1024 — far below the optimized core (so machine
#: noise cannot flake the gate) but far above the pre-optimization core,
#: catching order-of-magnitude regressions outright. The fine-grained
#: (15%) gate lives in ``benchmarks/regression.py`` against the recorded
#: baseline.
MIN_EVENTS_PER_SEC_1024 = 4000.0

#: Same idea for the first hierarchical rung (64 zones x 256): a coarse
#: floor that only order-of-magnitude collapses can cross. The 15% gate
#: against the recorded baseline lives in ``benchmarks/regression.py``
#: under ``events_per_sec[n16384]``.
MIN_EVENTS_PER_SEC_16384 = 1000.0

#: Acceptance bar for the multi-process driver on a real multi-core box
#: (PR 10): 4 shards must at least halve the single-process wall clock
#: at the n=16384 rung. Gated both here (hard assert when >=4 cores are
#: available) and in ``benchmarks/regression.py`` as the
#: ``sharded_speedup`` row of the baseline.
MIN_SHARDED_SPEEDUP = 2.0

SEED = 1


def _grid() -> List[Tuple[int, float, int]]:
    time_scale = float(os.environ.get("REPRO_SCALE_TIME", "1.0"))
    sizes_env = os.environ.get("REPRO_SCALE_SIZES")
    grid = [(n, vs * time_scale, zones) for n, vs, zones in SIZE_GRID]
    if sizes_env:
        wanted = {int(s) for s in sizes_env.split(",") if s.strip()}
        grid += [
            (n, vs * time_scale, zones)
            for n, vs, zones in EXTRA_GRID
            if n in wanted
        ]
        grid = [(n, vs, zones) for n, vs, zones in grid if n in wanted]
    return grid


def _reps() -> int:
    return max(1, int(os.environ.get("REPRO_REPS", "3")))


def _peak_rss_kb() -> int:
    """Process peak RSS in KiB (``ru_maxrss`` is KiB on Linux)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def render(payload: Dict[str, Any]) -> str:
    """The published ``scale_throughput`` table, as a pure function of
    the published JSON (a tier-1 test holds the committed
    ``scale_throughput.txt`` to it)."""
    lines = [
        f"Simulator throughput (min of {payload['reps']} identical runs, "
        f"seed {payload['seed']})",
        f"{'n':>6s} {'zones':>5s} {'virtual':>8s} {'events':>9s} "
        f"{'setup':>9s} {'wall':>9s} {'events/sec':>11s} {'vs/ws':>7s} "
        f"{'rss':>8s}",
    ]
    for row in payload["rows"]:
        lines.append(
            f"{int(row['n_members']):6d} {int(row['zones']):5d} "
            f"{row['virtual_seconds']:7.1f}s "
            f"{int(row['events']):9d} {row['setup_s']:8.3f}s "
            f"{row['wall_s']:8.3f}s "
            f"{row['events_per_sec']:11,.0f} {row['virtual_per_wall']:7.2f} "
            f"{int(row['peak_rss_kb']) // 1024:6d}MB"
        )
    return "\n".join(lines)


def _run_once(
    n_members: int, virtual_seconds: float, zones: int
) -> Tuple[int, float, float]:
    """One deterministic run; returns (events executed, drive wall
    seconds, setup wall seconds).

    The two phases are timed separately for both flavors: setup is
    construction plus ``start()`` (the preseed bootstrap), drive is the
    event loop alone, so flat and zoned rungs report the same quantities
    and the gated throughput stays a drive-loop number.
    """
    began = time.perf_counter()
    if zones:
        zoned = ZonedCluster(
            n_members, SwimConfig.lifeguard(), seed=SEED, zone_count=zones
        )
        zoned.start()
        started = time.perf_counter()
        zoned.run_until(virtual_seconds)
        wall = time.perf_counter() - started
        executed = sum(
            zoned.shard.clusters[zi].scheduler.executed
            for zi in zoned.shard.zone_indices
        )
        zoned.stop()
        return executed, wall, started - began
    cluster = SimCluster(
        n_members=n_members, config=SwimConfig.lifeguard(), seed=SEED
    )
    cluster.start()
    started = time.perf_counter()
    cluster.run_for(virtual_seconds)
    wall = time.perf_counter() - started
    return cluster.scheduler.executed, wall, started - began


class TestScaleThroughput:
    def test_events_per_second_at_scale(self):
        reps = _reps()
        rows: List[Dict[str, float]] = []
        for n_members, virtual_seconds, zones in sorted(_grid()):
            runs = [
                _run_once(n_members, virtual_seconds, zones)
                for _ in range(reps)
            ]
            events = {e for e, _, _ in runs}
            assert len(events) == 1, (
                f"nondeterministic event count at n={n_members}: {events}"
            )
            best_wall = min(wall for _, wall, _ in runs)
            executed = runs[0][0]
            rows.append(
                {
                    "n_members": n_members,
                    "zones": zones,
                    "virtual_seconds": virtual_seconds,
                    "events": executed,
                    "setup_s": min(setup for _, _, setup in runs),
                    "wall_s": best_wall,
                    "events_per_sec": executed / best_wall,
                    "virtual_per_wall": virtual_seconds / best_wall,
                    "peak_rss_kb": _peak_rss_kb(),
                }
            )

        payload = {"seed": SEED, "reps": reps, "rows": rows}
        publish("scale_throughput", render(payload), payload)

        by_size = {int(row["n_members"]): row for row in rows}
        if 1024 in by_size:
            rate = by_size[1024]["events_per_sec"]
            assert rate >= MIN_EVENTS_PER_SEC_1024, (
                f"simulator throughput collapsed at n=1024: "
                f"{rate:,.0f} events/s < {MIN_EVENTS_PER_SEC_1024:,.0f}"
            )
        if 16384 in by_size:
            rate = by_size[16384]["events_per_sec"]
            assert rate >= MIN_EVENTS_PER_SEC_16384, (
                f"zoned simulator throughput collapsed at n=16384: "
                f"{rate:,.0f} events/s < {MIN_EVENTS_PER_SEC_16384:,.0f}"
            )

    def test_sharded_driver_beats_single_process(self):
        """At n=16384 the multi-process driver must be >=2x faster.

        The hard speedup assertion only runs with real parallelism
        available (>=4 cores); 1-core runners skip it — with the
        measured ratio in the skip message rather than a silent pass —
        but the digest equality half of the contract is asserted
        regardless of core count whenever the rung is in the grid. The
        published ``scale_sharded`` payload feeds the direction-aware
        ``sharded_speedup`` gate in ``benchmarks/regression.py``.
        """
        import pytest

        if not any(n == 16384 for n, _, _ in _grid()):
            pytest.skip("16384 rung not in REPRO_SCALE_SIZES")
        data = sweep_shards([4])
        row = data["rows"][0]
        speedup = row["speedup"]
        cores = os.cpu_count() or 1
        if cores < 4:
            pytest.skip(
                f"sharded speedup assertion needs >=4 cores (have {cores}); "
                f"measured {speedup:.2f}x on this box, digest equality held"
            )
        assert speedup >= MIN_SHARDED_SPEEDUP, (
            f"4-shard run ({row['wall_s']:.2f}s) is only {speedup:.2f}x "
            f"single-process ({data['single_wall_s']:.2f}s) on {cores} "
            f"cores; the bar is {MIN_SHARDED_SPEEDUP:.1f}x"
        )


def sweep_shards(
    shard_counts: List[int],
    n_members: int = 16384,
    zones: int = 64,
    duration: float = 1.0,
) -> Dict[str, Any]:
    """Run the sharded rung at each shard count against one single-process
    reference run, assert the digest contract at every point, and publish
    the ``scale_sharded`` table the regression gate distils.

    Shared by ``test_sharded_driver_beats_single_process`` (CI runs the
    ``[4]`` sweep) and the ``--shards`` CLI mode, so both publish the
    identical schema.
    """
    single = run_zoned(
        n_members, seed=SEED, zone_count=zones, duration=duration, shards=1
    )
    rows: List[Dict[str, float]] = []
    for shards in shard_counts:
        if shards <= 1:
            continue  # the reference run already covers one process
        sharded = run_zoned(
            n_members,
            seed=SEED,
            zone_count=zones,
            duration=duration,
            shards=shards,
        )
        assert single.digest == sharded.digest, (
            f"{shards}-shard driver diverged from the single-process trace"
        )
        assert (single.barrier_bytes, single.barrier_msgs) == (
            sharded.barrier_bytes,
            sharded.barrier_msgs,
        ), f"{shards}-shard barrier volume diverged from single-process"
        rows.append(
            {
                "shards": sharded.shards,
                "setup_s": sharded.setup_s,
                "wall_s": sharded.wall_s,
                "speedup": single.wall_s / sharded.wall_s,
                "exchange_s": sharded.barrier_exchange_s,
                "overflows": sharded.barrier_overflows,
            }
        )
    data: Dict[str, Any] = {
        "n_members": n_members,
        "zones": zones,
        "duration": duration,
        "cpu_count": os.cpu_count(),
        "single_wall_s": single.wall_s,
        "single_setup_s": single.setup_s,
        "single_exchange_s": single.barrier_exchange_s,
        "barriers": single.barriers,
        "barrier_bytes": single.barrier_bytes,
        "barrier_msgs": single.barrier_msgs,
        "digest_equal": True,
        "rows": rows,
    }
    publish("scale_sharded", render_sharded(data), data)
    return data


def render_sharded(data: Dict[str, Any]) -> str:
    """The published ``scale_sharded`` table, as a pure function of the
    published JSON (a tier-1 test holds the committed
    ``scale_sharded.txt`` to it)."""
    lines = [
        f"Sharded driver at n={data['n_members']} ({data['zones']} zones, "
        f"{data['duration']:.1f} virtual s, {data['cpu_count']} cores): "
        f"single {data['single_wall_s']:.2f}s "
        f"(setup {data['single_setup_s']:.2f}s), "
        f"{data['barriers']} barrier(s), {data['barrier_msgs']} msgs / "
        f"{data['barrier_bytes']} bytes exchanged",
        f"{'shards':>6s} {'setup':>9s} {'wall':>9s} {'speedup':>8s} "
        f"{'exchange':>9s} {'overflow':>8s}",
    ]
    for row in data["rows"]:
        lines.append(
            f"{int(row['shards']):6d} {row['setup_s']:8.2f}s {row['wall_s']:8.2f}s "
            f"{row['speedup']:7.2f}x {row['exchange_s']:8.4f}s "
            f"{int(row['overflows']):8d}"
        )
    return "\n".join(lines)


def main(argv: "List[str] | None" = None) -> int:
    """CLI sweep mode: ``python -m benchmarks.bench_scale --shards 2,4``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Sharded-driver speedup sweep at the n=16384 rung"
    )
    parser.add_argument(
        "--shards",
        default="4",
        help="comma-separated shard counts to sweep (default: 4)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=1.0,
        help="virtual seconds per run (default: 1.0, the gated rung)",
    )
    args = parser.parse_args(argv)
    counts = [int(s) for s in args.shards.split(",") if s.strip()]
    sweep_shards(counts, duration=args.duration)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
