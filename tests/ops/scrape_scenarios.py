"""Seeded runs whose ``/metrics`` text and telemetry are pinned as fixtures.

The fixtures under ``tests/ops/fixtures/`` were captured at the commit
*before* the stats spine replaced collect-time copying with families
read in place, by running this module against that tree::

    PYTHONPATH=<parent>/src:. python -m tests.ops.scrape_scenarios tests/ops/fixtures

so ``test_scrape_fixtures`` holds the new collectors to the old ones'
output, family for family. Re-capture rule: docs/CHECKING.md, *Tables
recorded at a parent commit*.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Tuple

from repro.config import SwimConfig
from repro.ops.exposition import render_text
from repro.sim.runtime import SimCluster
from repro.zones.cluster import ZonedCluster


def flat_scrape() -> Tuple[str, Dict[str, object]]:
    """One scrape of a fresh registry on an 8-member flat cluster in
    which ``m003`` crashes at t=10 (suspicion, failure, sync and by-kind
    series all non-trivial), plus the cluster's aggregate telemetry.

    The simulator's transport has no syscall layer, so one member's
    ``TransportStats`` is fed by hand the way a datagram backend feeds
    it: events, syscall counts and batch sizes up to past the last
    histogram bucket."""
    cluster = SimCluster(n_members=8, config=SwimConfig.lifeguard(), seed=5)
    registry = cluster.install_ops_registry()
    cluster.start()
    cluster.run_for(10.0)
    cluster.nodes["m003"].stop()
    cluster.run_for(40.0)
    transport = cluster.nodes["m001"].telemetry.transport
    transport.backend = "mmsg"
    transport.incr("conns_opened", 2)
    transport.incr("udp_recv_syscalls", 8)
    transport.record_batch("recv", 1, 5)
    transport.record_batch("recv", 7, 2)
    transport.record_batch("recv", 300)
    return render_text(registry), cluster.telemetry().as_dict()


def zoned_scrape() -> Tuple[str, Dict[str, object]]:
    """One scrape of a 3-zone, 18-member cluster, two bridges a zone,
    with a crash, one zone partition that healed (verdicts marked and
    cleared) and one still open at the scrape (a zone unreachable)."""
    config = SwimConfig.lifeguard().replace(zone_count=3, bridges_per_zone=2)
    cluster = ZonedCluster(18, config, seed=3, zone_count=3)
    registry = cluster.install_ops_registry()
    cluster.add_zone_partition(("z000",), 10.0, 30.0)
    cluster.add_zone_partition(("z001",), 50.0, 90.0)
    cluster.start()
    cluster.run_until(20.0)
    cluster.node(cluster.names[-1]).stop()
    cluster.run_until(70.0)
    telemetry = {
        name: zone.telemetry().as_dict() for name, zone in cluster.clusters.items()
    }
    return render_text(registry), telemetry


SCENARIOS = {"flat": flat_scrape, "zoned": zoned_scrape}


def main(out_dir: str) -> None:
    out = Path(out_dir)
    for name, scrape in SCENARIOS.items():
        text, telemetry = scrape()
        (out / f"{name}_metrics.txt").write_text(text)
        (out / f"{name}_telemetry.json").write_text(
            json.dumps(telemetry, indent=1, sort_keys=True) + "\n"
        )


if __name__ == "__main__":
    main(sys.argv[1])
