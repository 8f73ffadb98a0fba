"""Ops-plane metrics for the cross-zone layer.

One :class:`ZoneCollector` exposes a whole :class:`~repro.zones.cluster.
ZonedCluster` through a :class:`~repro.ops.registry.MetricsRegistry`,
following the ``NodeCollector`` pattern — declaration tables whose
series read the live cluster in place when scraped — but aggregated per
*zone* rather than per node: per-node series would explode cardinality
at the cluster sizes the sharded driver targets. All families carry the
``lifeguard_zone_`` prefix.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.ops.registry import MetricsRegistry, watch_series, watch_stats
from repro.swim.state import MemberState
from repro.zones.bridge import BRIDGE_STATS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.zones.cluster import ZonedCluster

__all__ = ["ZoneCollector"]

#: Per-zone gauges, as :func:`~repro.ops.registry.watch_series` rows
#: read from the zone's non-empty bridge list.
_ZONE_GAUGES = (
    *(
        (
            "gauge",
            "lifeguard_zone_members",
            "Members by state within each zone, as seen by the zone's "
            "first bridge.",
            (("state", state.name.lower()),),
            lambda bridges, state=state: bridges[0].node.members.num_in_state(state),
        )
        for state in MemberState
    ),
    (
        "gauge",
        "lifeguard_zone_unreachable",
        "Remote zones currently flagged unreachable by this zone's "
        "bridges (soft verdicts; never merged into membership).",
        (),
        lambda bridges: max(len(bridge.unreachable) for bridge in bridges),
    ),
)


class ZoneCollector:
    """Publishes per-zone membership and bridge-layer metrics: the
    gauges above plus every :data:`~repro.zones.bridge.BRIDGE_STATS`
    counter summed over the zone's bridges."""

    def __init__(self, registry: MetricsRegistry, cluster: "ZonedCluster") -> None:
        self.registry = registry
        self.cluster = cluster
        registry.gauge(
            "lifeguard_zone_count", "Zones in the cluster layout.", ()
        ).watch((), lambda: cluster.layout.zone_count)
        bridge_count = registry.gauge(
            "lifeguard_zone_bridges", "Bridge members per zone.", ("zone",)
        )
        for zi in cluster.shard.zone_indices:
            base = (("zone", cluster.layout.zones[zi].name),)
            bridges = cluster.shard.bridges[zi]
            bridge_count.watch(base, partial(len, bridges))
            if not bridges:
                continue
            watch_series(registry, _ZONE_GAUGES, base, bridges)
            watch_stats(
                registry,
                BRIDGE_STATS,
                base,
                lambda field, bridges=bridges: sum(
                    getattr(bridge.stats, field) for bridge in bridges
                ),
            )
