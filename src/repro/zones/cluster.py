"""Zoned clusters: per-zone SWIM groups on an epoch-barrier fabric.

Each zone is a complete, self-contained :class:`~repro.sim.runtime.SimCluster`
— its own virtual clock, scheduler, network and event log, seeded from
``zone_seed(master seed, zone index)``. Zones interact *only* through
the bridge layer (:mod:`repro.zones.bridge`), and bridge traffic moves
only at **epoch barriers**: every ``cross_zone_interval`` of virtual
time, all zones stop at the same instant, their outboxes are merged in
``(zone index, send order)`` order, and the surviving messages are
injected into the destination schedulers for the next epoch. The epoch
length is thus a fixed cross-zone latency floor — and, more importantly,
the *only* synchronization point between zones.

That discipline is what makes sharding trivial to get right: a
:class:`ZoneShard` holds any subset of zones and exposes exactly three
operations (``run_until`` a barrier, ``collect_outbox``, ``deliver``).
:class:`ZonedCluster` drives one shard in-process;
:mod:`repro.zones.sharded` drives many shards in worker processes with
the master relaying outboxes between them. Both run the identical
per-zone code on the identical message sequences, so a seeded run
produces a bit-identical merged trace digest regardless of the process
count.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.config import SwimConfig
from repro.sim.runtime import SimCluster
from repro.sim.scheduler import EventScheduler, collector_paused
from repro.swim.roster import Roster
from repro.swim.node import SwimNode
from repro.zones.bridge import ZoneBridge
from repro.zones.frames import RECORD_HEAD, BridgeTable, FrameBuffer, iter_records
from repro.zones.topology import ZoneLayout, build_layout, zone_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ops.registry import MetricsRegistry

__all__ = [
    "CrossZoneMessage",
    "ZoneShard",
    "ZonedCluster",
    "barrier_schedule",
    "digest_zone_cluster",
    "merge_zone_digests",
]


def barrier_schedule(
    deadline: float,
    epoch: float,
    now: float = 0.0,
    next_barrier: Optional[float] = None,
) -> Iterator[Tuple[float, bool]]:
    """Yield the ``(target, is_barrier)`` steps of an epoch drive loop.

    This generator *is* the drive loop's float arithmetic: master,
    workers and :meth:`ZonedCluster.run_until` all consume it, so every
    party counts the identical number of barrier exchanges even when
    ``deadline`` is not a clean multiple of ``epoch`` (accumulated
    ``barrier += epoch`` float error and all). ``now``/``next_barrier``
    resume a loop mid-flight — :class:`ZonedCluster` advances in
    multiple ``run_until`` calls.
    """
    barrier = epoch if next_barrier is None else next_barrier
    while now < deadline:
        target = min(deadline, barrier)
        is_barrier = target == barrier
        yield target, is_barrier
        now = target
        if is_barrier:
            barrier += epoch


class CrossZoneMessage(NamedTuple):
    """One bridge payload in flight between zones.

    ``(src_zone, seq)`` totally orders the merged outbox of an epoch:
    ``seq`` is the per-source-zone send counter, so the merge order is
    independent of how zones are grouped into shards.
    """

    src_zone: int
    seq: int
    dest_zone: int
    dest_bridge: str
    payload: bytes


class ZoneShard:
    """A set of zones co-hosted in one process.

    The unit of work for both the single-process and the multi-process
    drivers: it can advance its zones to a barrier, surrender the
    cross-zone messages they produced, and accept the messages routed to
    it. Zones are always constructed, started and advanced in zone-index
    order, so any partitioning of zones into shards replays the same
    per-zone schedules.
    """

    @collector_paused
    def __init__(
        self,
        layout: ZoneLayout,
        zone_indices: Iterable[int],
        config: SwimConfig,
        seed: int,
        loss_rate: float = 0.0,
        bridge_table: Optional[BridgeTable] = None,
    ) -> None:
        self.layout = layout
        self.zone_indices: Tuple[int, ...] = tuple(sorted(zone_indices))
        self.clusters: Dict[int, SimCluster] = {}
        self.bridges: Dict[int, List[ZoneBridge]] = {}
        self._bridge_by_name: Dict[str, ZoneBridge] = {}
        self._zone_index: Dict[str, int] = {z.name: z.index for z in layout.zones}
        self._outbox: List[CrossZoneMessage] = []
        self._seq: Dict[int, int] = {}
        #: Frame mode (the sharded driver): senders pack records straight
        #: into one reusable frame buffer instead of materializing
        #: :class:`CrossZoneMessage` objects.
        self.bridge_table = bridge_table
        self._frame: Optional[FrameBuffer] = (
            FrameBuffer() if bridge_table is not None else None
        )
        #: ``member name -> zone name``, built once and shared read-only
        #: with every bridge.
        self.roster: Dict[str, str] = layout.roster()
        #: The same roster interned once; every bridge directory of the
        #: shard is a set of state columns indexed by its ids.
        self.directory_roster = Roster()
        self.directory_roster.extend(
            (name, name, b"", zone_name) for name, zone_name in self.roster.items()
        )
        for zi in self.zone_indices:
            zone = layout.zones[zi]
            zcfg = config.replace(zone=zone.name, zone_count=layout.zone_count)
            cluster = SimCluster(
                n_members=len(zone.members),
                config=zcfg,
                seed=zone_seed(seed, zi),
                names=list(zone.members),
                loss_rate=loss_rate,
            )
            self.clusters[zi] = cluster
            self._seq[zi] = 0
            send = self._sender_for(zi)
            bridges: List[ZoneBridge] = []
            for b_name in zone.bridges:
                bridge = ZoneBridge(
                    node=cluster.nodes[b_name],
                    zone=zone,
                    layout=layout,
                    config=zcfg,
                    scheduler=cluster.scheduler,
                    send=send,
                    roster=self.roster,
                    directory_roster=self.directory_roster,
                )
                bridges.append(bridge)
                self._bridge_by_name[b_name] = bridge
            self.bridges[zi] = bridges

    def _sender_for(self, src_zone: int) -> Callable[[str, str, bytes], None]:
        if self.bridge_table is not None:
            frame = self._frame
            assert frame is not None
            bridge_ids = self.bridge_table.ids
            zone_index = self._zone_index
            seq_map = self._seq

            def send_packed(
                dest_zone: str, dest_bridge: str, payload: bytes
            ) -> None:
                seq = seq_map[src_zone]
                seq_map[src_zone] = seq + 1
                frame.append(
                    src_zone,
                    seq,
                    zone_index[dest_zone],
                    bridge_ids[dest_bridge],
                    payload,
                )

            return send_packed

        def send(dest_zone: str, dest_bridge: str, payload: bytes) -> None:
            seq = self._seq[src_zone]
            self._seq[src_zone] = seq + 1
            self._outbox.append(
                CrossZoneMessage(
                    src_zone, seq, self._zone_index[dest_zone], dest_bridge, payload
                )
            )

        return send

    @collector_paused
    def start(self) -> None:
        for zi in self.zone_indices:
            self.clusters[zi].start()
            for bridge in self.bridges[zi]:
                bridge.start()

    @collector_paused
    def run_until(self, deadline: float) -> int:
        executed = 0
        for zi in self.zone_indices:
            executed += self.clusters[zi].run_until(deadline)
        return executed

    def collect_outbox(self) -> List[CrossZoneMessage]:
        """Drain the cross-zone messages produced since the last barrier
        (already in ``(src zone, send order)`` order within this shard)."""
        out, self._outbox = self._outbox, []
        return out

    def outbox_frame(self) -> FrameBuffer:
        """Frame-mode outbox: the packed records produced since the last
        barrier (same ``(src zone, send order)`` order as
        :meth:`collect_outbox`). The caller ships ``.view()`` and then
        calls ``.reset()`` — the buffer is reused every epoch."""
        if self._frame is None:
            raise RuntimeError("shard was not built with a bridge table")
        return self._frame

    def deliver(self, messages: Iterable[CrossZoneMessage], at: float) -> None:
        """Inject routed messages at a barrier.

        Callers must present messages in the globally sorted
        ``(src_zone, seq)`` order; injection order determines scheduler
        sequence numbers, which the determinism contract pins.
        """
        for message in messages:
            bridge = self._bridge_by_name[message.dest_bridge]
            cluster = self.clusters[message.dest_zone]
            cluster.scheduler.call_at(
                at,
                lambda b=bridge, p=message.payload: b.receive(p),  # type: ignore[misc]
            )

    def deliver_frame(
        self, frame: "bytes | memoryview", at: float
    ) -> Tuple[int, int]:
        """Frame-mode :meth:`deliver`: inject a routed inbound frame.

        Records must already be in the globally sorted ``(src_zone,
        seq)`` order (the master packs them that way); payloads are
        materialized here because the scheduled closures outlive the
        (reused) frame buffer. Returns ``(records, payload bytes)``
        delivered."""
        if self.bridge_table is None:
            raise RuntimeError("shard was not built with a bridge table")
        names = self.bridge_table.names
        by_name = self._bridge_by_name
        clusters = self.clusters
        count = 0
        payload_bytes = 0
        for _src, _seq, dest_zone, bridge_id, view in iter_records(frame):
            bridge = by_name[names[bridge_id]]
            payload = bytes(view)
            clusters[dest_zone].scheduler.call_at(
                at,
                lambda b=bridge, p=payload: b.receive(p),  # type: ignore[misc]
            )
            count += 1
            payload_bytes += len(payload)
        return count, payload_bytes

    def stop(self) -> None:
        for zi in self.zone_indices:
            self.clusters[zi].stop()


class ZonedCluster:
    """Single-process driver for a fully zoned cluster.

    Mirrors the :class:`~repro.sim.runtime.SimCluster` surface the
    harness and fuzzer rely on (``nodes``, ``names``, ``run_until`` /
    ``run_for``, ``now``, ``stop``) while internally advancing every
    zone in epoch lockstep. Cross-zone faults are modelled here — a
    *zone partition* drops barrier traffic crossing the partition
    boundary for a window of virtual time.
    """

    @collector_paused
    def __init__(
        self,
        n_members: int,
        config: Optional[SwimConfig] = None,
        seed: int = 0,
        zone_count: int = 0,
        loss_rate: float = 0.0,
    ) -> None:
        if config is None:
            config = SwimConfig.lifeguard()
        zone_count = zone_count or config.zone_count
        if zone_count < 1:
            raise ValueError("zoned cluster needs zone_count >= 1")
        self.config = config
        self.seed = seed
        self.layout = build_layout(n_members, zone_count, config.bridges_per_zone)
        self.epoch = config.cross_zone_interval
        self.shard = ZoneShard(
            self.layout, range(zone_count), config, seed, loss_rate=loss_rate
        )
        self._roster = self.shard.roster
        self._now = 0.0
        self._next_barrier = self.epoch
        self._started = False
        #: ``(start, end, isolated zone names)`` windows; traffic with
        #: exactly one endpoint inside the isolated set is dropped at
        #: barriers falling in ``[start, end)``.
        self._partitions: List[Tuple[float, float, FrozenSet[str]]] = []
        #: Barrier-level traffic counters.
        self.cross_zone_delivered = 0
        self.cross_zone_dropped = 0
        #: Exchange instrumentation, mirrored by the sharded driver so
        #: ``ZonedRunResult`` carries comparable numbers either way:
        #: barriers crossed, wall seconds spent routing exchanges, and
        #: delivered record volume (payload + per-record frame header,
        #: i.e. the bytes the barrier would put on the frame wire).
        self.barriers = 0
        self.barrier_exchange_s = 0.0
        self.barrier_bytes = 0
        self.barrier_msgs = 0
        #: Populated by :meth:`install_ops_registry`.
        self.ops_registry: Optional["MetricsRegistry"] = None

    # ------------------------------------------------------------------ #
    # Topology accessors
    # ------------------------------------------------------------------ #

    @property
    def names(self) -> List[str]:
        return [name for zone in self.layout.zones for name in zone.members]

    @property
    def nodes(self) -> Dict[str, SwimNode]:
        merged: Dict[str, SwimNode] = {}
        for zi in self.shard.zone_indices:
            merged.update(self.shard.clusters[zi].nodes)
        return merged

    @property
    def clusters(self) -> Dict[str, SimCluster]:
        return {
            self.layout.zones[zi].name: cluster
            for zi, cluster in self.shard.clusters.items()
        }

    @property
    def bridges(self) -> List[ZoneBridge]:
        return [b for zi in self.shard.zone_indices for b in self.shard.bridges[zi]]

    def zone_of(self, member: str) -> str:
        return self._roster[member]

    def cluster_of(self, member: str) -> SimCluster:
        return self.shard.clusters[self.shard._zone_index[self._roster[member]]]

    def scheduler_for(self, member: str) -> EventScheduler:
        return self.cluster_of(member).scheduler

    def node(self, name: str) -> SwimNode:
        return self.cluster_of(name).nodes[name]

    # ------------------------------------------------------------------ #
    # Faults
    # ------------------------------------------------------------------ #

    def add_zone_partition(
        self, zones: Iterable[Union[str, int]], start: float, end: float
    ) -> None:
        """Isolate a set of zones from the rest for ``[start, end)``."""
        isolated = frozenset(
            z if isinstance(z, str) else self.layout.zones[z].name for z in zones
        )
        self._partitions.append((start, end, isolated))

    def _dropped(self, message: CrossZoneMessage, barrier: float) -> bool:
        src = self.layout.zones[message.src_zone].name
        dst = self.layout.zones[message.dest_zone].name
        for start, end, isolated in self._partitions:
            if start <= barrier < end and (src in isolated) != (dst in isolated):
                return True
        return False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        self.shard.start()

    @collector_paused
    def run_until(self, deadline: float) -> int:
        """Advance all zones to ``deadline`` in epoch lockstep."""
        executed = 0
        for target, is_barrier in barrier_schedule(
            deadline, self.epoch, self._now, self._next_barrier
        ):
            executed += self.shard.run_until(target)
            self._now = target
            if is_barrier:
                self._exchange(target)
                self._next_barrier += self.epoch
        return executed

    def run_for(self, duration: float) -> int:
        return self.run_until(self._now + duration)

    def _exchange(self, barrier: float) -> None:
        started = time.perf_counter()
        outbox = self.shard.collect_outbox()
        inbound = [m for m in outbox if not self._dropped(m, barrier)]
        self.cross_zone_dropped += len(outbox) - len(inbound)
        self.cross_zone_delivered += len(inbound)
        inbound.sort(key=lambda m: (m.src_zone, m.seq))
        self.shard.deliver(inbound, barrier)
        self.barriers += 1
        self.barrier_msgs += len(inbound)
        self.barrier_bytes += sum(
            RECORD_HEAD.size + len(m.payload) for m in inbound
        )
        self.barrier_exchange_s += time.perf_counter() - started

    def stop(self) -> None:
        self.shard.stop()

    @property
    def now(self) -> float:
        return self._now

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def install_ops_registry(self) -> "MetricsRegistry":
        """Attach the ops plane: one registry with the per-zone
        ``lifeguard_zone_*`` families (see :mod:`repro.zones.metrics`).
        Aggregated per zone, not per node — per-node collectors do not
        scale to the member counts the sharded driver targets."""
        from repro.ops.registry import MetricsRegistry
        from repro.zones.metrics import ZoneCollector

        if self.ops_registry is None:
            registry = MetricsRegistry()
            ZoneCollector(registry, self)
            self.ops_registry = registry
        return self.ops_registry

    def set_event_tap(self, tap: Optional[Callable[[float], None]]) -> None:
        for zi in self.shard.zone_indices:
            self.shard.clusters[zi].set_event_tap(tap)

    def total_events(self) -> int:
        return sum(
            len(self.shard.clusters[zi].event_log.events)
            for zi in self.shard.zone_indices
        )

    def zone_digests(self) -> Dict[str, str]:
        """Per-zone canonical trace digests (event log + telemetry)."""
        return {
            self.layout.zones[zi].name: digest_zone_cluster(self.shard.clusters[zi])
            for zi in self.shard.zone_indices
        }

    def merged_digest(self) -> str:
        return merge_zone_digests(self.zone_digests())


# --------------------------------------------------------------------- #
# Trace digests
# --------------------------------------------------------------------- #


def digest_zone_cluster(cluster: SimCluster) -> str:
    """Canonical digest of one finished zone: the full membership event
    log plus message/byte telemetry and the scheduler's executed-event
    count — the same record shape the flat-cluster trace-equivalence
    tests pin."""
    log = [event.as_tuple() for event in cluster.event_log.events]
    telemetry = cluster.telemetry()
    record = {
        "events": log,
        "executed": cluster.scheduler.executed,
        "msgs_sent": telemetry.msgs_sent,
        "bytes_sent": telemetry.bytes_sent,
        "msgs_received": telemetry.msgs_received,
        "msgs_by_kind": dict(sorted(telemetry.msgs_by_kind.items())),
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def merge_zone_digests(digests: Dict[str, str]) -> str:
    """Order-independent merge of per-zone digests: the cluster-level
    digest the 1-process-vs-N-shard equivalence contract compares."""
    blob = json.dumps(sorted(digests.items()), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
