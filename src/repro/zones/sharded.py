"""Sharded multi-process driver for zoned clusters.

Partitions the zones of a layout contiguously across a pool of worker
processes, each hosting one :class:`~repro.zones.cluster.ZoneShard`.
Workers advance in epoch lockstep: at every barrier each worker packs
its cross-zone outbox into one binary frame (see
:mod:`repro.zones.frames`) and publishes it through a double-buffered
shared-memory ring; the master decodes the record headers, merges all
outboxes into the canonical ``(src zone, send order)`` order, slices
the payload bytes zero-copy into one frame per destination shard, and
publishes those back through the rings. The pipes that used to carry
every message as an individual pickle are demoted to a control channel
(barrier index + frame length + startup handshake + error reporting).

Because a shard's behavior depends only on (zone seeds, the routed
message sequence at each barrier) — and the master's merge order is
independent of the sharding — a seeded run produces the identical
per-zone traces whether it runs on one process or many. ``run_zoned``
returns the merged trace digest either way; the trace-equivalence test
in ``tests/zones`` pins the 1-process and N-shard digests to each
other and to a golden.

The drivers here are fault-free (benchmarks and equivalence runs); the
fuzzer drives faults through the in-process :class:`ZonedCluster`.
"""

from __future__ import annotations

import gc
import multiprocessing
import random
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.config import SwimConfig
from repro.swim.events import SerializedEvent
from repro.zones.cluster import (
    ZonedCluster,
    ZoneShard,
    barrier_schedule,
    digest_zone_cluster,
    merge_zone_digests,
)
from repro.zones.frames import (
    DEFAULT_SLOT_BYTES,
    FRAME_HEAD,
    BarrierRing,
    BridgeTable,
    FrameBuffer,
    iter_records,
)
from repro.zones.topology import ZoneLayout, build_layout

__all__ = ["StressWindow", "ZonedRunResult", "run_zoned", "shard_slices"]

#: How often the master re-checks worker liveness while waiting on the
#: control pipe. Long waits are legitimate (a worker may spend minutes
#: in one epoch at the biggest rungs) — only an exited process is fatal.
_POLL_INTERVAL_S = 1.0


@dataclass(frozen=True)
class StressWindow:
    """Picklable CPU-stress prescription for one member.

    The burst schedule is a pure function of ``burst_seed``, so the same
    window produces the identical anomaly timeline in whichever worker
    process hosts the member's zone — sharded stress runs stay on the
    1-process trace.
    """

    member: str
    start: float
    duration: float
    burst_seed: int
    mean_blocked: float = 0.8
    mean_runnable: float = 0.15
    long_stall_prob: float = 0.12
    mean_long_stall: float = 7.0


@dataclass(frozen=True)
class ZonedRunResult:
    """Outcome of one zoned run (either driver)."""

    digest: str
    zone_digests: Dict[str, str]
    events: int
    executed: int
    shards: int
    wall_s: float
    #: The part of ``wall_s`` spent before the first epoch: construction
    #: plus ``start()`` (sharded: until every worker reported ready).
    setup_s: float = 0.0
    #: Barrier exchanges crossed during the run.
    barriers: int = 0
    #: Wall seconds the driver spent routing barrier exchanges (decode,
    #: merge order, re-frame, publish) — excludes waiting on worker
    #: simulation compute, so it is the exchange *overhead*.
    barrier_exchange_s: float = 0.0
    #: Total cross-zone record volume: payload plus the fixed per-record
    #: frame header, counted once per delivered message. Deterministic
    #: for a seeded run and identical across shard counts.
    barrier_bytes: int = 0
    #: Cross-zone messages exchanged at barriers.
    barrier_msgs: int = 0
    #: Frames that exceeded the shared-memory slot and fell back to the
    #: control pipe (0 on the fast path).
    barrier_overflows: int = 0
    #: Populated only when ``return_events=True``: every zone's member
    #: events, concatenated in zone order (within a zone, log order).
    member_events: Tuple[SerializedEvent, ...] = ()


def _apply_stress_windows(
    shard: ZoneShard,
    layout: ZoneLayout,
    windows: Tuple[StressWindow, ...],
) -> None:
    """Install each window on the zone cluster hosting its member.

    Windows about members outside this shard's zones are skipped; the
    iteration order is the global ``windows`` order so that per-zone
    anomaly schedules do not depend on the sharding.
    """
    zone_index = {zone.name: index for index, zone in enumerate(layout.zones)}
    roster = layout.roster()
    for window in windows:
        zi = zone_index[roster[window.member]]
        if zi not in shard.zone_indices:
            continue
        shard.clusters[zi].anomalies.cpu_stress(
            window.member,
            window.start,
            window.duration,
            random.Random(window.burst_seed),
            mean_blocked=window.mean_blocked,
            mean_runnable=window.mean_runnable,
            long_stall_prob=window.long_stall_prob,
            mean_long_stall=window.mean_long_stall,
        )


def _serialize_events(shard: ZoneShard) -> List[SerializedEvent]:
    return [
        event.as_tuple()
        for zi in shard.zone_indices
        for event in shard.clusters[zi].event_log.events
    ]


def shard_slices(zone_count: int, shards: int) -> List[Tuple[int, ...]]:
    """Contiguous, near-even partition of zone indices across shards."""
    shards = max(1, min(shards, zone_count))
    base, remainder = divmod(zone_count, shards)
    slices: List[Tuple[int, ...]] = []
    offset = 0
    for index in range(shards):
        size = base + (1 if index < remainder else 0)
        slices.append(tuple(range(offset, offset + size)))
        offset += size
    return slices


def _recv_checked(
    conn: Connection,
    proc: Any,
    shard_index: int,
    zone_indices: Tuple[int, ...],
    poll_interval: float = _POLL_INTERVAL_S,
) -> Tuple[Any, ...]:
    """``conn.recv()`` that cannot deadlock on a dead worker.

    Polls the pipe with a timeout and re-checks worker liveness between
    polls; a worker that exited without sending (OOM kill, hard crash)
    raises a diagnostic ``RuntimeError`` naming the shard instead of
    blocking the master forever.
    """
    while True:
        if conn.poll(poll_interval):
            try:
                message = conn.recv()
            except EOFError:
                raise RuntimeError(
                    f"shard {shard_index} (pid {proc.pid}, zones "
                    f"{zone_indices[0]}..{zone_indices[-1]}) closed its pipe "
                    f"without sending; exitcode={proc.exitcode}"
                ) from None
            return tuple(message)
        if not proc.is_alive():
            if conn.poll(0):
                continue  # drain whatever it sent before dying
            raise RuntimeError(
                f"shard {shard_index} (pid {proc.pid}, zones "
                f"{zone_indices[0]}..{zone_indices[-1]}) died without "
                f"sending (exitcode {proc.exitcode}) — likely killed "
                f"(OOM?) mid-epoch"
            )


def _shard_worker(
    conn: Connection,
    ring_name: str,
    ring_slot_bytes: int,
    n_members: int,
    zone_count: int,
    bridges_per_zone: int,
    config: SwimConfig,
    seed: int,
    zone_indices: Tuple[int, ...],
    duration: float,
    stress_windows: Tuple[StressWindow, ...],
    return_events: bool,
) -> None:
    """Worker entry point: build the shard locally (layouts, seeds and
    the bridge intern table are pure functions of the arguments, so
    nothing structural crosses the pipe) and drive it to ``duration`` in
    epoch lockstep, exchanging packed frames through the ring."""
    # Everything inherited across the fork is dead weight to this child:
    # freezing it keeps child collections from walking (and copy-on-write
    # duplicating) the parent heap. Without this, forking out of a process
    # that already holds a large cluster costs more than the run itself.
    gc.freeze()
    # And this process does nothing but build one shard and drive it,
    # which makes no cycles: there is nothing for a pass to find before
    # the process exits.
    gc.disable()
    ring: Optional[BarrierRing] = None
    try:
        layout = build_layout(n_members, zone_count, bridges_per_zone)
        table = BridgeTable.from_layout(layout)
        ring = BarrierRing(name=ring_name, slot_bytes=ring_slot_bytes)
        shard = ZoneShard(
            layout, zone_indices, config, seed, bridge_table=table
        )
        shard.start()
        if stress_windows:
            _apply_stress_windows(shard, layout, stress_windows)
        conn.send(("ready", table.digest))
        epoch = config.cross_zone_interval
        barrier = 0
        for target, is_barrier in barrier_schedule(duration, epoch):
            shard.run_until(target)
            if not is_barrier:
                continue
            frame = shard.outbox_frame()
            view = frame.view()
            nbytes = len(view)
            if ring.fits(nbytes):
                ring.write_out(barrier, view)
                conn.send(("outbox", barrier, nbytes, frame.count))
            else:  # oversize fallback: the frame rides the pipe
                conn.send(("outbox+", barrier, bytes(view), frame.count))
            view.release()  # un-export the buffer so reset() may resize
            frame.reset()
            reply = conn.recv()
            tag = reply[0]
            if tag == "inbound":
                _, in_barrier, in_bytes, _count = reply
                inbound: "bytes | memoryview" = ring.read_in(
                    in_barrier, in_bytes
                )
            elif tag == "inbound+":
                _, in_barrier, inbound, _count = reply
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unexpected master message {tag!r}")
            if in_barrier != barrier:  # pragma: no cover - protocol guard
                raise RuntimeError(
                    f"barrier skew: worker at {barrier}, master at {in_barrier}"
                )
            shard.deliver_frame(inbound, target)
            inbound = b""  # drop the ring view before the slot is reused
            barrier += 1
        digests = {
            layout.zones[zi].name: digest_zone_cluster(shard.clusters[zi])
            for zi in shard.zone_indices
        }
        events = sum(
            len(shard.clusters[zi].event_log.events) for zi in shard.zone_indices
        )
        executed = sum(
            shard.clusters[zi].scheduler.executed for zi in shard.zone_indices
        )
        serialized = _serialize_events(shard) if return_events else []
        conn.send(("done", digests, events, executed, serialized))
    except Exception as exc:  # pragma: no cover - surfaced in the master
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        if ring is not None:
            ring.close()
        conn.close()


def _run_single(
    n_members: int,
    config: SwimConfig,
    seed: int,
    zone_count: int,
    duration: float,
    stress_windows: Tuple[StressWindow, ...] = (),
    return_events: bool = False,
) -> ZonedRunResult:
    start = time.perf_counter()
    cluster = ZonedCluster(n_members, config, seed=seed, zone_count=zone_count)
    cluster.start()
    setup_s = time.perf_counter() - start
    if stress_windows:
        _apply_stress_windows(cluster.shard, cluster.layout, stress_windows)
    cluster.run_until(duration)
    digests = cluster.zone_digests()
    events = cluster.total_events()
    executed = sum(
        cluster.shard.clusters[zi].scheduler.executed
        for zi in cluster.shard.zone_indices
    )
    serialized = (
        tuple(_serialize_events(cluster.shard)) if return_events else ()
    )
    cluster.stop()
    return ZonedRunResult(
        digest=merge_zone_digests(digests),
        zone_digests=digests,
        events=events,
        executed=executed,
        shards=1,
        wall_s=time.perf_counter() - start,
        setup_s=setup_s,
        barriers=cluster.barriers,
        barrier_exchange_s=cluster.barrier_exchange_s,
        barrier_bytes=cluster.barrier_bytes,
        barrier_msgs=cluster.barrier_msgs,
        member_events=serialized,
    )


#: Sort key of the canonical merge order.
_record_order = itemgetter(0, 1)


def run_zoned(
    n_members: int,
    config: Optional[SwimConfig] = None,
    seed: int = 0,
    zone_count: int = 0,
    duration: float = 30.0,
    shards: int = 1,
    stress_windows: Tuple[StressWindow, ...] = (),
    return_events: bool = False,
    ring_slot_bytes: int = DEFAULT_SLOT_BYTES,
) -> ZonedRunResult:
    """Run a zoned cluster for ``duration`` of virtual time.

    ``shards=1`` runs in-process; ``shards>1`` spreads zones across that
    many worker processes (capped at the zone count). The merged digest
    is identical for any shard count — that is the contract, and it
    holds with ``stress_windows`` installed because each window's burst
    schedule is a pure function of its seed. ``return_events`` ships
    every zone's member events back (serialized tuples, zone order) for
    offline analysis such as false-positive classification.
    ``ring_slot_bytes`` sizes each shared-memory frame slot; frames that
    outgrow a slot fall back to the control pipe (slower, still
    correct), counted in ``barrier_overflows``.
    """
    if config is None:
        config = SwimConfig.lifeguard()
    zone_count = zone_count or config.zone_count
    if zone_count < 1:
        raise ValueError("run_zoned needs zone_count >= 1")
    if shards <= 1:
        return _run_single(
            n_members, config, seed, zone_count, duration,
            stress_windows=stress_windows, return_events=return_events,
        )

    start = time.perf_counter()
    slices = shard_slices(zone_count, shards)
    table = BridgeTable.from_layout(
        build_layout(n_members, zone_count, config.bridges_per_zone)
    )
    try:
        ctx: Any = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        ctx = multiprocessing.get_context("spawn")
    conns: List[Connection] = []
    procs: List[Any] = []
    rings: List[BarrierRing] = []
    barriers = 0
    exchange_s = 0.0
    barrier_bytes = 0
    barrier_msgs = 0
    overflows = 0
    try:
        for zone_indices in slices:
            ring = BarrierRing(create=True, slot_bytes=ring_slot_bytes)
            rings.append(ring)
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker,
                args=(
                    child,
                    ring.name,
                    ring_slot_bytes,
                    n_members,
                    zone_count,
                    config.bridges_per_zone,
                    config,
                    seed,
                    zone_indices,
                    duration,
                    stress_windows,
                    return_events,
                ),
            )
            proc.start()
            child.close()
            conns.append(parent)
            procs.append(proc)

        # Startup handshake: every worker derived the same bridge intern
        # table from the layout; the digests crossing the pipe prove it.
        for index, conn in enumerate(conns):
            message = _recv_checked(conn, procs[index], index, slices[index])
            if message[0] == "error":
                raise RuntimeError(f"shard worker failed: {message[1]}")
            if message[0] != "ready" or message[1] != table.digest:
                raise RuntimeError(
                    f"shard {index} bridge-table handshake mismatch: "
                    f"{message!r} (master digest {table.digest})"
                )
        setup_s = time.perf_counter() - start

        dest_shard = {
            zi: index
            for index, zone_indices in enumerate(slices)
            for zi in zone_indices
        }
        encoders = [FrameBuffer() for _ in slices]
        records: List[Tuple[int, int, int, int, memoryview]] = []
        # The barrier count of the shared schedule, which the workers
        # and the in-process driver replay step for step.
        exchanges = sum(
            is_barrier
            for _, is_barrier in barrier_schedule(
                duration, config.cross_zone_interval
            )
        )
        for barrier in range(exchanges):
            for index, conn in enumerate(conns):
                message = _recv_checked(
                    conn, procs[index], index, slices[index]
                )
                tag = message[0]
                if tag == "error":
                    raise RuntimeError(f"shard worker failed: {message[1]}")
                if tag == "outbox":
                    _, out_barrier, nbytes, count = message
                    frame: "bytes | memoryview" = rings[index].read_out(
                        out_barrier, nbytes
                    )
                elif tag == "outbox+":
                    _, out_barrier, frame, count = message
                    nbytes = len(frame)
                    overflows += 1
                else:  # pragma: no cover - protocol guard
                    raise RuntimeError(f"unexpected worker message {tag!r}")
                if out_barrier != barrier:  # pragma: no cover - guard
                    raise RuntimeError(
                        f"barrier skew: master at {barrier}, shard {index} "
                        f"at {out_barrier}"
                    )
                decode_started = time.perf_counter()
                records.extend(iter_records(frame))
                exchange_s += time.perf_counter() - decode_started
                barrier_bytes += nbytes - FRAME_HEAD.size
                barrier_msgs += count
            frame = b""  # drop the last ring view before slot reuse
            routing_started = time.perf_counter()
            # The canonical merge: sort decoded index tuples; payload
            # views are sliced zero-copy into per-destination frames.
            records.sort(key=_record_order)
            payload: "bytes | memoryview" = b""
            for src_zone, seq, dest_zone, bridge_id, payload in records:
                encoders[dest_shard[dest_zone]].append(
                    src_zone, seq, dest_zone, bridge_id, payload
                )
            # Release the payload views into the rings (the loop variable
            # would otherwise pin the last record's slot past close()).
            records.clear()
            payload = b""
            for index, conn in enumerate(conns):
                encoder = encoders[index]
                view = encoder.view()
                nbytes = len(view)
                if rings[index].fits(nbytes):
                    rings[index].write_in(barrier, view)
                    conn.send(("inbound", barrier, nbytes, encoder.count))
                else:
                    conn.send(
                        ("inbound+", barrier, bytes(view), encoder.count)
                    )
                    overflows += 1
                view.release()  # un-export the buffer so reset() may resize
                encoder.reset()
            barriers += 1
            exchange_s += time.perf_counter() - routing_started

        zone_digests: Dict[str, str] = {}
        events = 0
        executed = 0
        all_events: List[SerializedEvent] = []
        for index, conn in enumerate(conns):
            message = _recv_checked(conn, procs[index], index, slices[index])
            if message[0] == "error":
                raise RuntimeError(f"shard worker failed: {message[1]}")
            _tag, digests, shard_events, shard_executed, serialized = message
            zone_digests.update(digests)
            events += shard_events
            executed += shard_executed
            all_events.extend(serialized)
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=30.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join()
        for ring in rings:
            ring.close()
            ring.unlink()

    return ZonedRunResult(
        digest=merge_zone_digests(zone_digests),
        zone_digests=zone_digests,
        events=events,
        executed=executed,
        shards=len(slices),
        wall_s=time.perf_counter() - start,
        setup_s=setup_s,
        barriers=barriers,
        barrier_exchange_s=exchange_s,
        barrier_bytes=barrier_bytes,
        barrier_msgs=barrier_msgs,
        barrier_overflows=overflows,
        member_events=tuple(all_events),
    )
