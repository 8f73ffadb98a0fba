"""The benchmark's contract: workload and metric names, units, bounds.

``BENCHMARK.json`` at the repository root carries the same tables for
the driver; the self-test asserts the two agree and that everything the
command emits uses exactly these names. README.md explains each entry.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from benchmarks.perf.tracer import LAYERS

#: ``(name, why)``
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "flat1024_steady",
        "n=1024 flat cluster, preseed bootstrap then 10 quiet virtual s: "
        "dominated by the O(n^2) MemberMap bootstrap and 1024-entry push-pull codec work",
    ),
    (
        "paper128_experiments",
        "the paper's unit of work (one Interval + one Threshold run at n=128): scheduler, "
        "node, broadcast and many tiny codec calls; source of the two simulated statistics",
    ),
    (
        "zoned4096_inproc",
        "64 zones x 64 members in one process: zones.cluster/bridge epoch barriers, "
        "small per-zone maps, so a flat-bootstrap fix should barely move it",
    ),
    (
        "zoned4096_shards2",
        "the same zoned run on 2 forked workers over shared-memory frame rings: "
        "same layer used differently, digest must equal the in-process run",
    ),
    (
        "udp_pingack",
        "real loopback sockets, closed loop: datagram in, decode, SwimNode.handle_packet, "
        "encode, datagram out; bypasses sim.* where every other workload bypasses transport.*",
    ),
)
WORKLOAD_NAMES: Tuple[str, ...] = tuple(name for name, _ in WORKLOADS)

#: ``(name, unit, better, bound)``. Bounds are what the ten-seed spread
#: on the reference box supports (README, "Bounds"): host-time metrics
#: spread 5-19% there even after the speed correction, and the two
#: virtual-time statistics vary between seeds. Same-seed comparisons of
#: the virtual-time statistics are exact and checked as such.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("total_s", "s", "lower", 0.25),
    ("events_per_s", "events/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("msgs_per_member_per_vs", "msgs/member/vs", "lower", 0.20),
    ("detect_first_p50_vs", "virtual_s", "lower", 0.15),
    ("ack_round_trips_per_s", "rt/s", "higher", 0.25),
    ("ack_rtt_p50_us", "us", "lower", 0.25),
)
END_TO_END_NAMES: Tuple[str, ...] = tuple(row[0] for row in END_TO_END)
UNITS: Dict[str, str] = {name: unit for name, unit, _b, _bound in END_TO_END}

#: Metrics that are functions of the seed alone (virtual time): equal
#: across reps, across traced/untraced runs, and across commits that
#: only change host time.
DETERMINISTIC: Tuple[str, ...] = ("msgs_per_member_per_vs", "detect_first_p50_vs")

_COUNTS_AND_DERIVED: Tuple[Tuple[str, str, str], ...] = (
    ("sim.runtime.drive_s", "s", "lower"),
    ("sim.runtime.rss_after_setup_mb", "MB", "lower"),
    ("sim.scheduler.executed", "count", "lower"),
    ("sim.scheduler.pushes", "count", "lower"),
    ("sim.scheduler.cancels", "count", "lower"),
    ("sim.network.deliveries", "count", "lower"),
    ("sim.network.drops", "count", "lower"),
    ("sim.anomaly.queued", "count", "lower"),
    ("swim.node.packets_handled", "count", "lower"),
    ("swim.node.timer_callbacks", "count", "lower"),
    ("swim.node.fp_events", "count", "lower"),
    ("swim.node.fp_healthy_events", "count", "lower"),
    ("swim.member_map.adds", "count", "lower"),
    ("swim.member_map.wire_merges", "count", "lower"),
    ("swim.member_map.snapshots", "count", "lower"),
    ("swim.codec.encode_calls", "count", "lower"),
    ("swim.codec.decode_calls", "count", "lower"),
    ("swim.codec.encode_bytes", "bytes", "lower"),
    ("swim.codec.decode_bytes", "bytes", "lower"),
    ("swim.codec.pushpull_bytes", "bytes", "lower"),
    ("swim.broadcast.enqueues", "count", "lower"),
    ("swim.broadcast.payload_selects", "count", "lower"),
    ("sync.engine.exchanges", "count", "lower"),
    ("sync.engine.entries_merged", "count", "lower"),
    ("core.suspicion.confirms", "count", "lower"),
    ("core.lhm.notes", "count", "lower"),
    ("zones.cluster.barriers", "count", "lower"),
    ("zones.cluster.barrier_exchange_s", "s", "lower"),
    ("zones.frames.barrier_bytes", "bytes", "lower"),
    ("zones.frames.barrier_msgs", "count", "lower"),
    ("zones.sharded.overflows", "count", "lower"),
    ("zones.sharded.speedup", "x", "higher"),
    ("transport.fastudp.send_syscalls", "count", "lower"),
    ("transport.fastudp.recv_syscalls", "count", "lower"),
    ("transport.fastudp.avg_recv_batch", "dgrams/call", "higher"),
    ("transport.fastudp.echo_msgs_per_s", "msgs/s", "higher"),
    ("transport.udp.asyncio_ack_rt_per_s", "rt/s", "higher"),
    ("trace.overhead_ratio", "x", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

#: ``(name, unit, better)``: calls and self time per layer, then the
#: counts and derived numbers read at the same boundaries.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    row
    for layer in LAYERS
    for row in ((f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower"))
) + _COUNTS_AND_DERIVED
PER_LAYER_NAMES: Tuple[str, ...] = tuple(row[0] for row in PER_LAYER)
UNITS.update({name: unit for name, unit, _b in PER_LAYER})

#: Counts that must repeat exactly between two traced runs of one seed
#: on the simulator workloads (everything that is not a wall-clock time
#: or derived from one).
TIMING_METRICS = frozenset(
    [f"{layer}.self_s" for layer in LAYERS]
    + [
        "sim.runtime.drive_s",
        "sim.runtime.rss_after_setup_mb",
        "zones.cluster.barrier_exchange_s",
        "zones.sharded.speedup",
        "transport.fastudp.echo_msgs_per_s",
        "transport.udp.asyncio_ack_rt_per_s",
        "trace.overhead_ratio",
        "trace.unattributed_s",
    ]
)


def benchmark_json() -> dict:
    """The document BENCHMARK.json must hold (checked by the self-test)."""
    workloads: List[dict] = [{"name": n, "why": w} for n, w in WORKLOADS]
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": 10,
        "workloads": workloads,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
