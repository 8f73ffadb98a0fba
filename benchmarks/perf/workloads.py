"""The five workloads, as they run inside one fresh child process.

``run_child`` is the only entry: it installs the once-per-cluster phase
probes (set-up wall, clusters seen, forked-worker reports), installs the
span recorder on top when the rep is traced, runs one workload body and
returns a JSON-safe result. Sizes are part of what the workload names
mean; ``smoke`` shrinks them for the self-test only.
"""

from __future__ import annotations

import asyncio
import errno
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import tempfile
from array import array
from bisect import bisect_left
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional

from repro.config import SwimConfig
from repro.harness import (
    IntervalParams,
    ThresholdParams,
    run_interval,
    run_threshold,
)
from repro.harness.packetbench import run_packet_bench
from repro.sim.runtime import SimCluster
from repro.swim import codec
from repro.swim.messages import Ack, Alive, Compound, Ping
from repro.swim.state import MemberState
from repro.transport.fastudp import create_udp_transport
from repro.transport.udp import UdpMember
from repro.zones import sharded
from repro.zones.cluster import ZonedCluster, ZoneShard, digest_zone_cluster
from repro.zones.frames import BarrierRing

from benchmarks.perf import tracer

#: Scratch space for forked workers' reports (inside the checkout).
WORK_ROOT = Path(__file__).resolve().parent / "_work"

#: The fixed reference run that supplies the two simulated statistics on
#: workloads that have no failure detection of their own (README,
#: "Every metric on every workload").
REFERENCE = "ref_threshold128"


@dataclass(frozen=True)
class Rep:
    """What one child process was asked to run."""

    seed: int
    smoke: bool = False
    #: ``udp_pingack`` only: the run's measuring budget ...
    seconds: float = 10.0
    #: ... and whether to add the untraced transport context.
    extras: bool = False


def _rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _sha(record: object) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _percentile(sorted_values: List[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


# --------------------------------------------------------------------- #
# Host speed: the box this runs on is not steady
# --------------------------------------------------------------------- #


class SpeedProbe:
    """How fast this CPU is running right now, sampled at 100 Hz.

    The reference box is a small VM whose effective speed drops by up
    to 1.6x for seconds to minutes at a time (neighbours on the same
    core: CPU time and wall time inflate together, so it cannot be
    subtracted as steal). Raw wall-clock spreads of 15-35% between
    identical runs would make every timing bound meaningless, so every
    rep carries this probe: a SIGALRM handler that times one fixed unit
    of interpreter work. :meth:`undisturbed_s` weighs each slice of an
    interval by ``REFERENCE_NS / cost sampled in that slice``: the
    seconds the interval would have taken on a CPU that runs the unit
    in ``REFERENCE_NS`` throughout, which is the reference box left
    alone. The unit allocates nothing and touches no memory, so what
    the program does to heap and caches cannot move it (a unit that
    walks a table tracks memory contention better but reads 1.7x slow
    inside the syscall-heavy UDP workload, which would misstate every
    rate there); the reference is a constant, not a statistic of the
    run, because a run that is disturbed from start to finish has no
    quiet sample to offer. Measured at n=1024: 16-29% spread of raw
    wall becomes 4-12%. Costs under 1%.
    """

    INTERVAL_S = 0.01
    UNIT = range(3000)
    REFERENCE_NS = 43_000

    def __init__(self) -> None:
        self.at_ns = array("q")
        self.cost_ns = array("q")

    def start(self) -> None:
        del self.at_ns[:]
        del self.cost_ns[:]
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        self._sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def _sample(self, *_signal_args: Any) -> None:
        start = perf_counter_ns()
        for _ in self.UNIT:
            pass
        end = perf_counter_ns()
        self.at_ns.append(end)
        self.cost_ns.append(end - start)

    def undisturbed_s(self, start_ns: int, end_ns: int) -> float:
        at, cost = self.at_ns, self.cost_ns
        reference = self.REFERENCE_NS
        total = 0.0
        index = bisect_left(at, start_ns)
        since = start_ns
        while index < len(at) and at[index] <= end_ns:
            total += (at[index] - since) * reference / cost[index]
            since = at[index]
            index += 1
        # The slice after the last sample inside takes the next one.
        total += (end_ns - since) * reference / cost[min(index, len(at) - 1)]
        return total / 1e9

    def dilation(self, start_ns: int, end_ns: int) -> float:
        """Wall seconds per undisturbed second over the interval."""
        return (end_ns - start_ns) / 1e9 / self.undisturbed_s(start_ns, end_ns)


# --------------------------------------------------------------------- #
# Phase probes: once per cluster, never on a hot path
# --------------------------------------------------------------------- #


class Phases:
    """What the once-per-cluster wrappers saw in this process."""

    def __init__(self, work_dir: Path, recorder: Optional[tracer.Recorder]) -> None:
        self.work_dir = work_dir
        self.recorder = recorder
        self.master_pid = os.getpid()
        self.speed = SpeedProbe()
        self.clusters: List[Any] = []
        #: Virtual ping->ack round-trip times, from ``on_probe_rtt``.
        self.rtts: List[float] = []
        #: ``(start_ns, end_ns)`` of every outermost constructor/start().
        self.setup_spans: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.depth = 0
        self.rss_after_setup_mb = 0.0
        self.clusters.clear()
        self.rtts.clear()
        self.setup_spans.clear()
        self.born_ns = perf_counter_ns()

    def setup_s(self) -> float:
        return sum(self.speed.undisturbed_s(a, b) for a, b in self.setup_spans)

    def after_fork_in_child(self) -> None:
        """A shard worker starts its own ledger and its own speed probe
        (interval timers are not inherited): what it was handed is the
        master's, and the master reports that itself."""
        self.reset()
        self.speed.start()
        if self.recorder is not None:
            self.recorder.reset()

    def sim_counters(self) -> Dict[str, int]:
        """Public counters of every cluster built in this process."""
        out = dict.fromkeys(
            ("members", "executed", "msgs_sent", "acks", "entries_merged",
             "deliveries", "drops"), 0,
        )
        for cluster in self.clusters:
            telemetry = cluster.telemetry()
            stats = cluster.network.stats
            out["members"] += len(cluster.names)
            out["executed"] += cluster.scheduler.executed
            out["msgs_sent"] += telemetry.msgs_sent
            out["acks"] += telemetry.msgs_by_kind["ack"]
            out["entries_merged"] += telemetry.sync_entries_merged
            out["deliveries"] += stats.packets_delivered
            out["drops"] += stats.packets_lost + stats.packets_cut
        return out

    def report(self) -> Dict[str, Any]:
        now = perf_counter_ns()
        out: Dict[str, Any] = {
            "setup_s": self.setup_s(),
            "setup_wall_s": sum(b - a for a, b in self.setup_spans) / 1e9,
            # Over this process's life so far; how a forked worker's
            # view of the host reaches the master.
            "dilation": self.speed.dilation(self.born_ns, now),
            "speed_samples": len(self.speed.at_ns),
            "rss_after_setup_mb": self.rss_after_setup_mb,
            "rss_mb": _rss_mb(),
            "sim": self.sim_counters(),
            "rtts": self.rtts,
        }
        rec = self.recorder
        if rec is not None:
            out["trace"] = {
                "entries": rec.by_entry(),
                "counters": dict(rec.counters),
                "attributed_s": rec.attributed_ns / 1e9,
            }
        return out

    def worker_reports(self) -> List[Dict[str, Any]]:
        return [
            json.loads(path.read_text())
            for path in sorted(self.work_dir.glob("worker-*.json"))
        ]


def install_phases(phases: Phases, patcher: tracer.Patcher) -> None:
    def timed(fn: Callable[..., Any]) -> Callable[..., Any]:
        # Constructors nest (ZonedCluster > ZoneShard > SimCluster):
        # only the outermost one adds to the set-up wall.
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            phases.depth += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                phases.depth -= 1
                if phases.depth == 0:
                    phases.setup_spans.append((start, perf_counter_ns()))
                    phases.rss_after_setup_mb = _rss_mb()

        return wrapper

    construct = SimCluster.__init__
    note_rtt = phases.rtts.append

    def on_probe_rtt(_target: str, rtt: float) -> None:
        note_rtt(rtt)

    def construct_and_register(self: Any, *args: Any, **kwargs: Any) -> None:
        construct(self, *args, **kwargs)
        # The harness does not return its cluster; this is where the
        # benchmark gets hold of scheduler.executed and the telemetry.
        phases.clusters.append(self)
        for node in self.nodes.values():
            node.on_probe_rtt = on_probe_rtt

    patcher.set(SimCluster, "__init__", timed(construct_and_register))
    patcher.set(SimCluster, "start", timed(SimCluster.start))
    for cls in (ZoneShard, ZonedCluster):
        for name in ("__init__", "start"):
            patcher.set(cls, name, timed(getattr(cls, name)))

    # A shard worker's last act is closing its ring; that is where it
    # ships its ledger back (the driver returns only digests and counts).
    close_ring = BarrierRing.close

    def close_and_report(self: Any) -> None:
        close_ring(self)
        if os.getpid() != phases.master_pid:
            path = phases.work_dir / f"worker-{os.getpid()}.json"
            path.write_text(json.dumps(phases.report()))

    patcher.set(BarrierRing, "close", close_and_report)


# --------------------------------------------------------------------- #
# Hygiene: what a rep must not leave behind
# --------------------------------------------------------------------- #


def _open_sockets() -> int:
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}").startswith("socket:"):
                count += 1
        except OSError:
            pass  # the listing's own descriptor
    return count


def _child_processes() -> List[str]:
    """Command lines of this process's live children, except
    multiprocessing's resource tracker (it serves the shared-memory
    rings and lives until the interpreter exits)."""
    me = str(os.getpid())
    found: List[str] = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue  # exited while we were looking
        # "pid (comm) state ppid ..."; comm may contain spaces.
        if stat.rpartition(")")[2].split()[1] != me:
            continue
        if b"resource_tracker" not in cmdline:
            found.append(cmdline.replace(b"\0", b" ").decode(errors="replace"))
    return found


def _shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class Hygiene:
    def __init__(self) -> None:
        self.sockets = _open_sockets()
        self.shm = _shm_segments()

    def leaks(self) -> List[str]:
        found = [f"child process left: {cmd}" for cmd in _child_processes()]
        new_shm = _shm_segments() - self.shm
        if new_shm:
            found.append(f"/dev/shm segments left: {sorted(new_shm)}")
        sockets = _open_sockets()
        if sockets > self.sockets:
            found.append(f"{sockets - self.sockets} sockets left open")
        return found


# --------------------------------------------------------------------- #
# Simulator workloads
# --------------------------------------------------------------------- #


def _sim_result(
    total_wall_s: float,
    total_s: float,
    executed: int,
    msgs: int,
    members: int,
    virtual_s: float,
    setup_s: float,
    peak_rss_mb: float,
    reports: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """End-to-end numbers every simulator workload shares. Seconds are
    undisturbed seconds (:class:`SpeedProbe`); the raw wall rides along."""
    drive_s = total_s - setup_s
    acks = sum(r["sim"]["acks"] for r in reports)
    rtts = sorted(rtt for r in reports for rtt in r.pop("rtts"))
    return {
        "e2e": {
            "setup_s": setup_s,
            "total_s": total_s,
            "events_per_s": executed / drive_s,
            "peak_rss_mb": peak_rss_mb,
            "msgs_per_member_per_vs": msgs / (members * virtual_s),
            # Simulated ping->ack round trips completed per wall second
            # of drive, and their median *virtual* round-trip time.
            "ack_round_trips_per_s": acks / drive_s,
            "ack_rtt_p50_us": statistics.median(rtts) * 1e6,
        },
        "info": {
            "virtual_s": virtual_s,
            "events": executed,
            "members": members,
            "acks": acks,
            "ack_rtt_n": len(rtts),
            "ack_rtt_p99_us": _percentile(rtts, 0.99) * 1e6,
            "drive_s": drive_s,
            "total_wall_s": total_wall_s,
            "dilation": total_wall_s / total_s,
        },
        "reports": reports,
    }


def flat1024_steady(rep: Rep, phases: Phases) -> Dict[str, Any]:
    n, virtual_s = (64, 2.0) if rep.smoke else (1024, 10.0)
    start = perf_counter_ns()
    cluster = SimCluster(n_members=n, config=SwimConfig.lifeguard(), seed=rep.seed)
    cluster.start()
    cluster.run_for(virtual_s)
    # Event log + telemetry + executed count: the record shape the
    # flat-cluster trace-equivalence tests pin.
    fingerprint = digest_zone_cluster(cluster)
    cluster.stop()
    end = perf_counter_ns()

    report = phases.report()
    sim = report["sim"]
    out = _sim_result(
        (end - start) / 1e9, phases.speed.undisturbed_s(start, end),
        sim["executed"], sim["msgs_sent"], n, virtual_s,
        report["setup_s"], _rss_mb(), [report],
    )
    out["fingerprint"] = {"digest": fingerprint, "executed": sim["executed"]}
    return out


def _paper_params(rep: Rep) -> tuple:
    seed = rep.seed
    if rep.smoke:
        # Threshold needs the suspicion timeout (~9 virtual s at n=64)
        # to elapse inside the anomaly or nothing is ever detected.
        return (
            IntervalParams("Lifeguard", n_members=64, concurrent=8, duration=1.024,
                           interval=0.064, quiesce=2.0, min_test_time=2.0, seed=seed),
            ThresholdParams("Lifeguard", n_members=64, concurrent=4, duration=12.0,
                            quiesce=2.0, time_limit=30.0, seed=seed),
        )
    return (
        IntervalParams("Lifeguard", n_members=128, concurrent=16, duration=8.192,
                       interval=0.064, min_test_time=60.0, seed=seed),
        ThresholdParams("Lifeguard", n_members=128, concurrent=8, duration=16.384,
                        seed=seed),
    )


def _threshold_statistics(result: Any) -> Dict[str, Any]:
    detections = result.first_detection
    if not detections:
        raise RuntimeError("threshold run detected none of its anomalies")
    return {
        "detect_first_p50_vs": statistics.median(detections),
        "detect_n": len(detections),
        "undetected": len(result.latencies.undetected),
        "recovered": result.recovered,
    }


def paper128_experiments(rep: Rep, phases: Phases) -> Dict[str, Any]:
    interval_params, threshold_params = _paper_params(rep)
    start = perf_counter_ns()
    interval = run_interval(interval_params)
    threshold = run_threshold(threshold_params)
    summary = [interval.as_dict(), threshold.as_dict()]
    end = perf_counter_ns()

    report = phases.report()
    sim = report["sim"]
    virtual_s = sum(cluster.now for cluster in phases.clusters)
    out = _sim_result(
        (end - start) / 1e9, phases.speed.undisturbed_s(start, end),
        sim["executed"], interval.msgs_sent,
        interval_params.n_members, interval.test_time,
        report["setup_s"], _rss_mb(), [report],
    )
    detect = _threshold_statistics(threshold)
    out["e2e"]["detect_first_p50_vs"] = detect.pop("detect_first_p50_vs")
    out["info"].update(detect, virtual_s=virtual_s,
                       fp_events=interval.fp_events,
                       fp_healthy_events=interval.fp_healthy_events)
    out["fingerprint"] = {"results": _sha(summary), "executed": sim["executed"]}
    if not threshold.recovered:
        out["error"] = "threshold run did not recover"
    return out


def ref_threshold128(rep: Rep, phases: Phases) -> Dict[str, Any]:
    """The Threshold half of ``paper128_experiments`` on its own."""
    _interval, params = _paper_params(rep)
    threshold = run_threshold(params)
    (cluster,) = phases.clusters
    detect = _threshold_statistics(threshold)
    out: Dict[str, Any] = {
        "e2e": {
            "detect_first_p50_vs": detect.pop("detect_first_p50_vs"),
            "msgs_per_member_per_vs": cluster.telemetry().msgs_sent
            / (params.n_members * cluster.now),
        },
        "info": detect,
        "fingerprint": {"results": _sha(threshold.as_dict())},
    }
    if not threshold.recovered:
        out["error"] = "reference threshold run did not recover"
    return out


def _zoned(rep: Rep, phases: Phases, shards: int) -> Dict[str, Any]:
    n, zones, virtual_s = (64, 4, 2.0) if rep.smoke else (4096, 64, 10.0)
    hygiene = Hygiene()
    start = perf_counter_ns()
    # Through the module, so the traced rep's wrapper is the one called.
    result = sharded.run_zoned(
        n, seed=rep.seed, zone_count=zones, duration=virtual_s, shards=shards
    )
    end = perf_counter_ns()
    total_wall_s = (end - start) / 1e9

    if shards > 1:
        reports = phases.worker_reports()
        if len(reports) != result.shards:
            raise RuntimeError(
                f"{len(reports)} worker reports for {result.shards} shards"
            )
        setup_s = max(r["setup_s"] for r in reports)
        # The master mostly waits, and its own speed samples compete
        # with the workers for two cores; the workers' view of the host
        # is the one that describes the run.
        total_s = total_wall_s / statistics.mean(r["dilation"] for r in reports)
        peak_rss_mb = _rss_mb() + _rss_mb(resource.RUSAGE_CHILDREN)
        reports.append(phases.report())  # the master's own spans
    else:
        reports = [phases.report()]
        setup_s = reports[0]["setup_s"]
        total_s = phases.speed.undisturbed_s(start, end)
        peak_rss_mb = _rss_mb()
    msgs = sum(r["sim"]["msgs_sent"] for r in reports) + result.barrier_msgs
    out = _sim_result(
        total_wall_s, total_s, result.executed, msgs, n, virtual_s,
        setup_s, peak_rss_mb, reports,
    )
    out["info"].update(
        barriers=result.barriers,
        barrier_exchange_s=result.barrier_exchange_s,
        barrier_bytes=result.barrier_bytes,
        barrier_msgs=result.barrier_msgs,
        barrier_overflows=result.barrier_overflows,
        shards=result.shards,
    )
    out["fingerprint"] = {
        "digest": result.digest,
        "executed": result.executed,
        "barrier_bytes": result.barrier_bytes,
        "barrier_msgs": result.barrier_msgs,
    }
    out["leaks"] = hygiene.leaks()
    return out


def zoned4096_inproc(rep: Rep, phases: Phases) -> Dict[str, Any]:
    return _zoned(rep, phases, shards=1)


def zoned4096_shards2(rep: Rep, phases: Phases) -> Dict[str, Any]:
    # Two, not os.cpu_count(): the workload means the same everywhere.
    os.register_at_fork(after_in_child=phases.after_fork_in_child)
    return _zoned(rep, phases, shards=2)


# --------------------------------------------------------------------- #
# The real path: one UdpMember, one raw client, loopback
# --------------------------------------------------------------------- #

ROSTER = 64
WINDOW = 64
PIGGYBACK = 4
#: How long past a phase's deadline an unanswered ping may still be
#: answered. Loopback answers in ~2 ms; the slack is for the host: a
#: shared VM can stall the whole process for longer than 200 ms, and a
#: stall is not a lost ping. A ping that is really lost still fails.
DRAIN_S = 5.0
#: ``UdpTransport.create`` binds UDP port 0 and then listens on the same
#: TCP port number; about one bind in 3,000 lands on a number some TCP
#: socket on loopback already holds (EADDRINUSE). A run opens 100-300
#: transports, so the benchmark asks again instead of failing the rep.
BIND_TRIES = 8


def _port_taken(exc: OSError) -> bool:
    return exc.errno == errno.EADDRINUSE


class _PingClient:
    """Closed-loop ping source: the next ping of a slot leaves only when
    the previous one's ack arrived."""

    def __init__(self, client: Any, member_address: str, seed: int) -> None:
        self._client = client
        self._address = member_address
        rng = random.Random(seed)
        roster = [
            codec.encode(Alive(1, f"m{i:03d}", f"127.0.0.1:{20000 + i}", b"", ""))
            for i in range(1, ROSTER)
        ]
        #: Seeded gossip the pings carry: 4 Alive claims each, about
        #: members the node already holds at that incarnation.
        self._piggyback = [rng.sample(roster, PIGGYBACK) for _ in range(256)]
        self._seq = 0
        self.outstanding: Dict[int, int] = {}
        self.sent = 0
        self.unmatched = 0
        self.failed = 0
        # Per-phase state.
        self._deadline_ns = 0
        self._budget = 0
        self._done: Optional[asyncio.Future] = None
        self.matched = 0
        self.last_matched_ns = 0
        self.rtts_ns: List[int] = []

    def _send(self) -> None:
        self._seq += 1
        seq = self._seq
        packet = codec.pack_with_piggyback(
            Ping(seq, "m000", "bench"), self._piggyback[seq & 255]
        )
        self.outstanding[seq] = perf_counter_ns()
        self._client.send(self._address, packet)
        self.sent += 1
        self._budget -= 1

    def on_datagram(self, data: Any, _source: str, _reliable: bool) -> None:
        try:
            message = codec.decode(data)
        except codec.CodecError:
            self.unmatched += 1
            return
        if message.__class__ is Compound:
            message = message.parts[0]
        sent_ns = (
            self.outstanding.pop(message.seq_no, None)
            if message.__class__ is Ack else None
        )
        if sent_ns is None:
            self.unmatched += 1
            return
        now = perf_counter_ns()
        if now <= self._deadline_ns:
            self.matched += 1
            self.last_matched_ns = now
            self.rtts_ns.append(now - sent_ns)
            if self._budget > 0:
                self._send()
                return
        if not self.outstanding and self._done is not None and not self._done.done():
            self._done.set_result(None)

    async def phase(self, window: int, seconds: float, pings: int) -> tuple:
        """Keep ``window`` pings in flight for ``seconds`` (or until
        ``pings`` were sent); returns the measured ``(start_ns, end_ns)``.
        Pings still unanswered ``DRAIN_S`` past the deadline are failed
        operations."""
        self.matched = 0
        self.rtts_ns = []
        self._budget = pings
        self._done = asyncio.get_running_loop().create_future()
        start = perf_counter_ns()
        self._deadline_ns = start + int(seconds * 1e9)
        for _ in range(min(window, pings)):
            self._send()
        try:
            await asyncio.wait_for(self._done, seconds + DRAIN_S)
        except asyncio.TimeoutError:
            self.failed += len(self.outstanding)
            self.outstanding.clear()
        return start, min(perf_counter_ns(), self._deadline_ns)


@dataclass(frozen=True)
class _UdpShape:
    """How one ``udp_pingack`` session is cut up.

    A session is ``blocks`` blocks. Each block sets up a fresh member
    and client ``setups`` times (every one timed, the last one kept),
    warms it up, runs ``slices`` window-64 slices of ``slice_s`` and
    then ``rtt_pings`` window-1 pings, and closes everything. The run
    reports medians over all slices, round trips and set-ups, each
    scaled to undisturbed seconds by the speed probe's reading over its
    own block. The cut is for the host, not the program: the reference
    box runs at full speed most of the time and 1.6-1.9x slower in
    bursts of seconds to a minute (undisturbed slices repeat within
    +-5%), and the probe only partly predicts what a burst does to this
    syscall-heavy path (it reads 1.45x where the path slows 1.7x, and
    in one process in twenty it reads 1.4x slow throughout while the
    path runs at full speed). One long window corrected as a whole
    spread 15-28% over ten runs; spreading all three measurements over
    the whole run lets the median step over any burst shorter than half
    of it, and the correction takes most of what is left.
    """

    blocks: int
    first_warmup_s: float = 1.0
    warmup_s: float = 0.1
    slices: int = 3
    slice_s: float = 0.25
    rtt_pings: int = 500
    setups: int = 3


async def _udp_session(
    seed: int, backend: str, shape: _UdpShape, speed: SpeedProbe,
    rec: Optional[tracer.Recorder],
) -> Dict[str, Any]:
    # No probe, push-pull or reconnect tick may fire inside the run: the
    # roster is synthetic and a TCP dial to it would be noise.
    config = SwimConfig.lifeguard(
        transport_backend=backend, probe_interval=3600.0,
        push_pull_interval=0.0, reconnect_interval=0.0,
    )

    async def set_up() -> tuple:
        for tries_left in range(BIND_TRIES - 1, -1, -1):
            start = perf_counter_ns()
            member = None
            try:
                member = await UdpMember.create("m000", config, rng=random.Random(seed))
                client = await create_udp_transport(config=config)
                break
            except OSError as exc:
                if member is not None:
                    await member.stop()
                if not (tries_left and _port_taken(exc)):
                    raise
        now = member.node.now()
        for i in range(1, ROSTER):
            member.node.members.add(
                f"m{i:03d}", f"127.0.0.1:{20000 + i}", 1, MemberState.ALIVE, now
            )
        member.start()
        return member, client, (perf_counter_ns() - start) / 1e9

    # Per block; raw wall clock until the block's dilation is known.
    setups: List[float] = []
    round_trip_rates: List[float] = []
    handled_rates: List[float] = []
    # Over the session, in undisturbed seconds; ``raw``: the same in wall.
    all_setups: List[float] = []
    all_round_trip_rates: List[float] = []
    all_handled_rates: List[float] = []
    rtts_us: List[float] = []
    raw: Dict[str, List[float]] = {"setups": [], "rates": [], "rtts_us": []}
    totals = dict.fromkeys(
        ("attempted", "failed", "handled", "send_syscalls", "recv_syscalls",
         "recv_dgrams"), 0,
    )
    rss_after_setup_mb = 0.0
    session_start = perf_counter_ns()
    for block in range(shape.blocks):
        block_start = perf_counter_ns()
        del setups[:], round_trip_rates[:], handled_rates[:]
        for rep in range(shape.setups):
            member, client, seconds = await set_up()
            setups.append(seconds)
            if rep < shape.setups - 1:
                await member.stop()
                await client.close()
        rss_after_setup_mb = rss_after_setup_mb or _rss_mb()
        try:
            pings = _PingClient(client, member.address, seed)
            handler = pings.on_datagram
            if rec is not None:
                # Keep the load generator's own work out of the transport
                # layer's self time.
                handler = rec.wrap(handler, "bench.client", "on_datagram")
            client.bind(handler)

            await pings.phase(
                WINDOW, shape.warmup_s if block else shape.first_warmup_s, 1 << 60
            )
            telemetry = member.node.telemetry
            for _ in range(shape.slices):
                handled = telemetry.msgs_received
                start, _end = await pings.phase(WINDOW, shape.slice_s, 1 << 60)
                # To the last ack counted, not to the deadline: a fixed
                # divisor would quantise the rate.
                elapsed = (pings.last_matched_ns - start) / 1e9
                round_trip_rates.append(pings.matched / elapsed)
                # Pings still in flight at the deadline are handled in
                # the drain after it: one window in ~8,000, left in.
                handled_rates.append((telemetry.msgs_received - handled) / elapsed)
            await pings.phase(1, 30.0, shape.rtt_pings)
            dilation = speed.dilation(block_start, perf_counter_ns())
            all_setups += [seconds / dilation for seconds in setups]
            all_round_trip_rates += [rate * dilation for rate in round_trip_rates]
            all_handled_rates += [rate * dilation for rate in handled_rates]
            rtts_us += [ns / 1e3 / dilation for ns in pings.rtts_ns]
            raw["setups"] += setups
            raw["rates"] += round_trip_rates
            raw["rtts_us"] += [ns / 1e3 for ns in pings.rtts_ns]
            stats = telemetry.transport
            totals["attempted"] += pings.sent
            totals["failed"] += (
                pings.failed + pings.unmatched + shape.rtt_pings - len(pings.rtts_ns)
            )
            totals["handled"] += telemetry.msgs_received
            totals["send_syscalls"] += stats.get("udp_send_syscalls")
            totals["recv_syscalls"] += stats.get("udp_recv_syscalls")
            totals["recv_dgrams"] += sum(
                size * n for (direction, size), n in stats.batches.items()
                if direction == "recv"
            )
        finally:
            await member.stop()
            await client.close()
        # A stopped member is cyclic garbage; left to the collector's
        # own schedule, 48 of them make peak RSS a matter of timing
        # (5% between runs, against 0.7% with one member per rep).
        gc.collect()
    total_s = (perf_counter_ns() - session_start) / 1e9

    rtts_us.sort()
    recv_dgrams = totals.pop("recv_dgrams")
    return {
        **totals,
        "total_s": total_s,
        "dilation": speed.dilation(session_start, perf_counter_ns()),
        "setup_s": statistics.median(all_setups),
        "setup_reps": len(all_setups),
        "drive_s": total_s - sum(raw["setups"]),
        "rss_after_setup_mb": rss_after_setup_mb,
        "ack_round_trips_per_s": statistics.median(all_round_trip_rates),
        "handled_per_s": statistics.median(all_handled_rates),
        "slices": len(all_round_trip_rates),
        "slice_s": shape.slice_s,
        "ack_rtt_p50_us": statistics.median(rtts_us) if rtts_us else 0.0,
        "ack_rtt_p99_us": _percentile(rtts_us, 0.99) if rtts_us else 0.0,
        "ack_rtt_n": len(rtts_us),
        "raw_setup_s": statistics.median(raw["setups"]),
        "raw_ack_round_trips_per_s": statistics.median(raw["rates"]),
        "raw_ack_rtt_p50_us": statistics.median(raw["rtts_us"]) if rtts_us else 0.0,
        "avg_recv_batch": (
            recv_dgrams / totals["recv_syscalls"] if totals["recv_syscalls"] else 0.0
        ),
    }


def _run_loop(coroutine: Any) -> Any:
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


def udp_pingack(rep: Rep, phases: Phases) -> Dict[str, Any]:
    seed, smoke = rep.seed, rep.smoke
    # ~0.95 s a block: the session measures for about 1.6 x --seconds.
    shape = (
        _UdpShape(blocks=2, first_warmup_s=0.2, slice_s=0.1, rtt_pings=100)
        if smoke else _UdpShape(blocks=max(2, round(1.6 * rep.seconds)))
    )
    hygiene = Hygiene()
    session = _run_loop(
        _udp_session(seed, "batched", shape, phases.speed, phases.recorder)
    )
    leaks = hygiene.leaks()
    report = phases.report()  # no clusters here: the trace, if any
    del report["rtts"]
    report.update(
        setup_s=session["setup_s"], rss_after_setup_mb=session["rss_after_setup_mb"]
    )
    # total_s: the first set-up to everything closed. On the real path
    # an "event" is a datagram the node handled.
    out: Dict[str, Any] = {
        "e2e": {
            "setup_s": session["setup_s"],
            "total_s": session["total_s"],
            "events_per_s": session["handled_per_s"],
            "peak_rss_mb": _rss_mb(),
            "ack_round_trips_per_s": session["ack_round_trips_per_s"],
            "ack_rtt_p50_us": session["ack_rtt_p50_us"],
        },
        "info": session,
        # Nothing on the real path repeats exactly; the operation count
        # is the check (every ping answered by a matching Ack).
        "fingerprint": {},
        "ops": {"attempted": session["attempted"], "failed": session["failed"]},
        "reports": [report],
        "leaks": leaks,
    }
    if rep.extras:
        # Untraced context for the traced numbers: the no-protocol
        # ceiling, and the same loop on the stock asyncio datagram path.
        for tries_left in range(BIND_TRIES - 1, -1, -1):
            try:
                echo = run_packet_bench(
                    "batched", duration=0.3 if smoke else 1.0, payload_size=64,
                    isolate=False,
                )
                break
            except OSError as exc:
                if not (tries_left and _port_taken(exc)):
                    raise
        stock = _run_loop(
            _udp_session(
                seed, "asyncio",
                replace(shape, blocks=min(3, shape.blocks), rtt_pings=1, setups=1),
                phases.speed, None,
            )
        )
        out["info"]["echo_msgs_per_s"] = echo["msgs_per_sec"]
        out["info"]["asyncio_ack_rt_per_s"] = stock["ack_round_trips_per_s"]
    return out


# --------------------------------------------------------------------- #
# Child entry
# --------------------------------------------------------------------- #

BODIES: Dict[str, Callable[..., Dict[str, Any]]] = {
    "flat1024_steady": flat1024_steady,
    "paper128_experiments": paper128_experiments,
    "zoned4096_inproc": zoned4096_inproc,
    "zoned4096_shards2": zoned4096_shards2,
    "udp_pingack": udp_pingack,
    REFERENCE: ref_threshold128,
}


def run_child(
    workload: str,
    seed: int,
    traced: bool = False,
    smoke: bool = False,
    seconds: float = 10.0,
    extras: bool = False,
    dump_spans: Optional[str] = None,
) -> Dict[str, Any]:
    """One rep of one workload in this process; never raises."""
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    recorder = tracer.Recorder(keep_spans=dump_spans is not None) if traced else None
    phases = Phases(work_dir, recorder)
    patcher = tracer.Patcher()
    result: Dict[str, Any] = {"workload": workload, "seed": seed, "traced": traced}
    try:
        install_phases(phases, patcher)
        if recorder is not None:
            tracer.install(recorder, patcher)
        phases.speed.start()
        result.update(BODIES[workload](Rep(seed, smoke, seconds, extras), phases))
        if recorder is not None:
            result["attributed_s"] = recorder.attributed_ns / 1e9
            if dump_spans is not None:
                result["spans_dumped"] = recorder.dump_spans(dump_spans)
    except Exception as exc:  # the rep is a failed operation, reported upward
        import traceback

        result["error"] = f"{type(exc).__name__}: {exc}"
        result["traceback"] = traceback.format_exc()
    finally:
        phases.speed.stop()
        patcher.restore()
        shutil.rmtree(work_dir, ignore_errors=True)
    return result
