"""Parent side: run reps in fresh subprocesses, check them, build the ledger.

One process at a time. An end-to-end measurement is ``reps`` untraced
children; a trace is one untraced base (unless the caller already has
one) plus two traced children. Every check the issue lists lives here:
a failed check is a failed operation, and any failed operation makes
the command exit non-zero.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.perf import names, tracer
from benchmarks.perf.workloads import REFERENCE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Whole reps per 10 s of the driver's ``--seconds``. The simulator
#: reps are fixed in size (the sizes are part of the workload names), so
#: the budget buys repetitions, not length, and the run reports the
#: median over them; it goes where the reference box is noisiest (the
#: memory-heavy flat drive phase, two processes on two contended cores).
#: ``udp_pingack`` is time-based: one rep of about 1.6 x seconds.
REPS_PER_10_S = {
    "flat1024_steady": 3,
    "paper128_experiments": 1,
    "zoned4096_inproc": 1,
    "zoned4096_shards2": 3,
    "udp_pingack": 1,
}

#: Workloads with no failure detection of their own take these metrics
#: from the reference threshold run of the same seed.
FROM_REFERENCE = {
    "flat1024_steady": ("detect_first_p50_vs",),
    "zoned4096_inproc": ("detect_first_p50_vs",),
    "zoned4096_shards2": ("detect_first_p50_vs",),
    "udp_pingack": ("detect_first_p50_vs", "msgs_per_member_per_vs"),
}

SIM_WORKLOADS = frozenset(names.WORKLOAD_NAMES) - {"udp_pingack"}
CHILD_TIMEOUT_S = 170.0


def reps_for(workload: str, seconds: float) -> int:
    return max(1, round(REPS_PER_10_S[workload] * seconds / 10.0))


def spawn(
    workload: str,
    seed: int,
    traced: bool = False,
    smoke: bool = False,
    seconds: float = 10.0,
    extras: bool = False,
    dump_spans: Optional[str] = None,
) -> Dict[str, Any]:
    """One rep in a fresh interpreter; its parsed result, never raises."""
    command = [
        sys.executable, str(HERE / "run.py"), "child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if traced else "0",
    ]
    if smoke:
        command.append("--smoke")
    if extras:
        command.append("--extras")
    if dump_spans is not None:
        command += ["--dump-spans", dump_spans]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"workload": workload, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"workload": workload, "error": f"exit {proc.returncode}: {tail}"}
    if proc.returncode != 0 and "error" not in result:
        result["error"] = f"exit {proc.returncode}"
    return result


def _ops(rep: Dict[str, Any]) -> Dict[str, int]:
    """Operations a rep attempted: itself, unless it counts its own
    (``udp_pingack``: one per ping)."""
    return rep.get("ops", {"attempted": 1, "failed": 0})


def _entries(rep: Dict[str, Any]) -> List[Dict[str, Any]]:
    """A traced rep's span totals, master and forked workers summed."""
    return tracer.merge_entries(
        [r["trace"]["entries"] for r in rep["reports"] if "trace" in r]
    )


def _problems(rep: Dict[str, Any]) -> List[str]:
    found = [rep["error"]] if "error" in rep else []
    found += rep.get("leaks", [])
    return found


def measure(
    workload: str,
    seed: int,
    reps: int,
    smoke: bool = False,
    seconds: float = 10.0,
    inproc_digest: Optional[str] = None,
) -> Dict[str, Any]:
    """End-to-end numbers of one workload: ``reps`` untraced children."""
    results = [
        spawn(workload, seed, smoke=smoke, seconds=seconds) for _ in range(reps)
    ]
    failures: List[str] = []
    attempted = failed = 0
    for index, rep in enumerate(results):
        problems = _problems(rep)
        if "error" not in rep and rep["fingerprint"] != results[0].get("fingerprint"):
            problems.append(
                f"result differs from rep 0 of seed {seed}: "
                f"{rep['fingerprint']} != {results[0].get('fingerprint')}"
            )
        ops = _ops(rep)
        attempted += ops["attempted"]
        # Per-ping failures are already counted; a broken rep is one more.
        failed += ops["failed"] + (1 if problems else 0)
        failures += [f"rep {index}: {p}" for p in problems]

    good = [rep for rep in results if "error" not in rep]
    values: Dict[str, List[float]] = {
        metric: [rep["e2e"][metric] for rep in good if metric in rep["e2e"]]
        for metric in names.END_TO_END_NAMES
    }

    reference: Optional[Dict[str, Any]] = None
    if workload in FROM_REFERENCE:
        reference = spawn(REFERENCE, seed, smoke=smoke)
        attempted += 1
        problems = _problems(reference)
        if problems:
            failed += 1
            failures += [f"{REFERENCE}: {p}" for p in problems]
        else:
            for metric in FROM_REFERENCE[workload]:
                values[metric] = [reference["e2e"][metric]] * len(good)

    digest = good[0]["fingerprint"].get("digest") if good else None
    if workload == "zoned4096_shards2" and digest is not None:
        attempted += 1
        if inproc_digest is None:
            inproc = spawn("zoned4096_inproc", seed, smoke=smoke)
            problems = _problems(inproc)
            if problems:
                failures += [f"zoned4096_inproc reference: {p}" for p in problems]
            else:
                inproc_digest = inproc["fingerprint"]["digest"]
        if digest != inproc_digest:
            failed += 1
            failures.append(
                f"digest {digest} != zoned4096_inproc digest {inproc_digest}"
            )

    return {
        "workload": workload,
        "seed": seed,
        "reps": reps,
        "values": values,
        "median": {
            metric: statistics.median(series)
            for metric, series in values.items() if series
        },
        "info": [rep.get("info", {}) for rep in good],
        "fingerprint": good[0]["fingerprint"] if good else None,
        "reference": None if reference is None else reference.get("info"),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


# --------------------------------------------------------------------- #
# The traced run
# --------------------------------------------------------------------- #


def wall_s(rep: Dict[str, Any]) -> float:
    """Raw wall of a rep's measured region. Span times are raw wall, so
    shares and the unattributed remainder are taken against this, not
    against the speed-corrected ``total_s``."""
    return rep["info"].get("total_wall_s", rep["e2e"]["total_s"])


def overhead_ratio(traced: Dict[str, Any], base: Dict[str, Any]) -> float:
    """Traced over untraced cost of the same work: total seconds on the
    simulator workloads; on the time-boxed real path, untraced over
    traced round trips per second."""
    if traced["workload"] == "udp_pingack":
        return (
            base["e2e"]["ack_round_trips_per_s"]
            / traced["e2e"]["ack_round_trips_per_s"]
        )
    return traced["e2e"]["total_s"] / base["e2e"]["total_s"]


def ledger(
    rep: Dict[str, Any], base: Dict[str, Any], inproc_total_s: Optional[float]
) -> Dict[str, float]:
    """Every per-layer metric of one traced rep, by contract name.

    ``base`` is an untraced rep of the same seed (the overhead ratio's
    denominator and the source of the untraced transport context).
    Metrics of layers the workload does not reach are 0.
    """
    reports = rep["reports"]
    traces = [r["trace"] for r in reports if "trace" in r]
    entries = _entries(rep)
    layers = tracer.by_layer(entries)
    calls = {(row["layer"], row["name"]): row["calls"] for row in entries}
    counters: Dict[str, int] = {}
    for trace in traces:
        for key, amount in trace["counters"].items():
            counters[key] = counters.get(key, 0) + amount
    info = rep["info"]
    sim = [r["sim"] for r in reports if "sim" in r]

    def n(layer: str, *entry_names: str) -> int:
        return sum(calls.get((layer, name), 0) for name in entry_names)

    out: Dict[str, float] = {}
    for layer in tracer.LAYERS:
        seen = layers.get(layer, {"calls": 0, "self_s": 0.0})
        out[f"{layer}.calls"] = seen["calls"]
        out[f"{layer}.self_s"] = seen["self_s"]
    out.update({
        "sim.runtime.drive_s": info["drive_s"],
        "sim.runtime.rss_after_setup_mb": max(
            r["rss_after_setup_mb"] for r in reports
        ),
        "sim.scheduler.executed": info.get("events", 0),
        "sim.scheduler.pushes": n("sim.scheduler", "EventScheduler.call_at"),
        "sim.scheduler.cancels": n("sim.scheduler", "TimerHandle.cancel"),
        "sim.network.deliveries": sum(s["deliveries"] for s in sim),
        "sim.network.drops": sum(s["drops"] for s in sim),
        "sim.anomaly.queued": counters.get("sim.anomaly.queued", 0),
        "swim.node.packets_handled": n("swim.node", "SwimNode.handle_packet"),
        "swim.node.timer_callbacks": n("swim.node", "timer_callback"),
        "swim.node.fp_events": info.get("fp_events", 0),
        "swim.node.fp_healthy_events": info.get("fp_healthy_events", 0),
        "swim.member_map.adds": n("swim.member_map", "MemberMap.add"),
        "swim.member_map.wire_merges": n(
            "swim.member_map", "MemberMap.merge_remote_wire_state"
        ),
        "swim.member_map.snapshots": n("swim.member_map", "MemberMap.snapshot"),
        "swim.codec.encode_calls": n("swim.codec", "encode", "encode_into"),
        "swim.codec.decode_calls": n("swim.codec", "decode"),
        "swim.codec.encode_bytes": counters.get("swim.codec.encode_bytes", 0),
        "swim.codec.decode_bytes": counters.get("swim.codec.decode_bytes", 0),
        "swim.codec.pushpull_bytes": counters.get("swim.codec.pushpull_bytes", 0),
        "swim.broadcast.enqueues": n("swim.broadcast", "BroadcastQueue.enqueue"),
        "swim.broadcast.payload_selects": n(
            "swim.broadcast", "BroadcastQueue.get_payloads"
        ),
        "sync.engine.exchanges": n("sync.engine", "SyncEngine.handle_push_pull"),
        "sync.engine.entries_merged": sum(s["entries_merged"] for s in sim),
        "core.suspicion.confirms": n("core.suspicion", "Suspicion.confirm"),
        "core.lhm.notes": n(
            "core.lhm", "LocalHealthMultiplier.note", "LocalHealthMultiplier.note_all"
        ),
        "zones.cluster.barriers": info.get("barriers", 0),
        "zones.cluster.barrier_exchange_s": info.get("barrier_exchange_s", 0.0),
        "zones.frames.barrier_bytes": info.get("barrier_bytes", 0),
        "zones.frames.barrier_msgs": info.get("barrier_msgs", 0),
        "zones.sharded.overflows": info.get("barrier_overflows", 0),
        # Untraced in-process total over untraced 2-shard total.
        "zones.sharded.speedup": (
            inproc_total_s / base["e2e"]["total_s"] if inproc_total_s else 0.0
        ),
        "transport.fastudp.send_syscalls": info.get("send_syscalls", 0),
        "transport.fastudp.recv_syscalls": info.get("recv_syscalls", 0),
        "transport.fastudp.avg_recv_batch": info.get("avg_recv_batch", 0.0),
        "transport.fastudp.echo_msgs_per_s": base["info"].get("echo_msgs_per_s", 0.0),
        "transport.udp.asyncio_ack_rt_per_s": base["info"].get(
            "asyncio_ack_rt_per_s", 0.0
        ),
        "trace.overhead_ratio": overhead_ratio(rep, base),
        # Raw wall of the traced (master) process outside every span
        # (span times are raw wall too; see wall_s()).
        "trace.unattributed_s": wall_s(rep) - rep["attributed_s"],
    })
    if set(out) != set(names.PER_LAYER_NAMES):
        raise RuntimeError("ledger and names.PER_LAYER disagree")
    return out


def trace(
    workload: str,
    seed: int,
    smoke: bool = False,
    seconds: float = 10.0,
    base: Optional[Dict[str, Any]] = None,
    inproc_total_s: Optional[float] = None,
    dump_spans: Optional[str] = None,
) -> Dict[str, Any]:
    """Per-layer numbers of one workload: two traced children, compared
    with each other and with an untraced ``base`` rep of the same seed
    (run here unless the caller supplies one)."""
    failures: List[str] = []
    if base is None:
        base = spawn(workload, seed, smoke=smoke, seconds=seconds, extras=True)
        failures += [f"untraced base: {p}" for p in _problems(base)]
    if workload != "zoned4096_shards2":
        inproc_total_s = None
    elif inproc_total_s is None:
        inproc = spawn("zoned4096_inproc", seed, smoke=smoke)
        failures += [f"zoned4096_inproc base: {p}" for p in _problems(inproc)]
        inproc_total_s = inproc.get("e2e", {}).get("total_s")
    traced = [
        spawn(workload, seed, traced=True, smoke=smoke, seconds=seconds,
              dump_spans=dump_spans if index == 0 else None)
        for index in range(2)
    ]
    for index, rep in enumerate(traced):
        failures += [f"traced rep {index}: {p}" for p in _problems(rep)]
    if failures:
        return {"workload": workload, "seed": seed, "metrics": None, "entries": [],
                "attempted": 3, "failed": 3, "failures": failures}

    ledgers = [ledger(rep, base, inproc_total_s) for rep in traced]
    if workload in SIM_WORKLOADS:
        # Tracing must not perturb the simulation, and must itself repeat.
        for index, rep in enumerate(traced):
            if rep["fingerprint"] != base["fingerprint"]:
                failures.append(
                    f"traced rep {index} result {rep['fingerprint']} != "
                    f"untraced {base['fingerprint']}"
                )
            for metric in names.DETERMINISTIC:
                # (Absent where the value comes from the reference run.)
                if metric in rep["e2e"] and rep["e2e"][metric] != base["e2e"].get(metric):
                    failures.append(
                        f"traced rep {index} {metric} {rep['e2e'].get(metric)} != "
                        f"untraced {base['e2e'].get(metric)}"
                    )
        for metric in names.PER_LAYER_NAMES:
            if metric not in names.TIMING_METRICS and (
                ledgers[0][metric] != ledgers[1][metric]
            ):
                failures.append(
                    f"{metric} differs between traced runs: "
                    f"{ledgers[0][metric]} != {ledgers[1][metric]}"
                )
    ops = [_ops(rep) for rep in [base] + traced]
    return {
        "workload": workload,
        "seed": seed,
        "metrics": ledgers[0],
        "entries": _entries(traced[0]),
        "wall_s": wall_s(traced[0]),
        "spans_dumped": traced[0].get("spans_dumped"),
        "attempted": sum(o["attempted"] for o in ops),
        "failed": sum(o["failed"] for o in ops) + len(failures),
        "failures": failures,
    }
