"""Command line of the repo benchmark.

``python -m benchmarks.perf --seed 1``
    the whole suite: five workloads, ``--reps`` end-to-end reps each (a
    fresh subprocess per rep, one process at a time) plus one traced run
    per workload; prints every metric by name and writes one JSON.

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1``
    one run of one workload, as the benchmark driver calls it; the last
    line of output is the result object.

``python -m benchmarks.perf compare A.json B.json``
    the before/after tool (see :mod:`benchmarks.perf.compare`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.perf import compare, measure, names
from benchmarks.perf.tracer import LAYERS
from benchmarks.perf.workloads import BODIES, run_child

OUT_DIR = measure.HERE / "_out"


def environment(seed: int, reps: int, smoke: bool) -> Dict[str, Any]:
    """What a row in a future trajectory file needs to describe itself."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=measure.ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = os.cpu_count() or 1
    load_1m = os.getloadavg()[0]
    if load_1m > 0.5 * nproc:
        print(
            f"warning: 1-min load average {load_1m:.2f} exceeds 0.5 x {nproc} cores; "
            "timings will be noisy", file=sys.stderr,
        )
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": cpu_model,
        "load_1m": load_1m,
        "seed": seed,
        "reps": reps,
        "smoke": smoke,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# --------------------------------------------------------------------- #
# Printing
# --------------------------------------------------------------------- #


def print_end_to_end(result: Dict[str, Any]) -> None:
    print(f"\n== {result['workload']}  (seed {result['seed']}, end to end, untraced)")
    for metric in names.END_TO_END_NAMES:
        series: List[float] = result["values"].get(metric, [])
        if not series:
            print(f"  {metric:26} -")
            continue
        source = (
            "  <- ref_threshold128"
            if metric in measure.FROM_REFERENCE.get(result["workload"], ()) else ""
        )
        print(
            f"  {metric:26} {statistics.median(series):14.6g} {names.UNITS[metric]:15}"
            f" min {min(series):.6g}  max {max(series):.6g}  n={len(series)}{source}"
        )
    if result["info"]:
        info = result["info"][0]
        context = {
            key: info[key]
            for key in ("virtual_s", "events", "members", "ack_rtt_n",
                        "ack_rtt_p99_us", "detect_n", "undetected")
            if key in info
        }
        print(f"  context (rep 0): {context}")
    print(f"  failed/attempted: {result['failed']}/{result['attempted']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def print_trace(result: Dict[str, Any]) -> None:
    print(f"\n== {result['workload']}  (seed {result['seed']}, traced run)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    metrics = result["metrics"]
    if metrics is None:
        return
    total_s = result["wall_s"]
    print(f"  traced wall {total_s:.3f} s; self time by layer (share of traced wall):")
    shown = sorted(
        (layer for layer in LAYERS if metrics[f"{layer}.calls"]),
        key=lambda layer: -metrics[f"{layer}.self_s"],
    )
    for layer in shown:
        self_s = metrics[f"{layer}.self_s"]
        print(
            f"    {layer:20} self_s {self_s:9.4f} ({self_s / total_s:6.1%})"
            f"  calls {metrics[f'{layer}.calls']:>10}"
        )
    print("  counts and derived:")
    for metric in names.PER_LAYER_NAMES[2 * len(LAYERS):]:
        value = metrics[metric]
        if value:
            shown_value = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
            print(f"    {metric:38} {shown_value} {names.UNITS[metric]}")
    share = metrics["trace.unattributed_s"] / total_s
    if share > 0.10 and result["workload"] in measure.SIM_WORKLOADS:
        print(f"  warning: {share:.1%} of the traced run is outside every span")
    if metrics["trace.overhead_ratio"] > 3.0:
        print("  warning: tracing overhead above 3x; shares are distorted")
    print(f"  failed/attempted: {result['failed']}/{result['attempted']}")


# --------------------------------------------------------------------- #
# Modes
# --------------------------------------------------------------------- #


def run_driver(args: argparse.Namespace) -> int:
    """One run of one workload; last stdout line is the result object."""
    workload = args.workload
    if args.trace:
        result = measure.trace(
            workload, args.seed, smoke=args.smoke, seconds=args.seconds,
            dump_spans=args.dump_spans,
        )
        print_trace(result)
        metrics = result["metrics"]
        name_list: Sequence[str] = names.PER_LAYER_NAMES
    else:
        result = measure.measure(
            workload, args.seed, measure.reps_for(workload, args.seconds),
            smoke=args.smoke, seconds=args.seconds,
        )
        print_end_to_end(result)
        metrics = result["median"]
        name_list = names.END_TO_END_NAMES
    complete = metrics is not None and all(name in metrics for name in name_list)
    correct = complete and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": names.UNITS[name]}
            for name in name_list
        } if complete else {},
    }))
    return 0 if correct else 1


def run_suite(args: argparse.Namespace) -> int:
    env = environment(args.seed, args.reps, args.smoke)
    print(f"environment: {env}")
    selected = args.workloads.split(",") if args.workloads else list(names.WORKLOAD_NAMES)
    document: Dict[str, Any] = {"environment": env, "workloads": {}}
    inproc: Optional[Dict[str, Any]] = None
    failed = 0
    for workload in selected:
        end_to_end = measure.measure(
            workload, args.seed, args.reps, smoke=args.smoke,
            inproc_digest=(inproc["fingerprint"] or {}).get("digest") if inproc else None,
        )
        if workload == "zoned4096_inproc":
            inproc = end_to_end
        print_end_to_end(end_to_end)
        traced = None
        if not args.no_trace:
            # The untraced reps already are the base, except on the real
            # path, where the base run also collects the transport context.
            base = None
            if workload != "udp_pingack" and end_to_end["fingerprint"] is not None:
                base = {
                    "e2e": end_to_end["median"],
                    "fingerprint": end_to_end["fingerprint"],
                    "info": end_to_end["info"][0],
                }
            dump = None
            if args.dump_spans:
                Path(args.dump_spans).mkdir(parents=True, exist_ok=True)
                dump = str(Path(args.dump_spans) / f"{workload}.spans.jsonl")
            traced = measure.trace(
                workload, args.seed, smoke=args.smoke, base=base,
                inproc_total_s=inproc["median"].get("total_s") if inproc else None,
                dump_spans=dump,
            )
            print_trace(traced)
            failed += traced["failed"]
        failed += end_to_end["failed"]
        document["workloads"][workload] = {"end_to_end": end_to_end, "trace": traced}

    out = Path(args.out) if args.out else OUT_DIR / f"perf_{env['git_sha']}_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1))
    print(f"\nwrote {out}")
    print(f"failed operations: {failed}")
    return 1 if failed else 0


def run_child_mode(args: argparse.Namespace) -> int:
    result = run_child(
        args.workload, args.seed, traced=bool(args.trace), smoke=args.smoke,
        seconds=args.seconds, extras=args.extras, dump_spans=args.dump_spans,
    )
    print(json.dumps(result))
    return 1 if "error" in result else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="benchmarks.perf compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare.compare(args.a, args.b)

    child = argv[:1] == ["child"]
    parser = argparse.ArgumentParser(prog="benchmarks.perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(BODIES) if child else names.WORKLOAD_NAMES,
                        help="run this one workload once, driver style")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="driver mode: measuring budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 reports the per-layer metrics")
    parser.add_argument("--reps", type=int, default=5,
                        help="suite mode: end-to-end reps per workload (>= 3 to gate)")
    parser.add_argument("--workloads", help="suite mode: comma-separated subset")
    parser.add_argument("--no-trace", action="store_true",
                        help="suite mode: skip the traced runs")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test sizes (n=64, 2 virtual s, 0.5 s UDP)")
    parser.add_argument("--out", help="suite mode: result JSON path")
    parser.add_argument("--dump-spans", metavar="PATH",
                        help="keep every span of the first traced rep and write "
                        "JSON lines (suite mode: a directory)")
    parser.add_argument("--extras", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv[1:] if child else argv)
    if child:
        return run_child_mode(args)
    if args.workload:
        return run_driver(args)
    return run_suite(args)
