"""Command-line interface to the experiment harness and live clusters.

Run as ``python -m repro`` (or the ``lifeguard-repro`` entry point):

.. code-block:: console

    $ python -m repro threshold --config Lifeguard -c 8 -d 16.384
    $ python -m repro interval  --config SWIM -c 16 -d 8.192 -i 0.001
    $ python -m repro stress    --config Lifeguard --stressed 8
    $ python -m repro compare   -c 8 -d 16.384       # all five configs
    $ python -m repro watch 127.0.0.1:8787           # poll a live node

Each experiment subcommand runs one simulated experiment and prints its
metrics; ``compare`` runs the same experiment under every Table I
configuration. All four accept ``--json`` for machine-readable output in
the shared ops-plane schema (:mod:`repro.ops.schema`). ``watch`` polls a
live member's admin endpoint (see :mod:`repro.ops.http`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import List, Optional

from repro.config import PROBE_SCHEDULER_NAMES, TRANSPORT_BACKEND_NAMES
from repro.harness.configurations import CONFIGURATION_NAMES
from repro.harness.interval import IntervalParams, run_interval
from repro.harness.schedulers import (
    SchedulerComparisonParams,
    run_scheduler_comparison,
)
from repro.harness.stress import StressParams, run_stress
from repro.harness.threshold import ThresholdParams, run_threshold
from repro.metrics.analysis import percentile_summary
from repro.ops.schema import envelope


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        default="Lifeguard",
        choices=CONFIGURATION_NAMES,
        help="Table I configuration to run (default: Lifeguard)",
    )
    parser.add_argument("-n", "--members", type=int, default=128,
                        help="group size (default: 128)")
    parser.add_argument("--alpha", type=float, default=5.0,
                        help="suspicion timeout alpha (default: 5)")
    parser.add_argument("--beta", type=float, default=6.0,
                        help="suspicion timeout beta (default: 6)")
    parser.add_argument("--seed", type=int, default=0,
                        help="simulation seed (default: 0)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")


def _emit_json(kind: str, payload: dict) -> int:
    print(json.dumps(envelope(kind, payload), indent=2, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifeguard-repro",
        description="Run SWIM/Lifeguard experiments in the simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    threshold = sub.add_parser(
        "threshold", help="one synchronized anomaly set; measures latency"
    )
    _add_common(threshold)
    threshold.add_argument("-c", "--concurrent", type=int, default=4,
                           help="concurrent anomalies (default: 4)")
    threshold.add_argument("-d", "--duration", type=float, default=16.384,
                           help="anomaly duration, seconds (default: 16.384)")

    interval = sub.add_parser(
        "interval", help="cyclic anomalies; measures false positives/load"
    )
    _add_common(interval)
    interval.add_argument("-c", "--concurrent", type=int, default=4)
    interval.add_argument("-d", "--duration", type=float, default=8.192)
    interval.add_argument("-i", "--interval", type=float, default=0.001,
                          help="normal interval between anomalies (default: 0.001)")
    interval.add_argument("-t", "--test-time", type=float, default=120.0,
                          help="minimum test time, seconds (default: 120)")

    stress = sub.add_parser(
        "stress", help="CPU-exhaustion scenario (Figure 1)"
    )
    _add_common(stress)
    stress.add_argument("--stressed", type=int, default=4,
                        help="members under CPU stress (default: 4)")
    stress.add_argument("-t", "--stress-time", type=float, default=300.0,
                        help="stress duration, seconds (default: 300)")
    stress.add_argument("--zones", type=int, default=0,
                        help="run on a hierarchical zoned cluster with this "
                             "many zones (default: flat)")
    stress.add_argument("--shards", type=int, default=1,
                        help="worker processes for the zoned driver "
                             "(requires --zones; result is shard-independent)")
    stress.add_argument("--profile", metavar="PSTATS_OUT",
                        help="run under cProfile and write pstats data "
                             "to this path (summary on stderr)")

    compare = sub.add_parser(
        "compare", help="run one Interval experiment under all five configs"
    )
    _add_common(compare)
    compare.add_argument("-c", "--concurrent", type=int, default=8)
    compare.add_argument("-d", "--duration", type=float, default=8.192)
    compare.add_argument("-i", "--interval", type=float, default=0.001)
    compare.add_argument("-t", "--test-time", type=float, default=120.0)

    schedulers = sub.add_parser(
        "schedulers",
        help="compare probe-scheduling strategies (latency + false positives)",
    )
    _add_common(schedulers)
    schedulers.add_argument("-c", "--concurrent", type=int, default=4,
                            help="concurrent anomalies (default: 4)")
    schedulers.add_argument("-d", "--duration", type=float, default=16.384,
                            help="Threshold anomaly duration, seconds "
                                 "(default: 16.384)")
    schedulers.add_argument("-r", "--reps", type=int, default=3,
                            help="paired repetitions per strategy (default: 3)")
    schedulers.add_argument("-t", "--test-time", type=float, default=120.0,
                            help="minimum Interval (false-positive) test "
                                 "time, seconds (default: 120)")
    schedulers.add_argument("--strategies", nargs="+",
                            choices=PROBE_SCHEDULER_NAMES,
                            default=list(PROBE_SCHEDULER_NAMES),
                            help="strategies to compare (default: all)")

    check = sub.add_parser(
        "check",
        help="fuzz the protocol against the invariant oracles (repro.check)",
    )
    check.add_argument("--seeds", type=int, default=100,
                       help="number of generated scenarios to run (default: 100)")
    check.add_argument("--start-seed", type=int, default=0,
                       help="first seed of the sweep (default: 0)")
    check.add_argument("--stride", type=int, default=1,
                       help="check invariants every Nth event (default: 1)")
    check.add_argument("--no-shrink", action="store_true",
                       help="skip counterexample shrinking on failure")
    check.add_argument("--max-shrink", type=int, default=120,
                       help="re-runs allowed per shrink campaign (default: 120)")
    check.add_argument("--max-failures", type=int, default=5,
                       help="stop the sweep after this many failing seeds")
    check.add_argument("--partitions", type=int, default=1,
                       help="split the sweep into N interleaved seed "
                            "partitions, each with its own failure budget "
                            "(default: 1)")
    check.add_argument("--artifact-dir", default=".",
                       help="directory for minimal-repro JSON artifacts")
    check.add_argument("--replay", metavar="FILE",
                       help="re-run a saved artifact/scenario JSON instead "
                            "of sweeping")
    check.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of text")
    check.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep (default: 1; "
                            "results are deterministic regardless)")
    check.add_argument("--zones", type=int, default=0,
                        help="fuzz hierarchical zoned clusters with this "
                             "many zones per scenario (default: flat)")
    check.add_argument("--shards", type=int, default=1,
                        help="with --zones: also self-check that the sharded "
                             "driver reproduces the 1-process trace with "
                             "this many worker processes")
    check.add_argument("--scheduler", choices=PROBE_SCHEDULER_NAMES,
                       help="fuzz with this probe-scheduling strategy on "
                            "every generated scenario (default: round-robin)")
    check.add_argument("--profile", metavar="PSTATS_OUT",
                       help="run under cProfile and write pstats data "
                            "to this path (summary on stderr)")

    packetbench = sub.add_parser(
        "packetbench",
        help="loopback UDP echo throughput for a transport backend "
             "(repro.transport.fastudp)",
    )
    packetbench.add_argument("--backend", default="asyncio",
                             choices=TRANSPORT_BACKEND_NAMES,
                             help="datagram backend to measure "
                                  "(default: asyncio)")
    packetbench.add_argument("--duration", type=float, default=1.0,
                             help="seconds per repetition (default: 1)")
    packetbench.add_argument("--payload-size", type=int, default=64,
                             help="datagram payload bytes (default: 64)")
    packetbench.add_argument("--batch-size", type=int, default=32,
                             help="max datagrams per syscall on the batched "
                                  "backend (default: 32)")
    packetbench.add_argument("--window", type=int, default=256,
                             help="packets kept in flight (default: 256)")
    packetbench.add_argument("-r", "--reps", type=int, default=3,
                             help="repetitions; best throughput is reported "
                                  "(default: 3)")
    packetbench.add_argument("--in-process", action="store_true",
                             help="run reps inside this process instead of "
                                  "fresh subprocesses (faster, but the "
                                  "asyncio baseline then depends on this "
                                  "process's allocator history)")
    packetbench.add_argument("--json", action="store_true",
                             help="emit machine-readable JSON instead of text")

    member = sub.add_parser(
        "member",
        help="run one real UDP member process (spawned by repro soak)",
    )
    from repro.soak.member_main import add_arguments as add_member_arguments

    add_member_arguments(member)

    soak = sub.add_parser(
        "soak",
        help="chaos-soak a real local cluster against a JSON schedule "
             "(repro.soak; see docs/SOAK.md)",
    )
    soak.add_argument("-n", "--members", type=int, default=12,
                      help="member processes to launch (default: 12)")
    soak.add_argument("--schedule", required=True, metavar="FILE",
                      help="fault schedule JSON (repro-fault-schedule/v1; "
                           "crash/block/loss/partition)")
    soak.add_argument("--duration", type=float, default=60.0,
                      help="soak seconds after the chaos epoch "
                           "(default: 60)")
    soak.add_argument("--report", metavar="DIR", default="",
                      help="run/report directory (default: soak-runs/<ts>)")
    soak.add_argument("--probe-interval", type=float, default=0.5,
                      help="base probe interval, seconds (default: 0.5)")
    soak.add_argument("--alpha", type=float, default=5.0,
                      help="suspicion alpha (default: 5)")
    soak.add_argument("--beta", type=float, default=6.0,
                      help="suspicion beta (default: 6)")
    soak.add_argument("--seed", type=int, default=0,
                      help="seed for member RNGs and the paired sim run")
    soak.add_argument("--host", default="127.0.0.1",
                      help="interface members bind to (default: 127.0.0.1)")
    soak.add_argument("--stagger", type=float, default=0.1,
                      help="delay between member spawns, seconds "
                           "(default: 0.1)")
    soak.add_argument("--converge-timeout", type=float, default=60.0,
                      help="seconds to wait for full membership before "
                           "aborting (default: 60)")
    soak.add_argument("--no-sim-compare", action="store_true",
                      help="skip the paired simulator run")
    soak.add_argument("--gate", action="store_true",
                      help="exit 1 unless the run has zero healthy-phase "
                           "false positives and every kill was detected")
    soak.add_argument("--json", action="store_true",
                      help="emit the report JSON on stdout")

    watch = sub.add_parser(
        "watch", help="poll a live node's admin endpoint (repro.ops)"
    )
    watch.add_argument("address", help="host:port of the node's admin API")
    watch.add_argument("--interval", type=float, default=2.0,
                       help="seconds between polls (default: 2)")
    watch.add_argument("--once", action="store_true",
                       help="poll a single time and exit")
    watch.add_argument("--timeout", type=float, default=3.0,
                       help="per-request timeout, seconds (default: 3)")
    watch.add_argument("--json", action="store_true",
                       help="print the raw /info JSON instead of a summary")
    return parser


def _cmd_threshold(args: argparse.Namespace) -> int:
    result = run_threshold(
        ThresholdParams(
            configuration=args.config,
            n_members=args.members,
            concurrent=args.concurrent,
            duration=args.duration,
            alpha=args.alpha,
            beta=args.beta,
            seed=args.seed,
        )
    )
    if args.json:
        return _emit_json("threshold-result", result.as_dict())
    print(f"configuration : {args.config} (alpha={args.alpha}, beta={args.beta})")
    print(f"anomalous     : {', '.join(sorted(result.anomalous))}")
    first = percentile_summary(result.first_detection)
    full = percentile_summary(result.full_dissemination)

    def fmt(stats):
        return " / ".join(
            f"{p:g}%={v:.2f}s" if v is not None else f"{p:g}%=n/a"
            for p, v in stats.items()
        )

    print(f"first detect  : {fmt(first)}")
    print(f"full dissem   : {fmt(full)}")
    print(f"undetected    : {len(result.latencies.undetected)}")
    print(f"recovered     : {result.recovered}"
          + (f" after {result.recovery_time:.1f}s" if result.recovery_time else ""))
    return 0


def _cmd_interval(args: argparse.Namespace) -> int:
    result = run_interval(
        IntervalParams(
            configuration=args.config,
            n_members=args.members,
            concurrent=args.concurrent,
            duration=args.duration,
            interval=args.interval,
            alpha=args.alpha,
            beta=args.beta,
            min_test_time=args.test_time,
            seed=args.seed,
        )
    )
    if args.json:
        return _emit_json("interval-result", result.as_dict())
    print(f"configuration : {args.config} (alpha={args.alpha}, beta={args.beta})")
    print(f"test time     : {result.test_time:.1f}s")
    print(f"FP events     : {result.fp_events}")
    print(f"FP- events    : {result.fp_healthy_events}")
    print(f"messages sent : {result.msgs_sent}")
    print(f"bytes sent    : {result.bytes_sent}")
    return 0


def _cmd_stress(args: argparse.Namespace) -> int:
    if args.shards > 1 and not args.zones:
        print("--shards requires --zones", file=sys.stderr)
        return 2
    result = run_stress(
        StressParams(
            configuration=args.config,
            n_members=args.members if args.members != 128 else 100,
            n_stressed=args.stressed,
            stress_duration=args.stress_time,
            alpha=args.alpha,
            beta=args.beta,
            seed=args.seed,
            zones=args.zones,
            shards=args.shards,
        )
    )
    if args.json:
        return _emit_json("stress-result", result.as_dict())
    print(f"configuration : {args.config}")
    if args.zones:
        print(f"zones         : {args.zones} ({args.shards} shard(s))")
    print(f"stressed      : {', '.join(sorted(result.stressed))}")
    print(f"total FP      : {result.total_false_positives}")
    print(f"FP at healthy : {result.false_positives_at_healthy}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    results = []
    for configuration in CONFIGURATION_NAMES:
        results.append(
            run_interval(
                IntervalParams(
                    configuration=configuration,
                    n_members=args.members,
                    concurrent=args.concurrent,
                    duration=args.duration,
                    interval=args.interval,
                    alpha=args.alpha,
                    beta=args.beta,
                    min_test_time=args.test_time,
                    seed=args.seed,
                )
            )
        )
    if args.json:
        return _emit_json(
            "compare-result",
            {"results": [result.as_dict() for result in results]},
        )
    print(
        f"Interval experiment: n={args.members} C={args.concurrent} "
        f"D={args.duration}s I={args.interval}s T>={args.test_time}s "
        f"(alpha={args.alpha}, beta={args.beta})"
    )
    print(f"{'configuration':15s} {'FP':>7s} {'FP-':>6s} {'msgs':>9s} {'MiB':>8s}")
    for configuration, result in zip(CONFIGURATION_NAMES, results):
        print(
            f"{configuration:15s} {result.fp_events:7d} "
            f"{result.fp_healthy_events:6d} {result.msgs_sent:9d} "
            f"{result.bytes_sent / 2**20:8.2f}"
        )
    return 0


def _cmd_schedulers(args: argparse.Namespace) -> int:
    result = run_scheduler_comparison(
        SchedulerComparisonParams(
            configuration=args.config,
            n_members=args.members,
            concurrent=args.concurrent,
            duration=args.duration,
            fp_test_time=args.test_time,
            alpha=args.alpha,
            beta=args.beta,
            reps=args.reps,
            seed=args.seed,
            schedulers=tuple(args.strategies),
        )
    )
    if args.json:
        return _emit_json("scheduler-comparison", result.as_dict())
    print(
        f"Strategy comparison: {args.config} n={args.members} "
        f"C={args.concurrent} D={args.duration}s reps={args.reps} "
        f"(alpha={args.alpha}, beta={args.beta})"
    )
    print(
        f"{'strategy':12s} {'detect p50':>11s} {'p99':>8s} {'undet':>6s} "
        f"{'FP':>5s} {'FP-':>5s} {'msgs':>9s}"
    )
    for outcome in result.outcomes:
        summary = outcome.detection_summary

        def fmt(value):
            return f"{value:.2f}s" if value is not None else "n/a"

        print(
            f"{outcome.strategy:12s} {fmt(summary.get(50.0)):>11s} "
            f"{fmt(summary.get(99.0)):>8s} {outcome.undetected:6d} "
            f"{outcome.fp_events:5d} {outcome.fp_healthy_events:5d} "
            f"{outcome.msgs_sent:9d}"
        )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import os

    from repro.check.runner import (
        replay_file,
        run_partitioned_sweep,
        write_artifact,
    )
    from repro.ops.registry import MetricsRegistry

    if args.replay:
        result = replay_file(args.replay, stride=args.stride)
        if args.json:
            _emit_json("check-replay", result.as_dict())
        else:
            verdict = "clean" if result.ok else "VIOLATED"
            print(
                f"replay {args.replay}: {verdict} "
                f"({result.events} events, {result.sim_time:.0f}s simulated)"
            )
            for violation in result.violations:
                print(f"  {violation}")
        return 0 if result.ok else 1

    if args.shards > 1 and not args.zones:
        print("--shards requires --zones", file=sys.stderr)
        return 2

    params = None
    if args.scheduler or args.zones:
        from repro.check.scenarios import GeneratorParams

        overrides = {}
        if args.scheduler:
            overrides["schedulers"] = (args.scheduler,)
        if args.zones:
            overrides["zone_counts"] = (args.zones,)
        params = GeneratorParams(**overrides)

    if args.zones and args.shards > 1:
        # Pre-sweep self-check: the sharded driver must replay the
        # 1-process trace bit-for-bit before we trust it with anything.
        from repro.zones.sharded import run_zoned

        single = run_zoned(
            16 * args.zones, seed=args.start_seed,
            zone_count=args.zones, duration=30.0, shards=1,
        )
        sharded = run_zoned(
            16 * args.zones, seed=args.start_seed,
            zone_count=args.zones, duration=30.0, shards=args.shards,
        )
        if single.digest != sharded.digest:
            print(
                "shard equivalence FAILED: 1-process digest "
                f"{single.digest[:16]}... != {sharded.shards}-shard digest "
                f"{sharded.digest[:16]}...",
                file=sys.stderr,
            )
            return 1
        if not args.json:
            print(
                f"shard equivalence ok ({sharded.shards} shards, "
                f"digest {single.digest[:16]}...)"
            )

    registry = MetricsRegistry()
    progress = None
    if not args.json:
        def progress(seed: int, result) -> None:
            mark = "." if result.ok else "X"
            print(mark, end="", flush=True)

    sweep = run_partitioned_sweep(
        args.seeds,
        args.partitions,
        params=params,
        start_seed=args.start_seed,
        stride=args.stride,
        shrink=not args.no_shrink,
        max_shrink_runs=args.max_shrink,
        max_failures=args.max_failures,
        registry=registry,
        on_seed=progress,
        jobs=args.jobs,
    )
    artifacts = []
    if sweep.failures:
        os.makedirs(args.artifact_dir, exist_ok=True)
    for failure in sweep.failures:
        path = os.path.join(
            args.artifact_dir, f"repro-check-seed{failure.seed}.json"
        )
        write_artifact(path, failure.artifact)
        artifacts.append(path)
    # Exit status is the conjunction across *all* partitions — a failure
    # in any partition must fail the command, not just one in the last.
    if args.json:
        payload = sweep.as_dict()
        payload["artifacts"] = artifacts
        _emit_json("check-sweep", payload)
        return 0 if sweep.ok else 1
    print()
    for index, partition in enumerate(sweep.partitions):
        prefix = f"partition {index}: " if args.partitions > 1 else ""
        print(
            f"{prefix}{partition.seeds_run} seeds, "
            f"{partition.seeds_failed} failed, "
            f"{partition.violations} violations, {partition.events} events, "
            f"{partition.wall_time:.1f}s"
        )
    for failure, path in zip(sweep.failures, artifacts):
        spec = (
            failure.shrunk.minimal
            if failure.shrunk is not None
            else failure.result.spec
        )
        print(
            f"seed {failure.seed}: {len(failure.result.violations)} "
            f"violation(s), shrunk to {len(spec.faults)} fault(s) "
            f"/ {spec.n_members} members -> {path}"
        )
        for violation in (
            failure.shrunk.violations
            if failure.shrunk is not None
            else failure.result.violations
        )[:3]:
            print(f"  {violation}")
    return 0 if sweep.ok else 1


def _fetch_json(url: str, timeout: float) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _render_watch(info: dict) -> str:
    lhm = info["lhm"]
    probe = info["probe"]
    members = info["members"]
    by_state = members.get("by_state", {})
    states = ", ".join(f"{state}={count}" for state, count in sorted(by_state.items()))
    health = "healthy" if lhm["healthy"] else (
        "saturated" if lhm["saturated"] else "degrading"
    )
    return (
        f"{info['name']} @ {info['address']}  inc={info['incarnation']}  "
        f"lhm={lhm['score']}/{lhm['max']} ({health})  "
        f"probe={probe['interval']:.2f}s/{probe['timeout']:.2f}s  "
        f"members: {states}  suspicions={info['suspicions']}"
    )


def _cmd_watch(args: argparse.Namespace) -> int:
    base = f"http://{args.address}"
    while True:
        try:
            info = _fetch_json(base + "/info", args.timeout)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"watch: cannot reach {base}/info: {exc}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(info, indent=2, sort_keys=True))
        else:
            print(_render_watch(info))
        if args.once:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0


def _cmd_packetbench(args: argparse.Namespace) -> int:
    from repro.harness.packetbench import run_packet_bench

    try:
        result = run_packet_bench(
            backend=args.backend,
            duration=args.duration,
            payload_size=args.payload_size,
            batch_size=args.batch_size,
            window=args.window,
            reps=args.reps,
            isolate=not args.in_process,
        )
    except RuntimeError as exc:  # e.g. an isolated rep's subprocess failed
        print(f"packetbench: {exc}", file=sys.stderr)
        return 1
    if args.json:
        return _emit_json("packetbench", result)
    print(
        f"backend={result['backend']}  "
        f"msgs/s={result['msgs_per_sec']:,.0f}  "
        f"round_trips={result['round_trips']}  loss={result['loss']}  "
        f"elapsed={result['elapsed']:.2f}s"
    )
    print(
        f"  syscalls: send={result['client_send_syscalls']} "
        f"(avg batch {result['avg_send_batch']:.1f})  "
        f"recv={result['client_recv_syscalls']} "
        f"(avg batch {result['avg_recv_batch']:.1f})  "
        f"mmsg={'yes' if result['uses_mmsg'] else 'no'}"
    )
    return 0


def _cmd_member(args: argparse.Namespace) -> int:
    from repro.soak.member_main import run

    return run(args)


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.soak.runner import SoakParams, run_soak
    from repro.faults import FaultSchedule

    try:
        schedule = FaultSchedule.load(args.schedule)
    except (OSError, ValueError, KeyError) as exc:
        print(f"soak: cannot load schedule {args.schedule}: {exc}",
              file=sys.stderr)
        return 2
    try:
        params = SoakParams(
            members=args.members,
            schedule=schedule,
            duration=args.duration,
            run_dir=args.report,
            host=args.host,
            probe_interval=args.probe_interval,
            alpha=args.alpha,
            beta=args.beta,
            seed=args.seed,
            stagger=args.stagger,
            converge_timeout=args.converge_timeout,
            sim_compare=not args.no_sim_compare,
        )
    except ValueError as exc:
        print(f"soak: {exc}", file=sys.stderr)
        return 2

    def log(message: str) -> None:
        if not args.json:
            print(f"soak: {message}", flush=True)

    try:
        result = run_soak(params, log=log)
    except RuntimeError as exc:
        print(f"soak: {exc}", file=sys.stderr)
        return 1
    analysis = result.analysis
    if args.json:
        with open(result.report_json, "r", encoding="utf-8") as handle:
            print(handle.read(), end="")
    else:
        gate = analysis.gate()
        def fmt(value):
            return f"{value:.2f}s" if value is not None else "n/a"
        print(f"soak: {params.members} members, "
              f"{len(analysis.kills)} kill(s), "
              f"convergence {fmt(analysis.convergence_time)}")
        print(f"soak: first-detection median "
              f"{fmt(analysis.detection_median())}, dissemination median "
              f"{fmt(analysis.dissemination_median())}")
        print(f"soak: false positives {analysis.fp_total} "
              f"({analysis.fp_healthy} healthy-phase), undetected kills "
              f"{len(gate['undetected_kills'])}")
        if result.sim is not None:
            twin = result.sim
            print(f"soak: simulator twin: first-detection median "
                  f"{fmt(twin.detection_median())}, dissemination median "
                  f"{fmt(twin.dissemination_median())}, false positives "
                  f"{twin.fp_total} ({twin.fp_healthy} healthy-phase)")
        print(f"soak: report at {result.report_md}")
        print(f"soak: gate {'PASS' if gate['ok'] else 'FAIL'}")
    if args.gate and not result.gate_ok:
        return 1
    return 0


_COMMANDS = {
    "threshold": _cmd_threshold,
    "interval": _cmd_interval,
    "stress": _cmd_stress,
    "compare": _cmd_compare,
    "schedulers": _cmd_schedulers,
    "check": _cmd_check,
    "packetbench": _cmd_packetbench,
    "member": _cmd_member,
    "soak": _cmd_soak,
    "watch": _cmd_watch,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    profile_out = getattr(args, "profile", None)
    if not profile_out:
        return command(args)
    # Profile-driven optimization workflow (docs/PERFORMANCE.md): run the
    # command under cProfile, persist the raw pstats file for snakeviz /
    # pstats browsing, and print a hot-spot summary to stderr so the
    # command's own stdout (including --json) stays parseable.
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return command(args)
    finally:
        profiler.disable()
        profiler.dump_stats(profile_out)
        print(f"profile written to {profile_out}", file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("tottime").print_stats(15)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
