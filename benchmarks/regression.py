"""Benchmark-regression gate: collect pinned metrics, compare to baseline.

Two subcommands, stdlib only (CI runs this between pytest steps):

``collect --sha <sha>``
    Reads the raw JSON the pinned benchmark subset just published under
    ``benchmarks/results/`` (``table5_latency``, ``table6_message_load``,
    ``scale_throughput``, ``probe_strategies``, ``packet_path``,
    ``ops_overhead``), distils the gated metrics and writes
    ``BENCH_<sha>.json``.

``compare --baseline benchmarks/baseline.json --current BENCH_<sha>.json``
    Fails (exit 1) when a *gated* metric regressed by more than the
    threshold (default 15%) over the committed baseline. The gate is
    direction-aware per metric:

    * ``detection_latency_p50`` — median first-detection latency
      (seconds) for SWIM and Lifeguard; higher is worse.
    * ``msgs_per_member_per_sec`` — message load normalized by
      member-seconds, per configuration; higher is worse.
    * ``scheduler_detection_latency_p50`` — median first-detection
      latency (seconds) per probe-scheduling strategy from
      ``bench_probe_strategies``; higher is worse.
    * ``events_per_sec`` — simulator throughput per cluster size from
      ``bench_scale``; **lower** is worse (a drop past the threshold
      fails the build).
    * ``packet_msgs_per_sec`` — loopback echo throughput per transport
      backend from ``bench_packet_path`` (fresh-subprocess reps), plus
      a ``batched_vs_asyncio`` ratio row; **lower** is worse. The ratio
      row is the ISSUE 8 acceptance bar in gate form: the committed
      baseline carries ~5x, so a drop past the threshold fires long
      before the batched path stops being >=3x the stock one.
    * ``sharded_speedup`` — single-process wall over N-shard wall at the
      n=16384 zoned rung from ``scale_sharded``; **lower** is worse.
      The committed baseline carries the PR 10 acceptance bar (2x for 4
      shards). Meaningless without real parallelism, so ``collect``
      records it as *skipped* (not missing) when the benchmark ran with
      ``cpu_count < 4``, and ``compare`` downgrades the hole to a
      warning even under ``--strict`` — 1-core runners must not flake
      the gate, but the skip stays loud in the report.
    * ``barrier_bytes`` — cross-zone record volume (payload + frame
      header per delivered message) at the same rung. Deterministic for
      the seeded run and identical across shard counts, so a >15% rise
      means the protocol started shipping more cross-zone traffic.

    ``ops_overhead`` numbers are wall-clock and therefore noisy on
    shared CI runners; they are carried in the artifact and printed for
    context but never gate. ``events_per_sec`` is wall-clock too, but
    min-of-rep on a dedicated benchmark job keeps it stable enough to
    gate; refresh the baseline when the runner class changes (see
    docs/PERFORMANCE.md).

The sweeps behind the gated metrics are deterministic (seeded simulation
at a pinned scale), so runs only move when the protocol does. To refresh
the baseline after an intentional change, regenerate it at the pinned
scale (see docs/CHECKING.md) and commit the new ``benchmarks/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

RESULTS_DIR = Path(__file__).parent / "results"

SCHEMA = "repro-bench-regression/v1"

#: Gate threshold: fail on > 15% regression.
DEFAULT_THRESHOLD = 0.15

#: Configurations whose latency/load rows gate the build.
GATED_CONFIGURATIONS = ("SWIM", "Lifeguard")

#: Gated metrics where a *drop* (not a rise) is the regression.
HIGHER_IS_BETTER = frozenset(
    {"events_per_sec", "packet_msgs_per_sec", "sharded_speedup"}
)

#: Cores the sharded-speedup rung needs before its number means
#: anything; below this ``collect`` marks the row skipped-with-warning.
MIN_CORES_FOR_SPEEDUP = 4


# --------------------------------------------------------------------- #
# collect
# --------------------------------------------------------------------- #


def _load_result(name: str, results_dir: Path) -> Optional[dict]:
    path = results_dir / f"{name}.json"
    if not path.exists():
        return None
    payload = json.loads(path.read_text())
    # A result published off the default scale carries its scale header.
    if isinstance(payload, dict) and set(payload) == {"scale", "results"}:
        return payload["results"]
    return payload


def collect_metrics(results_dir: Path = RESULTS_DIR) -> dict:
    """Distil the gated + informational metrics from published results."""
    metrics: Dict[str, Dict[str, float]] = {
        "detection_latency_p50": {},
        "msgs_per_member_per_sec": {},
        "scheduler_detection_latency_p50": {},
        "events_per_sec": {},
        "packet_msgs_per_sec": {},
        "sharded_speedup": {},
        "barrier_bytes": {},
    }
    skipped: List[str] = []

    table5 = _load_result("table5_latency", results_dir)
    if table5 is not None:
        for configuration in GATED_CONFIGURATIONS:
            row = table5.get(configuration)
            if row is None:
                continue
            p50 = row.get("first", {}).get("50.0")
            if p50 is not None:
                metrics["detection_latency_p50"][configuration] = p50

    table6 = _load_result("table6_message_load", results_dir)
    if table6 is not None:
        for configuration in GATED_CONFIGURATIONS:
            row = table6.get(configuration)
            if row is None:
                continue
            rate = row.get("msgs_per_member_per_sec")
            if rate:
                metrics["msgs_per_member_per_sec"][configuration] = rate

    strategies = _load_result("probe_strategies", results_dir)
    if strategies is not None:
        for outcome in strategies.get("outcomes", []):
            strategy = outcome.get("strategy")
            p50 = outcome.get("detection", {}).get("50.0")
            if strategy is not None and p50 is not None:
                metrics["scheduler_detection_latency_p50"][strategy] = p50

    scale = _load_result("scale_throughput", results_dir)
    if scale is not None:
        for row in scale.get("rows", []):
            size = row.get("n_members")
            rate = row.get("events_per_sec")
            if size is not None and rate:
                metrics["events_per_sec"][f"n{int(size)}"] = rate

    packet = _load_result("packet_path", results_dir)
    if packet is not None:
        for backend in ("asyncio", "batched"):
            row = packet.get(backend)
            if row is None:
                continue
            rate = row.get("msgs_per_sec")
            if rate:
                metrics["packet_msgs_per_sec"][backend] = rate
        stock = packet.get("asyncio", {}).get("msgs_per_sec")
        fast = packet.get("batched", {}).get("msgs_per_sec")
        if stock and fast:
            metrics["packet_msgs_per_sec"]["batched_vs_asyncio"] = (
                fast / stock
            )

    sharded = _load_result("scale_sharded", results_dir)
    if sharded is not None:
        size = int(sharded.get("n_members", 0))
        volume = sharded.get("barrier_bytes")
        if volume:
            metrics["barrier_bytes"][f"n{size}"] = volume
        cores = int(sharded.get("cpu_count") or 0)
        for row in sharded.get("rows", []):
            speedup = row.get("speedup")
            shards = row.get("shards")
            if speedup is None or shards is None:
                continue
            label = f"n{size}x{int(shards)}"
            if cores >= MIN_CORES_FOR_SPEEDUP:
                metrics["sharded_speedup"][label] = speedup
            else:
                skipped.append(
                    f"sharded_speedup[{label}]"
                    f" (cpu_count={cores} < {MIN_CORES_FOR_SPEEDUP})"
                )

    document = {"schema": SCHEMA, "metrics": metrics}
    if skipped:
        document["skipped"] = skipped
    ops = _load_result("ops_overhead", results_dir)
    if ops is not None:
        document["ops_overhead"] = {
            "hook_overhead": ops.get("hook_overhead"),
            "scrape_overhead": ops.get("scrape_overhead"),
        }
    return document


def cmd_collect(args: argparse.Namespace) -> int:
    document = collect_metrics(Path(args.results_dir))
    document["sha"] = args.sha
    # A metric every row of which was skipped (e.g. sharded_speedup on a
    # <4-core box) is accounted for, not missing — but say so loudly.
    skipped_metrics = {
        entry.split("[", 1)[0] for entry in document.get("skipped", ())
    }
    for entry in document.get("skipped", ()):
        print(f"warning: {entry} — recorded as skipped, not gated")
    missing = [
        name
        for name, values in document["metrics"].items()
        if not values and name not in skipped_metrics
    ]
    if missing:
        print(
            f"error: no data collected for gated metric(s): {', '.join(missing)}"
            f" — did the pinned benchmarks run?",
            file=sys.stderr,
        )
        return 1
    out = Path(args.out or f"BENCH_{args.sha}.json")
    out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


# --------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------- #


def compare_documents(
    baseline: dict, current: dict, threshold: float = DEFAULT_THRESHOLD
) -> Tuple[List[str], List[str], List[str]]:
    """Returns ``(report_lines, regressions, uncovered)``.

    A gated metric regresses when it moved past the threshold in its
    *bad* direction: ``current > baseline * (1 + threshold)`` for
    higher-is-worse metrics, ``current < baseline * (1 - threshold)``
    for the metrics in :data:`HIGHER_IS_BETTER`. Metrics present on only
    one side never gate by default — that happens when the baseline
    predates a new metric, and the usual fix is a baseline refresh, not
    a red build — but every such hole is returned in ``uncovered`` and
    loudly reported, because a metric that silently falls out of the
    baseline is a gate that silently stopped gating (``--strict`` turns
    the holes into failures).
    """
    lines: List[str] = []
    regressions: List[str] = []
    uncovered: List[str] = []
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    # Labels collect marked skipped (runner could not measure them, e.g.
    # sharded_speedup below 4 cores): warn, never gate, even --strict.
    skipped_labels = {
        entry.split(" ", 1)[0]: entry
        for entry in current.get("skipped", ())
    }
    skipped_reported = set()
    for metric in sorted(set(base_metrics) | set(cur_metrics)):
        base_rows = base_metrics.get(metric, {})
        cur_rows = cur_metrics.get(metric, {})
        for configuration in sorted(set(base_rows) | set(cur_rows)):
            base_value = base_rows.get(configuration)
            cur_value = cur_rows.get(configuration)
            label = f"{metric}[{configuration}]"
            if label in skipped_labels and cur_value is None:
                lines.append(
                    f"  WARNING {skipped_labels[label]}: skipped on this "
                    f"runner — NOT gated"
                )
                skipped_reported.add(label)
                continue
            if base_value is None or cur_value is None:
                side = "baseline" if base_value is None else "current"
                lines.append(
                    f"  WARNING {label}: collected but missing in {side} — "
                    f"NOT gated; refresh benchmarks/baseline.json to cover it"
                    if side == "baseline"
                    else f"  WARNING {label}: in baseline but not collected "
                    f"this run — NOT gated; did its benchmark run?"
                )
                uncovered.append(f"{label} (missing in {side})")
                continue
            ratio = cur_value / base_value if base_value else float("inf")
            verdict = "ok"
            if metric in HIGHER_IS_BETTER:
                if cur_value < base_value * (1.0 - threshold):
                    verdict = f"REGRESSION (dropped >{threshold:.0%})"
                    regressions.append(label)
            elif cur_value > base_value * (1.0 + threshold):
                verdict = f"REGRESSION (>{threshold:.0%})"
                regressions.append(label)
            lines.append(
                f"  {label}: {base_value:.4f} -> {cur_value:.4f} "
                f"({ratio - 1.0:+.1%}) {verdict}"
            )
    for label, entry in sorted(skipped_labels.items()):
        if label not in skipped_reported:
            lines.append(
                f"  WARNING {entry}: skipped on this runner — NOT gated"
            )
    ops = current.get("ops_overhead")
    if ops is not None:
        lines.append(
            "  ops_overhead (informational): "
            f"hook={ops.get('hook_overhead')}, scrape={ops.get('scrape_overhead')}"
        )
    return lines, regressions, uncovered


def cmd_compare(args: argparse.Namespace) -> int:
    baseline = json.loads(Path(args.baseline).read_text())
    current = json.loads(Path(args.current).read_text())
    for name, document in (("baseline", baseline), ("current", current)):
        if document.get("schema") != SCHEMA:
            print(
                f"error: {name} file has schema {document.get('schema')!r}, "
                f"expected {SCHEMA!r}",
                file=sys.stderr,
            )
            return 2
    lines, regressions, uncovered = compare_documents(
        baseline, current, threshold=args.threshold
    )
    print(
        f"bench regression gate: {current.get('sha', '?')} vs "
        f"baseline {baseline.get('sha', '?')} (threshold {args.threshold:.0%})"
    )
    for line in lines:
        print(line)
    if uncovered:
        print(
            f"warning: {len(uncovered)} metric(s) not covered by the gate: "
            f"{', '.join(uncovered)}"
        )
    if regressions:
        print(f"FAILED: {len(regressions)} regression(s): {', '.join(regressions)}")
        return 1
    if uncovered and args.strict:
        print("FAILED (--strict): uncovered metrics are treated as regressions")
        return 1
    print("ok: no gated metric regressed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="regression.py", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    collect = sub.add_parser("collect", help="distil gated metrics to BENCH_<sha>.json")
    collect.add_argument("--sha", required=True, help="commit SHA being measured")
    collect.add_argument("--out", help="output path (default BENCH_<sha>.json)")
    collect.add_argument(
        "--results-dir",
        default=str(RESULTS_DIR),
        help="directory holding the published benchmark JSON",
    )
    collect.set_defaults(func=cmd_collect)

    compare = sub.add_parser("compare", help="gate a collected file against baseline")
    compare.add_argument("--baseline", required=True)
    compare.add_argument("--current", required=True)
    compare.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD
    )
    compare.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when a metric is missing from either side "
        "(holes in the gate become failures instead of warnings)",
    )
    compare.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
