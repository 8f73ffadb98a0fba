"""``compare A.json B.json``: the before/after (and agreement) tool.

For every (workload, end-to-end metric) pair present in both result
files: both medians, both quartile pairs, the relative difference with
its base (A), the bound, and a verdict —

* ``ok``          B's median is not worse than A's by more than the bound;
* ``worse``       it is (non-zero exit);
* ``unresolved``  the run-to-run spread of either side is wider than the
  bound, so a difference of that size cannot be told from noise —
  unless every value of B reads better than every value of A.

The two virtual-time statistics are functions of the seed alone, so for
files of the same seed they are additionally checked for exact equality
(``differs`` is printed beside the verdict; a protocol change moves
them legitimately, a host-time change must not).
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Tuple

from benchmarks.perf import names


def quartiles(values: List[float]) -> Tuple[float, float]:
    """First and third quartile, as the driver takes them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (statistics.median(b) - statistics.median(a)) / statistics.median(a)
    if max(spread(a), spread(b)) > bound:
        all_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return "ok" if all_better else "unresolved"
    return "worse" if worsening > bound else "ok"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    same_seed = a["environment"]["seed"] == b["environment"]["seed"]
    rows: List[str] = []
    worse = 0
    header = (
        f"{'workload':21} {'metric':23} {'A median [q1, q3]':>36} "
        f"{'B median [q1, q3]':>36} {'(B-A)/A':>8} {'bound':>5}  verdict"
    )

    def cell(values: List[float]) -> str:
        q1, q3 = quartiles(values)
        return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"

    for workload in names.WORKLOAD_NAMES:
        in_a = a["workloads"].get(workload)
        in_b = b["workloads"].get(workload)
        if in_a is None or in_b is None:
            continue
        for metric, unit, better, bound in names.END_TO_END:
            va: List[float] = in_a["end_to_end"]["values"].get(metric, [])
            vb: List[float] = in_b["end_to_end"]["values"].get(metric, [])
            if not va or not vb:
                continue
            result = verdict(va, vb, better, bound)
            if metric in names.DETERMINISTIC and same_seed and va[0] != vb[0]:
                result += " (differs)"
            worse += result.startswith("worse")
            ma, mb = statistics.median(va), statistics.median(vb)
            rows.append(
                f"{workload:21} {metric:23} {cell(va):>36} {cell(vb):>36} "
                f"{(mb - ma) / ma:+8.2%} {bound:5.0%}  {result}  "
                f"[{unit}, {better} is better, n={len(va)}/{len(vb)}]"
            )
    moved: List[str] = []
    if same_seed:
        # Counts are functions of the seed; a host-time change keeps them.
        for workload in names.WORKLOAD_NAMES:
            if workload == "udp_pingack":
                continue
            traces = [
                (doc["workloads"].get(workload) or {}).get("trace") for doc in (a, b)
            ]
            if not all(t and t["metrics"] for t in traces):
                continue
            moved += [
                f"{workload} {metric}: {traces[0]['metrics'][metric]} -> "
                f"{traces[1]['metrics'][metric]}"
                for metric in names.PER_LAYER_NAMES
                if metric not in names.TIMING_METRICS
                and traces[0]["metrics"][metric] != traces[1]["metrics"][metric]
            ]
    print(f"A = {path_a}  ({_stamp(a)})")
    print(f"B = {path_b}  ({_stamp(b)})")
    print("relative difference is (B - A) / A, base A")
    print(header)
    print("\n".join(rows))
    failed = {
        name: sum(w["end_to_end"]["failed"] + (w["trace"] or {}).get("failed", 0)
                  for w in doc["workloads"].values())
        for name, doc in (("A", a), ("B", b))
    }
    if same_seed:
        print(f"simulator-workload counts not bit-equal: {len(moved)}")
        for line in moved:
            print(f"  {line}")
    print(f"failed operations: A {failed['A']}, B {failed['B']}; worse: {worse}")
    return 1 if worse else 0


def _stamp(doc: Dict) -> str:
    env = doc["environment"]
    return f"sha {env['git_sha']}, seed {env['seed']}, reps {env['reps']}"
