"""How every results file reads: one renderer per result, keyed by name.

``benchmarks/results/<name>.json`` holds a result's payload and
``<name>.txt`` holds :func:`render` of that payload, byte for byte.
Each entry of :data:`RENDERERS` is a pure function of the payload
exactly as ``json.loads`` returns it: string keys, with concurrency,
stress count and (alpha, beta) put in numeric order here. Paper tables
and figures print the paper's value (from :mod:`repro.harness.paper_data`)
beside ours. The renderers assert nothing; the benchmarks do.

EXPERIMENTS.md embeds results files verbatim in :data:`BLOCK`-marked
fences, kept in step by :func:`embed`.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional

from repro.harness import paper_data
from repro.metrics.analysis import ratio_pct

Payload = Dict[str, Any]

#: A results file embedded in markdown: its path in a comment, then its
#: text in a fence.
BLOCK = re.compile(r"<!-- (benchmarks/results/\S+\.txt) -->\n```\n(.*?)```\n", re.S)


def _fmt(value: Optional[float], spec: str) -> str:
    if value is None:
        return " " * (int(spec.split(".")[0]) - 3) + "n/a"
    return format(value, spec)


def _pct(value: Optional[float], baseline: Optional[float]) -> str:
    return _fmt(ratio_pct(value, baseline), "8.2f")


def table_iv(payload: Payload) -> str:
    """Table IV: aggregated false positives per configuration."""
    swim = payload.get("SWIM", {})
    lines = [
        "TABLE IV — Aggregated false positives (alpha=5, beta=6)",
        f"{'Configuration':14s} {'FP':>8s} {'FP-':>6s} {'FP %SWIM':>9s} "
        f"{'FP- %SWIM':>10s} | {'paper FP':>9s} {'paper FP-':>9s} "
        f"{'paper FP%':>9s} {'paper FP-%':>10s}",
    ]
    for name, (p_fp, p_fpm, p_fp_pct, p_fpm_pct) in paper_data.TABLE_IV.items():
        row = payload.get(name)
        if row is None:
            continue
        lines.append(
            f"{name:14s} {row['fp']:8d} {row['fp_healthy']:6d} "
            f"{_pct(row['fp'], swim.get('fp')):>9s} "
            f"{_pct(row['fp_healthy'], swim.get('fp_healthy')):>10s} | "
            f"{p_fp:9d} {p_fpm:9d} {p_fp_pct:9.2f} {p_fpm_pct:10.2f}"
        )
    return "\n".join(lines)


def table_v(payload: Payload) -> str:
    """Table V: detection and dissemination latencies (seconds)."""
    lines = [
        "TABLE V — First-detection / full-dissemination latency (s)",
        f"{'Configuration':14s} {'med 1st':>8s} {'99% 1st':>8s} {'99.9%':>8s} "
        f"{'med full':>9s} {'99% full':>9s} {'99.9%':>8s} | paper med/99/99.9 "
        f"(1st) med/99/99.9 (full)",
    ]
    for name, paper in paper_data.TABLE_V.items():
        row = payload.get(name)
        if row is None:
            continue
        first, full = row["first"], row["full"]
        lines.append(
            f"{name:14s} {_fmt(first.get('50.0'), '8.2f')} "
            f"{_fmt(first.get('99.0'), '8.2f')} {_fmt(first.get('99.9'), '8.2f')} "
            f"{_fmt(full.get('50.0'), '9.2f')} {_fmt(full.get('99.0'), '9.2f')} "
            f"{_fmt(full.get('99.9'), '8.2f')} | "
            f"{paper[0]:.2f}/{paper[1]:.2f}/{paper[2]:.2f}  "
            f"{paper[3]:.2f}/{paper[4]:.2f}/{paper[5]:.2f}"
        )
    return "\n".join(lines)


def table_vi(payload: Payload) -> str:
    """Table VI: message load per configuration."""
    swim = payload.get("SWIM", {})
    lines = [
        "TABLE VI — Message load (alpha=5, beta=6)",
        f"{'Configuration':14s} {'Msgs':>10s} {'MiB':>9s} {'Msgs %SWIM':>11s} "
        f"{'Bytes %SWIM':>12s} | {'paper Msgs%':>11s} {'paper Bytes%':>12s}",
    ]
    for name, (_, _, p_msgs_pct, p_bytes_pct) in paper_data.TABLE_VI.items():
        row = payload.get(name)
        if row is None:
            continue
        lines.append(
            f"{name:14s} {row['msgs']:10d} {row['bytes'] / 2**20:9.1f} "
            f"{_pct(row['msgs'], swim.get('msgs')):>11s} "
            f"{_pct(row['bytes'], swim.get('bytes')):>12s} | "
            f"{p_msgs_pct:11.2f} {p_bytes_pct:12.2f}"
        )
    return "\n".join(lines)


def table_vii(payload: Payload) -> str:
    """Table VII: Lifeguard tuning metrics as % of the SWIM baseline,
    keyed ``a{alpha}b{beta}``; a missing combination reads ``n/a``."""
    metrics = [
        ("med_first", "Med First"),
        ("med_full", "Med Full"),
        ("p99_first", "99% First"),
        ("p99_full", "99% Full"),
        ("p999_first", "99.9% First"),
        ("p999_full", "99.9% Full"),
        ("fp", "FP"),
        ("fp_healthy", "FP-"),
    ]
    combos = list(paper_data.TABLE_VII)
    lines = [
        "TABLE VII — Lifeguard tuning, metrics as % of SWIM baseline",
        "(first line: measured; second line: paper)",
        f"{'metric':12s}" + "".join(f"  a={a},b={b}" for a, b in combos),
    ]
    for key, label in metrics:
        measured = f"{label:12s}"
        paper_line = f"{'  (paper)':12s}"
        for a, b in combos:
            measured += f" {_fmt(payload.get(f'a{a}b{b}', {}).get(key), '8.1f')}"
            paper_line += f" {paper_data.TABLE_VII[(a, b)][key]:8.1f}"
        lines += [measured, paper_line]
    return "\n".join(lines)


def figure_1(payload: Payload) -> str:
    """Figure 1: CPU-exhaustion false positives at ``members`` members,
    keyed by stressed count."""
    rows = payload["stressed"]
    lines = [
        "FIGURE 1 — False positives from CPU exhaustion "
        f"({payload['members']} members, stress on N)",
        f"{'N':>4s} {'SWIM FP':>9s} {'SWIM FP-':>9s} {'LG FP':>7s} "
        f"{'LG FP-':>7s} | paper(approx): SWIM FP / FP-, LG FP / FP-",
    ]
    for n in sorted(map(int, rows)):
        row = rows[str(n)]
        paper = paper_data.FIGURE_1_APPROX.get(n)
        paper_txt = (
            f"{paper[0]} / {paper[1]}, {paper[2]} / {paper[3]}" if paper else "-"
        )
        lines.append(
            f"{n:4d} {row['swim_fp']:9d} {row['swim_fp_healthy']:9d} "
            f"{row['lifeguard_fp']:7d} {row['lifeguard_fp_healthy']:7d} | "
            f"{paper_txt}"
        )
    return "\n".join(lines)


def _by_concurrency(title: str) -> Callable[[Payload], str]:
    """Figures 2/3: one count per configuration and concurrency."""

    def render_figure(payload: Payload) -> str:
        concurrencies: List[int] = sorted(
            {int(c) for per_config in payload.values() for c in per_config}
        )
        lines = [
            f"{title} vs concurrent anomalies",
            f"{'Configuration':14s}" + "".join(f" C={c:<6d}" for c in concurrencies),
        ]
        for name, per_config in payload.items():
            counts = (per_config.get(str(c)) for c in concurrencies)
            lines.append(f"{name:14s}" + "".join(
                "     n/a" if n is None else f" {n:7d}" for n in counts
            ))
        return "\n".join(lines)

    return render_figure


def _ablation(title: str, label: str) -> Callable[[Payload], str]:
    """An ablation: false positives per value of one knob."""

    def render_ablation(payload: Payload) -> str:
        return f"ABLATION — {title}\n" + "\n".join(
            f"  {label}{value}: FP={fp}" for value, fp in payload.items()
        )

    return render_ablation


def _rows(payload: Payload) -> Dict[str, Any]:
    """The result rows of a payload that records its set-up under ``params``."""
    return {key: row for key, row in payload.items() if key != "params"}


def baseline_comparison(payload: Payload) -> str:
    p = payload["params"]
    return (
        "BASELINE COMPARISON — false positives from slow members\n"
        f"({p['members']} members, {p['slow']} slow, cyclic {p['stall_s']:.0f}s "
        f"stalls, {p['test_time']:.0f}s virtual, {len(p['seeds'])} seeds)\n"
        + "\n".join(f"  {name:18s} FP={fp}" for name, fp in _rows(payload).items())
    )


def buddy_refutation(payload: Payload) -> str:
    p = payload["params"]
    return (
        "BUDDY SYSTEM — time from recovery to group-wide refutation\n"
        f"({p['members']} members, victim unresponsive {p['block_s']:.0f}s, "
        f"{p['trials']} trials)\n"
        + "\n".join(
            f"  {label:14s} median={row['median']:.2f}s max={row['max']:.2f}s "
            f"wrongly-declared-failed={row['wrongly_failed']}/{p['trials']}"
            for label, row in _rows(payload).items()
        )
    )


def overlay_dissemination(payload: Payload) -> str:
    p = payload["params"]
    return (
        "OVERLAY DISSEMINATION — full-dissemination latency of a true "
        f"failure ({p['members']} members, {p['trials']} trials)\n"
        + "\n".join(
            f"  {label:16s} median={row['median']:.2f}s p99={row['p99']:.2f}s "
            f"spread={row['spread']:.2f}s (n={row['samples']})"
            for label, row in _rows(payload).items()
        )
    )


def probe_strategies(payload: Payload) -> str:
    params = payload["params"]
    lines = [
        "PROBE STRATEGIES — detection latency / false positives "
        f"({params['configuration']}, n={params['n_members']}, "
        f"C={params['concurrent']}, reps={params['reps']})",
        f"{'strategy':14s} {'med 1st':>8s} {'99% 1st':>8s} "
        f"{'undet':>6s} {'FP':>4s} {'FP-':>4s} {'msgs':>9s}",
    ]
    for outcome in payload["outcomes"]:
        p50, p99 = (outcome["detection"].get(p) for p in ("50.0", "99.0"))
        lines.append(
            f"{outcome['strategy']:14s} "
            f"{p50 if p50 is not None else float('nan'):8.2f} "
            f"{p99 if p99 is not None else float('nan'):8.2f} "
            f"{outcome['undetected']:6d} {outcome['fp_events']:4d} "
            f"{outcome['fp_healthy_events']:4d} {outcome['msgs_sent']:9d}"
        )
    return "\n".join(lines)


def ops_overhead(payload: Payload) -> str:
    p = payload
    lines = [
        f"Ops-plane overhead: n={p['n_members']}, {p['virtual_seconds']:g} "
        f"virtual seconds, min of {p['reps']} runs",
        f"{'mode':26s} {'wall-clock':>11s} {'vs baseline':>12s}",
    ]
    for label, seconds, delta in (
        ("baseline (no registry)", p["baseline_s"], ""),
        ("registry installed", p["hooks_s"], f"{p['hook_overhead']:+.1%}"),
        (f"scraped every {p['scrape_every']:g}s", p["scraped_s"],
         f"{p['scrape_overhead']:+.1%}"),
    ):
        lines.append(f"{label:26s} {seconds:10.3f}s {delta:>12s}")
    lines += [
        "",
        f"One scrape (sample + render), best of {p['scrape_reps']}, after "
        f"{p['warmup_s']:g} virtual seconds",
        f"{'members':>7s} {'series':>8s} {'ms/scrape':>10s} {'us/series':>10s}",
    ]
    for row in p["scrapes"]:
        lines.append(
            f"{row['n_members']:7d} {row['series']:8d} "
            f"{row['ms_per_scrape']:10.2f} {row['us_per_series']:10.2f}"
        )
    return "\n".join(lines)


def packet_path(payload: Payload) -> str:
    shape = next(iter(payload.values()))
    asyncio_rate = payload["asyncio"]["msgs_per_sec"]
    ratio = payload["batched"]["msgs_per_sec"] / asyncio_rate if asyncio_rate else float("inf")
    return (
        "PACKET PATH THROUGHPUT — loopback echo, "
        f"{shape['payload_size']}B payloads, window={shape['window']}, "
        f"best of {shape['reps']}x{shape['duration']:.1f}s\n"
        + "\n".join(
            f"  {backend:8s} {row['msgs_per_sec']:>10,.0f} msgs/s  "
            f"unreturned={row['loss']}  send_batch={row['avg_send_batch']:.1f}  "
            f"recv_batch={row['avg_recv_batch']:.1f}  "
            f"mmsg={'yes' if row['uses_mmsg'] else 'no'}"
            for backend, row in payload.items()
        )
        + f"\n  batched vs asyncio: {ratio:.2f}x"
    )


def scale_throughput(payload: Payload) -> str:
    lines = [
        f"Simulator throughput (min of {payload['reps']} identical runs, "
        f"seed {payload['seed']})",
        f"{'n':>6s} {'zones':>5s} {'virtual':>8s} {'events':>9s} "
        f"{'setup':>9s} {'wall':>9s} {'events/sec':>11s} {'vs/ws':>7s} "
        f"{'rss':>8s}",
    ]
    for row in payload["rows"]:
        lines.append(
            f"{int(row['n_members']):6d} {int(row['zones']):5d} "
            f"{row['virtual_seconds']:7.1f}s "
            f"{int(row['events']):9d} {row['setup_s']:8.3f}s "
            f"{row['wall_s']:8.3f}s "
            f"{row['events_per_sec']:11,.0f} {row['virtual_per_wall']:7.2f} "
            f"{int(row['peak_rss_kb']) // 1024:6d}MB"
        )
    return "\n".join(lines)


def scale_sharded(payload: Payload) -> str:
    p = payload
    lines = [
        f"Sharded driver at n={p['n_members']} ({p['zones']} zones, "
        f"{p['duration']:.1f} virtual s, {p['cpu_count']} cores): "
        f"single {p['single_wall_s']:.2f}s "
        f"(setup {p['single_setup_s']:.2f}s), "
        f"{p['barriers']} barrier(s), {p['barrier_msgs']} msgs / "
        f"{p['barrier_bytes']} bytes exchanged",
        f"{'shards':>6s} {'setup':>9s} {'wall':>9s} {'speedup':>8s} "
        f"{'exchange':>9s} {'overflow':>8s}",
    ]
    for row in p["rows"]:
        lines.append(
            f"{int(row['shards']):6d} {row['setup_s']:8.2f}s {row['wall_s']:8.2f}s "
            f"{row['speedup']:7.2f}x {row['exchange_s']:8.4f}s "
            f"{int(row['overflows']):8d}"
        )
    return "\n".join(lines)


def transport_faults(payload: Payload) -> str:
    def ms(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.1f}ms"

    return (
        "RELIABLE CHANNEL UNDER FAULT INJECTION — "
        f"{next(iter(payload.values()))['sent']} msgs per regime, loopback proxy\n"
        + "\n".join(
            f"  {label:6s} delivered={row['delivered']}/{row['sent']} "
            f"mean={ms(row['mean_ms'])} max={ms(row['max_ms'])} "
            f"conns={row['conns_opened']} reused={row['conns_reused']} "
            f"retries={row['retries']} failures={row['send_failures']}"
            for label, row in payload.items()
        )
    )


#: Result name (the file stem under ``benchmarks/results/``) -> renderer.
RENDERERS: Dict[str, Callable[[Payload], str]] = {
    "table4_false_positives": table_iv,
    "table5_latency": table_v,
    "table6_message_load": table_vi,
    "table7_tuning": table_vii,
    "fig1_stress": figure_1,
    "fig2_fp_by_concurrency": _by_concurrency("FIGURE 2 — total FP"),
    "fig3_fp_healthy_by_concurrency": _by_concurrency(
        "FIGURE 3 — FP- (at healthy members)"
    ),
    "ablation_suspicion_k": _ablation(
        "suspicion confirmations K vs false positives", "K="
    ),
    "ablation_lhm_saturation": _ablation("LHM saturation S vs false positives", "S="),
    "ablation_nack_fraction": _ablation(
        "nack deadline fraction vs false positives", "fraction="
    ),
    "ablation_anomaly_model": _ablation("anomaly model vs SWIM false positives", ""),
    "baseline_comparison": baseline_comparison,
    "buddy_refutation": buddy_refutation,
    "overlay_dissemination": overlay_dissemination,
    "probe_strategies": probe_strategies,
    "ops_overhead": ops_overhead,
    "packet_path": packet_path,
    "scale_throughput": scale_throughput,
    "scale_sharded": scale_sharded,
    "transport_faults": transport_faults,
}


def render(name: str, payload: Payload) -> str:
    """The text file of result ``name``. A full-grid payload,
    ``{"scale": ..., "results": ...}``, gets its scale as a header line."""
    if set(payload) == {"scale", "results"}:
        return f"# {payload['scale']}\n" + render(name, payload["results"])
    return RENDERERS[name](payload) + "\n"


def embed(markdown: str, path: str, text: str) -> str:
    """``markdown`` with the :data:`BLOCK` marked ``path``, if any, holding
    ``text``."""
    return BLOCK.sub(
        lambda m: f"<!-- {path} -->\n```\n{text}```\n" if m.group(1) == path else m.group(0),
        markdown,
    )
