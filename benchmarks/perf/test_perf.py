"""Self-test of the repo benchmark (``python -m pytest benchmarks/perf -q``).

Not part of tier 1 (``testpaths`` is unchanged): this checks the
instrument, not the program — span arithmetic, that wrapping leaves no
trace behind, that emitted names are exactly the contract's, and that
the whole command runs at ``--smoke`` size.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.perf import compare, measure, names, tracer

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "perf" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def tick(self, ns: int) -> None:
        self.now += ns


@pytest.fixture(params=[False, True], ids=["folded", "keep_spans"])
def traced(request, monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer, "perf_counter_ns", clock)
    return tracer.Recorder(keep_spans=request.param), clock


def totals(rec: tracer.Recorder) -> dict:
    return {entry: rec.self_ns[i] for i, entry in enumerate(rec.entries)}


def check_against_log(rec: tracer.Recorder) -> None:
    """The folded totals and the raw span log are two computations of
    the same numbers."""
    if rec.spans is not None:
        assert tracer.self_ns_from_spans(rec.spans, len(rec.entries)) == rec.self_ns


def test_nested_and_sibling_spans(traced):
    rec, clock = traced
    leaf = rec.wrap(lambda: clock.tick(7), "codec", "leaf")
    other = rec.wrap(lambda: clock.tick(2), "map", "other")

    def outer_body():
        clock.tick(5)
        leaf()
        clock.tick(1)
        other()
        leaf()
        clock.tick(3)

    outer = rec.wrap(outer_body, "node", "outer")
    outer()
    clock.tick(100)  # outside every span
    other()
    assert totals(rec) == {("codec", "leaf"): 14, ("map", "other"): 4, ("node", "outer"): 9}
    assert rec.calls == [2, 2, 1]
    assert rec.attributed_ns == 14 + 4 + 9
    assert rec.stack == [rec.attributed_ns]
    check_against_log(rec)
    if rec.spans is not None:
        rows = list(rec.spans.rows())
        assert [parent for _s, parent, *_ in rows] == [-1, 0, 0, 0, -1]
        assert len(rows) == 5


def test_reentrant_spans_of_one_layer(traced):
    # codec.decode re-enters itself for small non-bytes packets, and
    # SwimNode._dispatch recurses through Compound parts.
    rec, clock = traced

    def decode(depth: int) -> int:
        clock.tick(10)
        if depth:
            wrapped(depth - 1)
        clock.tick(1)
        return depth

    wrapped = rec.wrap(decode, "swim.codec", "decode")
    assert wrapped(3) == 3
    assert rec.calls == [4]
    assert rec.self_ns == [44]  # every level's own 11 ns, counted once
    assert rec.attributed_ns == 44
    check_against_log(rec)


def test_exception_unwinds_the_stack(traced):
    rec, clock = traced

    def failing():
        clock.tick(4)
        raise ValueError("boom")

    inner = rec.wrap(failing, "sync.engine", "merge")

    def outer_body():
        clock.tick(2)
        try:
            inner()
        finally:
            clock.tick(6)

    outer = rec.wrap(outer_body, "swim.node", "handle_packet")
    with pytest.raises(ValueError):
        outer()
    assert totals(rec) == {("sync.engine", "merge"): 4, ("swim.node", "handle_packet"): 8}
    assert rec.stack == [12]
    check_against_log(rec)


def test_observer_and_callback_attribution(traced):
    rec, clock = traced
    seen = []
    wrapped = rec.wrap(lambda x: x * 2, "swim.codec", "encode",
                       observe=lambda args, result: seen.append((args, result)))
    assert wrapped(21) == 42
    assert seen == [((21,), 42)]

    from repro.sim.scheduler import EventScheduler

    scheduler = EventScheduler()
    callback = rec.wrap_callback(scheduler.drain)  # bound method of repro.sim.scheduler
    callback()
    assert ("sim.scheduler", "timer_callback") in rec.entries
    rec.wrap_callback(lambda: None)()  # a closure defined here, not in repro
    assert ("bench", "timer_callback") in rec.entries


def test_generator_is_timed_per_item(traced):
    rec, clock = traced

    def produce():
        for item in range(3):
            clock.tick(5)
            yield item

    consumed = []
    for item in rec.wrap_generator(produce, "zones.frames", "iter_records")():
        clock.tick(100)  # the consumer's work is not the producer's
        consumed.append(item)
    assert consumed == [0, 1, 2]
    assert rec.self_ns == [15]
    assert rec.calls == [4]  # three items and the exhausted next()
    check_against_log(rec)


def test_speed_probe_weighs_each_slice_by_its_sample():
    from benchmarks.perf.workloads import SpeedProbe

    probe = SpeedProbe()
    ref = probe.REFERENCE_NS
    ms = 1_000_000
    # Samples at 10, 20 and 30 ms: full speed, half speed, full speed.
    for at_ms, cost in ((10, ref), (20, 2 * ref), (30, ref)):
        probe.at_ns.append(at_ms * ms)
        probe.cost_ns.append(cost)
    assert probe.undisturbed_s(0, 30 * ms) == pytest.approx(0.025)
    assert probe.dilation(0, 30 * ms) == pytest.approx(30 / 25)
    # An interval with no sample inside takes the next one ...
    assert probe.undisturbed_s(12 * ms, 18 * ms) == pytest.approx(0.003)
    # ... and past the last sample, the last.
    assert probe.undisturbed_s(30 * ms, 40 * ms) == pytest.approx(0.010)


def _snapshot():
    import repro.zones.bridge
    import repro.zones.cluster
    import repro.zones.sharded
    from repro.core.lhm import LocalHealthMultiplier
    from repro.core.suspicion import Suspicion
    from repro.metrics.event_log import ClusterEventLog
    from repro.metrics.telemetry import Telemetry
    from repro.sim.anomaly import AnomalyController
    from repro.sim.network import SimNetwork
    from repro.sim.runtime import SimCluster
    from repro.sim.scheduler import EventScheduler
    from repro.swim import codec
    from repro.swim.broadcast import BroadcastQueue
    from repro.swim.member_map import MemberMap
    from repro.swim.node import SwimNode
    from repro.sync.engine import SyncEngine
    from repro.transport.fastudp import BatchedUdpTransport, PacketPump
    from repro.transport.udp import UdpTransport
    from repro.zones import frames
    from repro.zones.bridge import ZoneBridge
    from repro.zones.cluster import ZonedCluster, ZoneShard

    handle_type = type(EventScheduler().call_at(0.0, lambda: None))
    owners = [
        LocalHealthMultiplier, Suspicion, ClusterEventLog, Telemetry,
        AnomalyController, SimNetwork, SimCluster, EventScheduler, handle_type,
        codec, BroadcastQueue, MemberMap, SwimNode, SyncEngine,
        BatchedUdpTransport, PacketPump, UdpTransport, frames, frames.FrameBuffer,
        frames.BarrierRing, ZoneBridge, ZonedCluster, ZoneShard,
        repro.zones.bridge, repro.zones.cluster, repro.zones.sharded,
    ]
    return [(owner, dict(vars(owner))) for owner in owners]


def test_install_then_restore_leaves_every_attribute_as_it_was():
    from repro.swim import codec
    from repro.transport.fastudp import BatchedUdpTransport
    from repro.zones import bridge

    before = _snapshot()
    rec, patcher = tracer.Recorder(), tracer.Patcher()
    from benchmarks.perf import workloads

    phases = workloads.Phases(Path("."), rec)
    workloads.install_phases(phases, patcher)
    tracer.install(rec, patcher)
    # Wrapped while installed — including names bound with ``from x import``.
    assert hasattr(codec.encode, "__wrapped__")
    assert bridge.encode is codec.encode
    from repro.sim.scheduler import EventScheduler

    handle = EventScheduler().call_at(0.0, lambda: None)
    assert hasattr(type(handle).cancel, "__wrapped__")
    patcher.restore()
    for (owner, was), (_owner, now) in zip(before, _snapshot()):
        assert now.keys() == was.keys(), owner
        for attr, value in was.items():
            assert now[attr] is value, (owner, attr)
    assert "bind" not in vars(BatchedUdpTransport)  # still inherited


def test_contract_names():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == names.benchmark_json()
    assert len(names.WORKLOADS) == 5 and len(names.END_TO_END) == 8
    assert len(names.PER_LAYER) == 75
    every = names.WORKLOAD_NAMES + names.END_TO_END_NAMES + names.PER_LAYER_NAMES
    assert len(set(every)) == len(every)
    for name in every:
        assert NAME.fullmatch(name), name
    for _name, why in names.WORKLOADS:
        assert len(why) <= 200 and "\n" not in why
    for unit in names.UNITS.values():
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    assert any(row[:3] == ("setup_s", "s", "lower") for row in names.END_TO_END)
    assert all(0 < bound <= 0.25 for *_rest, bound in names.END_TO_END)
    assert names.END_TO_END[0][3] == max(bound for *_rest, bound in names.END_TO_END)
    assert set(measure.REPS_PER_10_S) == set(names.WORKLOAD_NAMES)


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(steady, [x * 1.02 for x in steady], "lower", 0.10) == "ok"
    assert compare.verdict(steady, [x * 1.2 for x in steady], "lower", 0.10) == "worse"
    assert compare.verdict(steady, [x * 0.8 for x in steady], "higher", 0.10) == "worse"
    assert compare.verdict(steady, [x * 0.5 for x in steady], "lower", 0.10) == "ok"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, "lower", 0.10) == "unresolved"
    # Wider than the bound, yet every run of B beats every run of A.
    assert compare.verdict(noisy, [x / 2 for x in noisy], "lower", 0.10) == "ok"


def test_driver_mode_emits_exactly_the_contract_names():
    for trace_flag, expected in (("0", names.END_TO_END_NAMES), ("1", names.PER_LAYER_NAMES)):
        proc = subprocess.run(
            RUN + ["--workload", "flat1024_steady", "--seed", "3", "--seconds", "10",
                   "--trace", trace_flag, "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert tuple(result["metrics"]) == expected
        for name, cell in result["metrics"].items():
            assert set(cell) == {"value", "unit"} and cell["unit"] == names.UNITS[name]
        if trace_flag == "0":
            assert all(cell["value"] > 0 for cell in result["metrics"].values())


def test_smoke_suite_runs_clean_in_under_20_s(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    proc = subprocess.run(
        RUN + ["--seed", "2", "--reps", "1", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 20.0, f"smoke suite took {elapsed:.1f} s"
    document = json.loads(out.read_text())
    assert tuple(document["workloads"]) == names.WORKLOAD_NAMES
    env = document["environment"]
    assert {"git_sha", "python", "nproc", "cpu_model", "load_1m", "seed", "reps"} <= set(env)
    for workload, result in document["workloads"].items():
        assert tuple(result["end_to_end"]["median"]) == names.END_TO_END_NAMES, workload
        assert all(len(v) == 1 for v in result["end_to_end"]["values"].values())
        assert tuple(result["trace"]["metrics"]) == names.PER_LAYER_NAMES, workload
        assert result["end_to_end"]["failed"] == 0 and result["trace"]["failed"] == 0
    # The same file against itself: every pair within its bound.
    assert compare.compare(str(out), str(out)) == 0


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "perf", bare / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__", "_work", "_out"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "udp_pingack",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
