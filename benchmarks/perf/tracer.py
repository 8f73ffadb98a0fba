"""Outside-in span recorder for the per-layer cost ledger.

Nothing under ``src/`` knows it is being traced: the traced child
process replaces the layers' *public* entry points (class attributes and
module functions) with wrappers that open a span on entry and close it
on exit, then restores them. A span is ``(layer, name, start, end,
parent)``; a layer's **self time** is its spans' duration minus the part
their child spans cover, so the ``self_s`` of all layers add up to the
wall time that was inside any span at all.

Two storage modes share one arithmetic:

* the default folds every span into per-entry ``calls`` / ``self_ns``
  totals the moment it closes (a 10 s workload opens ~10 M spans; kept
  as objects they would cost more memory than the workload itself);
* ``keep_spans=True`` (``--dump-spans``) additionally keeps every span
  in compact arrays — id, parent, root, start, end — for offline
  analysis. :func:`self_ns_from_spans` recomputes the totals from that
  log, and the self-test pins the two against each other.

Scheduler callbacks are wrapped where they cross the boundary
(``EventScheduler.call_at``) and attributed to the module that defined
them, so ``sim.scheduler.self_s`` is heap and dispatch only and timer
driven protocol work lands in ``swim.node``, deliveries in
``sim.network``, and so on.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The layers BENCHMARK.json names (``<layer>.calls`` / ``<layer>.self_s``).
LAYERS: Tuple[str, ...] = (
    "sim.runtime",
    "sim.scheduler",
    "sim.network",
    "sim.anomaly",
    "swim.node",
    "swim.member_map",
    "swim.codec",
    "swim.broadcast",
    "sync.engine",
    "core.suspicion",
    "core.lhm",
    "zones.cluster",
    "zones.bridge",
    "zones.frames",
    "zones.sharded",
    "transport.udp",
    "transport.fastudp",
    "metrics.telemetry",
)

#: ``observe(args, result)`` hooks run inside the span, after the call.
Observer = Callable[[tuple, Any], None]


class SpanLog:
    """Every span of a run, in open order, as parallel arrays."""

    def __init__(self) -> None:
        self.entry = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: List[int] = []
        self._root = -1

    def open(self, entry: int, is_root: bool) -> int:
        span = len(self.entry)
        if is_root and self._root < 0:
            self._root = span
        self.entry.append(entry)
        self.parent.append(self._open[-1] if self._open else -1)
        self.root.append(self._root if self._root >= 0 else span)
        self.start.append(0)
        self.end.append(0)
        self._open.append(span)
        return span

    def close(self, span: int, start: int, end: int) -> None:
        self.start[span] = start
        self.end[span] = end
        self._open.pop()
        if self._root == span:
            self._root = -1

    def __len__(self) -> int:
        return len(self.entry)

    def rows(self) -> Iterator[Tuple[int, int, int, int, int, int]]:
        """``(id, parent, root, entry, start_ns, end_ns)`` per span."""
        for span in range(len(self.entry)):
            yield (
                span,
                self.parent[span],
                self.root[span],
                self.entry[span],
                self.start[span],
                self.end[span],
            )


def self_ns_from_spans(log: SpanLog, n_entries: int) -> List[int]:
    """Self time per entry recomputed from the raw span log."""
    totals = [0] * n_entries
    child_ns = [0] * len(log)
    for span, parent, _root, _entry, start, end in log.rows():
        if parent >= 0:
            child_ns[parent] += end - start
    for span, _parent, _root, entry, start, end in log.rows():
        totals[entry] += (end - start) - child_ns[span]
    return totals


class Recorder:
    """Per-entry span totals (and optionally the spans themselves)."""

    def __init__(self, keep_spans: bool = False) -> None:
        #: entry index -> ``(layer, name)``
        self.entries: List[Tuple[str, str]] = []
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        #: One accumulator of child time per open span. The extra bottom
        #: element is never popped: it collects the duration of every
        #: outermost span, i.e. the wall time attributed to any layer.
        self.stack: List[int] = [0]
        #: Free-form counts taken at the same boundaries (bytes, hits).
        self.counters: Dict[str, int] = {}
        self.spans: Optional[SpanLog] = SpanLog() if keep_spans else None
        self._index: Dict[Tuple[str, str], int] = {}

    def entry(self, layer: str, name: str) -> int:
        key = (layer, name)
        index = self._index.get(key)
        if index is None:
            index = self._index[key] = len(self.entries)
            self.entries.append(key)
            self.calls.append(0)
            self.self_ns.append(0)
        return index

    def reset(self) -> None:
        """Forget everything counted so far, keeping the entries (and
        so every installed wrapper) valid: a forked worker starts its
        own ledger with this."""
        self.calls[:] = [0] * len(self.calls)
        self.self_ns[:] = [0] * len(self.self_ns)
        self.stack[:] = [0]
        self.counters.clear()

    def count(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    @property
    def attributed_ns(self) -> int:
        return self.stack[0]

    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        name: str,
        observe: Optional[Observer] = None,
        root: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` inside a span of ``layer``. ``root`` marks the spans
        one scheduler event or one datagram starts (``--dump-spans``
        stamps every descendant with that span's id)."""
        return self._wrap_entry(fn, self.entry(layer, name), observe, root)

    def _wrap_entry(
        self,
        fn: Callable[..., Any],
        index: int,
        observe: Optional[Observer],
        root: bool,
    ) -> Callable[..., Any]:
        calls = self.calls
        self_ns = self.self_ns
        stack = self.stack
        clock = perf_counter_ns
        log = self.spans

        if log is not None:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                calls[index] += 1
                span = log.open(index, root)
                stack.append(0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    if observe is not None:
                        observe(args, result)
                    return result
                finally:
                    end = clock()
                    self_ns[index] += end - start - stack.pop()
                    stack[-1] += end - start
                    log.close(span, start, end)

        elif observe is not None:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                calls[index] += 1
                stack.append(0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    observe(args, result)
                    return result
                finally:
                    elapsed = clock() - start
                    self_ns[index] += elapsed - stack.pop()
                    stack[-1] += elapsed

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                calls[index] += 1
                stack.append(0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    self_ns[index] += elapsed - stack.pop()
                    stack[-1] += elapsed

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def wrap_generator(
        self, fn: Callable[..., Iterator[Any]], layer: str, name: str
    ) -> Callable[..., Iterator[Any]]:
        """A generator function, one span per ``next()``: the consumer's
        work between items must not be charged to the producer."""
        index = self.entry(layer, name)
        end_of_items = object()

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = fn(*args, **kwargs)
            step = self._wrap_entry(
                lambda: next(iterator, end_of_items), index, None, False
            )
            while True:
                item = step()
                if item is end_of_items:
                    return
                yield item

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_callback(self, callback: Callable[[], None]) -> Callable[[], None]:
        """A scheduler callback, attributed to the module that defined
        it (``callback.__module__`` is the bound method's class module
        or the closure's defining module)."""
        module = getattr(callback, "__module__", None) or ""
        layer = module[6:] if module.startswith("repro.") else "bench"
        return self._wrap_entry(
            callback, self.entry(layer, "timer_callback"), None, True
        )

    # -- reading ------------------------------------------------------- #

    def by_entry(self) -> List[Dict[str, Any]]:
        return [
            {
                "layer": layer,
                "name": name,
                "calls": self.calls[index],
                "self_s": self.self_ns[index] / 1e9,
            }
            for index, (layer, name) in enumerate(self.entries)
        ]

    def dump_spans(self, path: str) -> int:
        """Write the span log as JSON lines; returns spans written."""
        if self.spans is None:
            raise RuntimeError("recorder was not created with keep_spans")
        with open(path, "w") as out:
            for span, parent, root, entry, start, end in self.spans.rows():
                layer, name = self.entries[entry]
                out.write(
                    json.dumps([span, parent, root, layer, name, start, end])
                    + "\n"
                )
        return len(self.spans)


def merge_entries(parts: List[List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """Sum ``by_entry()`` tables (master plus forked workers)."""
    merged: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for part in parts:
        for row in part:
            key = (row["layer"], row["name"])
            into = merged.setdefault(
                key, {"layer": key[0], "name": key[1], "calls": 0, "self_s": 0.0}
            )
            into["calls"] += row["calls"]
            into["self_s"] += row["self_s"]
    return sorted(merged.values(), key=lambda row: (row["layer"], row["name"]))


def by_layer(entries: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    layers: Dict[str, Dict[str, Any]] = {}
    for row in entries:
        into = layers.setdefault(row["layer"], {"calls": 0, "self_s": 0.0})
        into["calls"] += row["calls"]
        into["self_s"] += row["self_s"]
    return layers


_MISSING = object()


class Patcher:
    """Attribute replacement that can be undone, newest first."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        # ``__dict__`` lookup keeps an inherited attribute inherited
        # after restore (BatchedUdpTransport.bind is UdpTransport.bind).
        original = vars(owner).get(attr, _MISSING)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def set_function(self, module: Any, name: str, value: Any) -> None:
        """Replace a module-level function, including the copies other
        ``repro`` modules bound with ``from module import name``."""
        original = getattr(module, name)
        self.set(module, name, value)
        for mod_name, other in list(sys.modules.items()):
            if other is module or not mod_name.startswith("repro"):
                continue
            for attr, bound in list(vars(other).items()):
                if bound is original:
                    self.set(other, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def install(rec: Recorder, patcher: Patcher) -> None:
    """Wrap every public entry point the ledger names.

    Must run before the objects under test are created: transports
    capture ``node.handle_packet`` as a bound method at ``bind`` time.
    """
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
    from repro.swim.messages import PushPull
    from repro.swim.node import SwimNode
    from repro.sync.engine import SyncEngine
    from repro.transport.fastudp import BatchedUdpTransport, PacketPump
    from repro.transport.udp import UdpTransport
    from repro.zones import frames, sharded
    from repro.zones.bridge import ZoneBridge
    from repro.zones.cluster import ZonedCluster, ZoneShard

    def methods(cls: type, layer: str, *names: str) -> None:
        for name in names:
            patcher.set(
                cls, name, rec.wrap(getattr(cls, name), layer, f"{cls.__name__}.{name}")
            )

    methods(SimCluster, "sim.runtime", "__init__", "start", "stop")
    methods(ZonedCluster, "zones.cluster", "__init__", "start", "run_until", "stop")
    methods(
        ZoneShard, "zones.cluster",
        "__init__", "start", "run_until", "stop",
        "outbox_frame", "deliver_frame", "collect_outbox", "deliver",
    )
    methods(SimNetwork, "sim.network", "send", "inject", "deliver_now")
    methods(AnomalyController, "sim.anomaly", "cyclic_windows", "block_windows")
    methods(SwimNode, "swim.node", "handle_packet", "start", "stop", "apply_external_claim")
    methods(
        MemberMap, "swim.member_map",
        "add", "merge_claim", "merge_remote_state", "merge_remote_wire_state",
        "snapshot", "alive_members", "random_members", "next_probe_target",
        "reclaim_dead",
    )
    methods(BroadcastQueue, "swim.broadcast", "enqueue", "get_payloads", "invalidate")
    methods(SyncEngine, "sync.engine", "push_pull_round", "handle_push_pull", "merge")
    methods(Suspicion, "core.suspicion", "__init__", "confirm")
    methods(LocalHealthMultiplier, "core.lhm", "note", "note_all")
    methods(ZoneBridge, "zones.bridge", "start", "receive")
    methods(frames.FrameBuffer, "zones.frames", "append")
    methods(
        frames.BarrierRing, "zones.frames",
        "write_out", "read_out", "write_in", "read_in",
    )
    methods(UdpTransport, "transport.udp", "send")
    methods(BatchedUdpTransport, "transport.fastudp", "send", "send_encoded")
    methods(PacketPump, "transport.fastudp", "send", "flush_now")
    methods(Telemetry, "metrics.telemetry", "record_send", "record_receive")
    patcher.set(
        ClusterEventLog, "__call__",
        rec.wrap(ClusterEventLog.__call__, "metrics.telemetry", "ClusterEventLog.listener"),
    )

    # Anomaly interception: count what the controller actually queued.
    def queued(_args: tuple, intercepted: bool) -> None:
        if intercepted:
            rec.count("sim.anomaly.queued")

    for name in ("intercept_send", "intercept_delivery"):
        patcher.set(
            AnomalyController, name,
            rec.wrap(
                getattr(AnomalyController, name), "sim.anomaly",
                f"AnomalyController.{name}", observe=queued,
            ),
        )

    # Codec: byte counts at the boundary. node.py, broadcast.py and
    # fastudp.py call ``codec.x`` through the module, so replacing the
    # module attribute takes effect; zones.bridge imported ``encode`` by
    # name, which ``set_function`` rebinds as well.
    def encoded(args: tuple, wire: bytes) -> None:
        rec.count("swim.codec.encode_bytes", len(wire))
        if args[0].__class__ is PushPull:
            rec.count("swim.codec.pushpull_bytes", len(wire))

    def encoded_into(args: tuple, appended: int) -> None:
        rec.count("swim.codec.encode_bytes", appended)
        if args[0].__class__ is PushPull:
            rec.count("swim.codec.pushpull_bytes", appended)

    def decoded(args: tuple, _message: Any) -> None:
        rec.count("swim.codec.decode_bytes", len(args[0]))

    for name, observe in (
        ("encode", encoded),
        ("encode_into", encoded_into),
        ("decode", decoded),
        ("pack_with_piggyback", None),
        ("pack_encoded_with_piggyback", None),
        ("pack_encoded_with_piggyback_into", None),
    ):
        patcher.set_function(
            codec, name,
            rec.wrap(getattr(codec, name), "swim.codec", name, observe=observe),
        )

    patcher.set_function(
        frames, "iter_records",
        rec.wrap_generator(frames.iter_records, "zones.frames", "iter_records"),
    )
    patcher.set_function(
        sharded, "run_zoned", rec.wrap(sharded.run_zoned, "zones.sharded", "run_zoned")
    )

    # Scheduler: heap operations are sim.scheduler; every callback is
    # re-wrapped as it crosses call_at and charged to its own module.
    methods(EventScheduler, "sim.scheduler", "run_until")
    span_call_at = rec.wrap(EventScheduler.call_at, "sim.scheduler", "EventScheduler.call_at")
    handle_types: set = set()

    def call_at(self: Any, when: float, callback: Callable[[], None]) -> Any:
        handle = span_call_at(self, when, rec.wrap_callback(callback))
        handle_type = type(handle)
        if handle_type not in handle_types:
            handle_types.add(handle_type)
            patcher.set(
                handle_type, "cancel",
                rec.wrap(handle_type.cancel, "sim.scheduler", "TimerHandle.cancel"),
            )
        return handle

    call_at.__wrapped__ = EventScheduler.call_at  # type: ignore[attr-defined]
    patcher.set(EventScheduler, "call_at", call_at)

    # Real transports: the handler handed to bind() is the root span of
    # each received datagram.
    original_bind = UdpTransport.bind

    def bind(self: Any, handler: Callable[..., None]) -> None:
        layer = (
            "transport.fastudp" if isinstance(self, BatchedUdpTransport)
            else "transport.udp"
        )
        original_bind(self, rec.wrap(handler, layer, "datagram_handler", root=True))

    bind.__wrapped__ = original_bind  # type: ignore[attr-defined]
    patcher.set(UdpTransport, "bind", bind)
