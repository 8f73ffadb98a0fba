"""A dependency-free metrics registry with Prometheus semantics.

Three metric types, all optionally labelled:

* :class:`Counter` — monotonically increasing totals.
* :class:`Gauge` — point-in-time values.
* :class:`Histogram` — fixed cumulative buckets plus ``_sum``/``_count``.

Metrics are owned by a :class:`MetricsRegistry`. A family holds two
kinds of series: *stored* children, written by direct instrumentation
(``counter.labels(node="a").inc()``), and sources *read in place* when
the family is sampled (:meth:`Metric.read` / :meth:`Metric.watch`) — the
protocol's own counters stay where the hot path increments them and a
scrape copies nothing. :class:`NodeCollector` attaches one
:class:`~repro.swim.node.SwimNode` that way, from declaration tables:
member counts by state, incarnation, LHM score, scaled probe timing,
suspicion-table size, broadcast-queue depths, every counter declared in
:data:`~repro.metrics.telemetry.TELEMETRY_STATS`, the
:class:`~repro.metrics.telemetry.TransportStats` event, syscall and
batch-size series, and the probe-scheduler-selection counter. Two
stored histograms are fed by node hooks: probe RTT
(:attr:`SwimNode.on_probe_rtt <repro.swim.node.SwimNode.on_probe_rtt>`)
and changes per push-pull merge
(:attr:`SwimNode.on_sync_merge <repro.swim.node.SwimNode.on_sync_merge>`).

Every per-node sample carries a ``node`` label, so one registry can host
a whole simulated cluster (see
:meth:`SimCluster.install_ops_registry
<repro.sim.runtime.SimCluster.install_ops_registry>`) with the same
metric names a single live member exposes over HTTP.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.lhm import LhmEvent
from repro.metrics.telemetry import TELEMETRY_STATS, Stat
from repro.swim.state import MemberState

#: ``((label name, label value), ...)`` in the family's label order.
LabelPairs = Tuple[Tuple[str, str], ...]
#: A source read in place: returns ``(label pairs, value)`` per series
#: (``value`` is a :class:`_HistogramChild` for a histogram family).
Reader = Callable[[], Iterable[Tuple[LabelPairs, object]]]

#: Cumulative upper bounds (seconds) for the probe-RTT histogram. Spans
#: loopback (sub-millisecond) through LHM-scaled WAN timeouts.
DEFAULT_RTT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Cumulative upper bounds for the changes-per-merge histogram. A steady
#: cluster merges mostly zeroes; post-partition catch-up merges can apply
#: on the order of the member count.
SYNC_MERGE_BUCKETS: Tuple[float, ...] = (0, 1, 2, 5, 10, 25, 50, 100, 250)

#: Cumulative upper bounds for datagrams-per-syscall. Powers of two up
#: to twice the default ``transport_batch_size``; the asyncio backend
#: lands everything in the first bucket, full recvmmsg drains on the
#: batched backend land at the configured batch size.
TRANSPORT_BATCH_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class _Child:
    """One labelled time series inside a metric family."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


class _HistogramChild:
    """One histogram series. Holds its family's bounds, so the hook that
    feeds it calls :meth:`observe` directly — labels validated and the
    series resolved once, by :meth:`Metric.labels`, not per observation."""

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``n`` observations of ``value``."""
        self.sum += value * n
        self.count += n
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += n
                break


class Metric:
    """Base class for one metric family (name + type + label names)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str]) -> None:
        if not name or not name.replace("_", "a").isalnum() or name[0].isdigit():
            raise ValueError(f"invalid metric name: {name!r}")
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], object] = {}
        self._readers: List[Reader] = []

    def _child_for(self, labels: Dict[str, str]):
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[k]) for k in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_child()
        return child

    def _new_child(self):
        return _Child()

    def labels(self, **labels: str):
        """The child series for the given label values (created lazily)."""
        return self._child_for(labels)

    def read(self, reader: Reader) -> None:
        """Attach a source that is read in place whenever the family is
        sampled; its series appear after the stored children."""
        self._readers.append(reader)

    def watch(self, label_pairs: LabelPairs, get: Callable[[], float]) -> None:
        """Attach one fixed series whose value is ``get()`` at sample
        time. The label tuple is validated and resolved once, here."""
        if tuple(name for name, _ in label_pairs) != self.labelnames:
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {label_pairs}"
            )
        self._readers.append(lambda: ((label_pairs, get()),))

    def samples(self) -> Iterable[Tuple[str, LabelPairs, float]]:
        """Yield ``(sample_name, label_pairs, value)`` for exposition."""
        for key, child in self._children.items():
            yield self.name, tuple(zip(self.labelnames, key)), child.value
        for read in self._readers:
            for label_pairs, value in read():
                yield self.name, label_pairs, value


class _CounterChild(_Child):
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class Counter(Metric):
    kind = "counter"

    def _new_child(self):
        return _CounterChild()

    def inc(self, amount: float = 1, **labels: str) -> None:
        self._child_for(labels).inc(amount)


class _GaugeChild(_Child):
    __slots__ = ()

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Gauge(Metric):
    kind = "gauge"

    def _new_child(self):
        return _GaugeChild()

    def set(self, value: float, **labels: str) -> None:
        self._child_for(labels).set(value)


class Histogram(Metric):
    """Fixed-bucket histogram (cumulative ``le`` buckets, Prometheus style)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_RTT_BUCKETS,
    ) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be sorted and distinct")
        super().__init__(name, help_text, labelnames)
        self.buckets = bounds

    def _new_child(self):
        return _HistogramChild(self.buckets)

    def observe(self, value: float, **labels: str) -> None:
        self._child_for(labels).observe(value)

    def samples(self):
        for key, child in self._children.items():
            yield from self._child_samples(tuple(zip(self.labelnames, key)), child)
        for read in self._readers:
            for label_pairs, child in read():
                yield from self._child_samples(label_pairs, child)

    def _child_samples(self, base: LabelPairs, child: _HistogramChild):
        cumulative = 0
        for bound, count in zip(self.buckets, child.bucket_counts):
            cumulative += count
            yield (
                self.name + "_bucket",
                base + (("le", _format_bound(bound)),),
                cumulative,
            )
        yield self.name + "_bucket", base + (("le", "+Inf"),), child.count
        yield self.name + "_sum", base, child.sum
        yield self.name + "_count", base, child.count


def _format_bound(bound: float) -> str:
    return repr(bound) if bound != int(bound) else f"{bound:g}.0"


class MetricsRegistry:
    """Owns metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same family (so several
    :class:`NodeCollector` instances can share families, distinguished by
    their ``node`` label), but re-asking with a different type or label
    set is an error.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name, help_text, labelnames, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered with a different "
                    f"type or label set"
                )
            return existing
        metric = cls(name, help_text, labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_RTT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def collect(self) -> List[Metric]:
        """All families, sorted by name for stable exposition output."""
        return [self._metrics[name] for name in sorted(self._metrics)]


def watch_stats(
    registry: MetricsRegistry,
    stats: Iterable[Stat],
    base: LabelPairs,
    read_field: Callable[[str], object],
) -> None:
    """Expose every counter of a declaration table under ``base`` labels.

    ``read_field(field)`` returns the field's current total — or, for a
    counter keyed by a dynamic label, its ``{label value: total}``
    mapping, whose label set is discovered each time it is sampled.
    """
    base_names = tuple(name for name, _ in base)
    for stat in stats:
        family = registry.counter(
            stat.family, stat.help, base_names + stat.labelnames
        )
        get = partial(read_field, stat.field)
        if stat.key is None:
            family.watch(base + stat.labels, get)
        else:
            family.read(
                lambda fixed=base + stat.labels, key=stat.key, get=get: [
                    (fixed + ((key, value),), total)
                    for value, total in get().items()
                ]
            )


def watch_series(registry: MetricsRegistry, rows, base: LabelPairs, source) -> None:
    """Attach a table of ``(type, family, help, fixed labels, read)``
    rows under ``base`` labels: one series per row, whose value is
    ``read(source)`` each time it is sampled."""
    base_names = tuple(name for name, _ in base)
    for kind, family, help_text, labels, read in rows:
        names = base_names + tuple(name for name, _ in labels)
        getattr(registry, kind)(family, help_text, names).watch(
            base + labels, partial(read, source)
        )


#: :class:`~repro.metrics.telemetry.TransportStats` counters with a
#: plain dynamic label; the per-backend series need ``backend`` and are
#: read by :meth:`NodeCollector._per_backend`.
_TRANSPORT_STATS = (
    Stat(
        "events",
        "lifeguard_transport_events_total",
        "Channel-level transport events (see TransportStats).",
        key="event",
    ),
)

#: What a node exposes besides its stats tables, as
#: :func:`watch_series` rows read from the node.
_NODE_SERIES = (
    *(
        (
            "gauge",
            "lifeguard_members",
            "Known members by state, as seen by this node (includes itself).",
            (("state", state.name.lower()),),
            lambda node, state=state: node.members.num_in_state(state),
        )
        for state in MemberState
    ),
    ("gauge", "lifeguard_incarnation", "This member's own incarnation number.", (),
     lambda node: node.incarnation),
    ("gauge", "lifeguard_lhm_score",
     "Current Local Health Multiplier score (0 = healthy).", (),
     lambda node: node.local_health.score),
    ("gauge", "lifeguard_lhm_max", "LHM saturation limit S.", (),
     lambda node: node.local_health.max_value),
    ("gauge", "lifeguard_probe_interval_seconds",
     "LHM-scaled probe interval currently in effect.", (),
     lambda node: node.current_probe_interval()),
    ("gauge", "lifeguard_probe_timeout_seconds",
     "LHM-scaled probe timeout currently in effect.", (),
     lambda node: node.current_probe_timeout()),
    ("gauge", "lifeguard_suspicions", "Entries in the local suspicion table.", (),
     lambda node: node.suspicion_count),
    ("gauge", "lifeguard_broadcast_queue_depth",
     "Broadcasts pending in the gossip queues.", (("queue", "system"),),
     lambda node: len(node.broadcasts)),
    ("gauge", "lifeguard_broadcast_queue_depth",
     "Broadcasts pending in the gossip queues.", (("queue", "user"),),
     lambda node: len(node.user_broadcasts)),
    ("gauge", "lifeguard_node_running", "1 while the protocol loops are running.", (),
     lambda node: 1 if node.running else 0),
    *(
        (
            "counter",
            "lifeguard_lhm_events_total",
            "Local Health events recorded, by kind (counted even when "
            "LHA-Probe is disabled).",
            (("event", event.value),),
            lambda node, event=event: node.local_health.event_count(event),
        )
        for event in LhmEvent
    ),
)


class NodeCollector:
    """Exposes one :class:`~repro.swim.node.SwimNode` through a registry.

    All samples carry a ``node`` label with the member name. Construction
    registers (or reuses) the metric families and attaches the node's
    state and counters to them, to be read in place on every scrape;
    :meth:`install_rtt_hook` additionally wires the node's ack-latency
    hook into the ``lifeguard_probe_rtt_seconds`` histogram.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        node,
        rtt_buckets: Sequence[float] = DEFAULT_RTT_BUCKETS,
    ) -> None:
        self.registry = registry
        self.node = node
        base = (("node", node.name),)
        watch_series(registry, _NODE_SERIES, base, node)
        telemetry = node.telemetry
        watch_stats(registry, TELEMETRY_STATS, base, partial(getattr, telemetry))
        transport = telemetry.transport
        watch_stats(registry, _TRANSPORT_STATS, base, partial(getattr, transport))
        per_backend = ("node", "backend", "direction")
        registry.counter(
            "lifeguard_transport_syscalls_total",
            "Datagram syscalls issued by the transport backend (one "
            "recvmmsg/sendmmsg may move many datagrams).",
            per_backend,
        ).read(
            partial(
                self._per_backend,
                lambda direction: transport.get(f"udp_{direction}_syscalls"),
            )
        )
        batch = registry.histogram(
            "lifeguard_transport_batch_size",
            "Datagrams moved per datagram syscall, by backend and "
            "direction (always 1 on the asyncio backend; actual "
            "recvmmsg/sendmmsg batch sizes on the batched backend).",
            per_backend,
            buckets=TRANSPORT_BATCH_BUCKETS,
        )
        batch.read(partial(self._per_backend, partial(self._batches, batch)))
        scheduler = node.members.probe_scheduler
        registry.counter(
            "lifeguard_probe_scheduler_selections_total",
            "Probe targets selected, labelled by scheduling strategy "
            "(see docs/PROBE_SCHEDULING.md).",
            ("node", "strategy"),
        ).read(
            lambda: ((base + (("strategy", scheduler.name),), scheduler.selections),)
        )
        self.sync_merge_changes = registry.histogram(
            "lifeguard_sync_merge_changes",
            "State changes applied per push-pull merge (0 = the snapshot "
            "taught us nothing; fed by the node's on_sync_merge hook).",
            ("node",),
            buckets=SYNC_MERGE_BUCKETS,
        )
        self._sync_merge_child = self.sync_merge_changes.labels(node=node.name)
        self.rtt = registry.histogram(
            "lifeguard_probe_rtt_seconds",
            "Round-trip time of directly acked probes (ack received "
            "within the probe timeout; indirect and nack paths excluded).",
            ("node",),
            buckets=rtt_buckets,
        )
        self._rtt_child = self.rtt.labels(node=node.name)

    def install_rtt_hook(self) -> None:
        """Point the node's ack-latency hook at the RTT histogram."""
        self.node.on_probe_rtt = self.observe_rtt

    def install_sync_hook(self) -> None:
        """Point the node's merge hook at the changes-per-merge histogram."""
        self.node.on_sync_merge = self.observe_sync_merge

    def observe_rtt(self, target: str, rtt: float) -> None:
        del target  # per-target RTT series would explode cardinality
        self._rtt_child.observe(rtt)

    def observe_sync_merge(self, changes: int) -> None:
        self._sync_merge_child.observe(changes)

    def _per_backend(self, value: Callable[[str], object]):
        """One series per direction, labelled with the transport's
        backend — none until a transport with a syscall layer has
        adopted the node's ``TransportStats``."""
        backend = self.node.telemetry.transport.backend
        if backend:
            base = (("node", self.node.name), ("backend", backend))
            for direction in ("send", "recv"):
                yield base + (("direction", direction),), value(direction)

    def _batches(self, histogram: Histogram, direction: str) -> _HistogramChild:
        """One direction's ``(direction, size) -> syscalls`` counters as
        a histogram series, bucketed when sampled."""
        child = histogram._new_child()
        for (d, size), n in self.node.telemetry.transport.batches.items():
            if d == direction:
                child.observe(size, n)
        return child
