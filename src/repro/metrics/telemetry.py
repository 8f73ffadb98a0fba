"""Message and byte accounting, per member and aggregated.

The paper's Table VI counts *compound* messages (a failure-detector
message plus piggybacked gossip) as a single message, and measures total
bytes on the wire. :class:`Telemetry` is fed one record per packet by the
protocol node, labelled with the primary message kind.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Tuple


class TransportStats:
    """Channel-level counters for a real-network transport.

    The protocol-level :class:`Telemetry` counts messages the *node*
    decided to send; ``TransportStats`` counts what happened underneath —
    connections opened/reused/closed, retries, drops, truncated frames.
    Event names are free-form strings so transports can add events without
    touching this module; the well-known ones emitted by
    :class:`repro.transport.udp.UdpTransport` are:

    ``udp_send_error``, ``reliable_send_ok``, ``reliable_send_failed``,
    ``reliable_connect_retries``, ``conns_opened``, ``conns_reused``,
    ``conns_closed_idle``, ``conns_closed_surplus``,
    ``conns_closed_error``, ``connect_failures``, ``frames_received``,
    ``frames_truncated``, ``frames_oversized``,
    ``datagrams_buffered_early``, ``datagrams_dropped_early``,
    ``reliable_failure_signals``, ``udp_send_syscalls``,
    ``udp_recv_syscalls``; the batched backend adds
    ``datagrams_truncated``, ``udp_recv_error`` and ``udp_gso_refused``
    (a run of same-size datagrams the kernel would not send as one
    ``UDP_SEGMENT`` header, sent again one datagram per header).

    Beyond plain event counts, transports record the number of datagrams
    moved per send/receive syscall via :meth:`record_batch`; the
    ``(direction, size)`` histogram feeds the per-backend
    ``lifeguard_transport_batch_size`` metric. The default asyncio
    backend always records size 1 (one datagram per syscall); the
    batched backend (:mod:`repro.transport.fastudp`) records the actual
    ``recvmmsg``/``sendmmsg`` batch sizes. :attr:`backend` carries the
    owning transport's backend name once the transport adopts the stats
    object (``""`` for transports without a syscall layer, e.g. the
    simulator's).
    """

    __slots__ = ("events", "batches", "backend")

    def __init__(self) -> None:
        self.events: Counter = Counter()
        #: ``(direction, batch_size) -> occurrences`` for syscall batches.
        self.batches: Counter = Counter()
        #: Name of the transport backend feeding these stats.
        self.backend: str = ""

    def incr(self, event: str, n: int = 1) -> None:
        self.events[event] += n

    def get(self, event: str) -> int:
        return self.events[event]

    def record_batch(self, direction: str, size: int, n: int = 1) -> None:
        """Record ``n`` syscalls that each moved ``size`` datagrams."""
        self.batches[(direction, size)] += n

    def merge(self, other: "TransportStats") -> None:
        self.events.update(other.events)
        self.batches.update(other.batches)
        if not self.backend:
            self.backend = other.backend

    def as_dict(self) -> Dict[str, int]:
        return dict(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TransportStats({dict(self.events)})"


class Stat(NamedTuple):
    """One declared counter: where it is stored and how it is exposed.

    ``field`` is the attribute on the stats object, ``family`` the
    ``/metrics`` family it is exposed under with ``labels`` as fixed
    ``(name, value)`` pairs. A counter broken down by a dynamic label
    names that label in ``key``: its field is a ``Counter`` mapping
    label values to totals rather than a plain int.
    """

    field: str
    family: str
    help: str
    labels: Tuple[Tuple[str, str], ...] = ()
    key: Optional[str] = None

    @property
    def labelnames(self) -> Tuple[str, ...]:
        names = tuple(name for name, _ in self.labels)
        return names if self.key is None else names + (self.key,)


_FALLBACK_HELP = (
    "Reliable-channel fallback probes by outcome (sent / ack / failure; "
    "an acked fallback suppresses the indirect round)."
)
_SYNCS_HELP = (
    "Push-pull anti-entropy activity by kind (initiated / replies / merges)."
)

#: Every :class:`Telemetry` counter, declared once. ``__slots__``,
#: zeroing, ``merge``, ``as_dict`` / ``from_dict`` and the ``/metrics``
#: families (:class:`repro.ops.registry.NodeCollector`) all derive from
#: this table: adding a counter is one line here plus its increment.
TELEMETRY_STATS: Tuple[Stat, ...] = (
    Stat("msgs_sent", "lifeguard_msgs_sent_total", "Messages sent (compound = 1)."),
    Stat("bytes_sent", "lifeguard_bytes_sent_total", "Payload bytes sent."),
    Stat("msgs_by_kind", "lifeguard_msgs_sent_by_kind_total",
         "Messages sent by primary message kind.", key="kind"),
    Stat("bytes_by_kind", "lifeguard_bytes_sent_by_kind_total",
         "Payload bytes sent by primary message kind.", key="kind"),
    Stat("msgs_received", "lifeguard_msgs_received_total", "Messages received."),
    Stat("bytes_received", "lifeguard_bytes_received_total",
         "Payload bytes received."),
    Stat("reliable_msgs_sent", "lifeguard_reliable_msgs_sent_total",
         "Messages sent over the reliable channel."),
    Stat("reliable_bytes_sent", "lifeguard_reliable_bytes_sent_total",
         "Payload bytes sent over the reliable channel."),
    Stat("oversized_broadcasts", "lifeguard_oversized_broadcasts_total",
         "Broadcasts dropped as undeliverably large."),
    # TCP fallback probes (fired when a direct UDP probe times out).
    Stat("fallback_probes_sent", "lifeguard_fallback_probes_total",
         _FALLBACK_HELP, (("outcome", "sent"),)),
    Stat("fallback_probe_acks", "lifeguard_fallback_probes_total",
         _FALLBACK_HELP, (("outcome", "ack"),)),
    Stat("fallback_probe_failures", "lifeguard_fallback_probes_total",
         _FALLBACK_HELP, (("outcome", "failure"),)),
    # Anti-entropy push-pull sync.
    Stat("syncs_initiated", "lifeguard_syncs_total", _SYNCS_HELP,
         (("kind", "initiated"),)),
    Stat("sync_replies_sent", "lifeguard_syncs_total", _SYNCS_HELP,
         (("kind", "replies"),)),
    Stat("sync_merges", "lifeguard_syncs_total", _SYNCS_HELP,
         (("kind", "merges"),)),
    Stat("sync_entries_merged", "lifeguard_sync_entries_merged_total",
         "Member-table entries examined by push-pull merges."),
    Stat("sync_changes_applied", "lifeguard_sync_changes_total",
         "Local state changes applied by push-pull merges."),
)

#: ``(field, zero factory)``: ``int`` for plain totals, ``Counter`` for
#: the by-label breakdowns.
_FIELDS = tuple(
    (stat.field, int if stat.key is None else Counter) for stat in TELEMETRY_STATS
)


class Telemetry:
    """Counters for one member's sent (and optionally received) traffic.

    The counters are the fields of :data:`TELEMETRY_STATS` — plain int
    slots (``Counter`` for the by-kind breakdowns) — plus the
    channel-level :class:`TransportStats` under ``transport``.
    """

    __slots__ = tuple(field for field, _ in _FIELDS) + ("transport",)

    def __init__(self) -> None:
        for field, zero in _FIELDS:
            setattr(self, field, zero())
        self.transport = TransportStats()

    def record_send(self, kind: str, n_bytes: int, reliable: bool = False) -> None:
        """Record one outgoing packet of the given primary ``kind``."""
        self.msgs_sent += 1
        self.bytes_sent += n_bytes
        self.msgs_by_kind[kind] += 1
        self.bytes_by_kind[kind] += n_bytes
        if reliable:
            self.reliable_msgs_sent += 1
            self.reliable_bytes_sent += n_bytes

    def record_receive(self, n_bytes: int) -> None:
        self.msgs_received += 1
        self.bytes_received += n_bytes

    def record_oversized_broadcast(self, n_bytes: int) -> None:
        """Record a broadcast dropped because it can never fit a packet."""
        del n_bytes  # size kept in the signature for future byte accounting
        self.oversized_broadcasts += 1

    def merge(self, other: "Telemetry") -> None:
        """Fold ``other``'s counters into this one (for aggregation)."""
        for field, zero in _FIELDS:
            if zero is int:
                setattr(self, field, getattr(self, field) + getattr(other, field))
            else:
                getattr(self, field).update(getattr(other, field))
        self.transport.merge(other.transport)

    @classmethod
    def aggregate(cls, parts: Iterable["Telemetry"]) -> "Telemetry":
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            field: getattr(self, field) if zero is int else dict(getattr(self, field))
            for field, zero in _FIELDS
        }
        out["transport"] = self.transport.as_dict()
        return out

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "Telemetry":
        """Inverse of :meth:`as_dict`. A counter the record lacks (a
        trace written before the counter existed) loads as zero."""
        telemetry = cls()
        for field, zero in _FIELDS:
            if field not in record:
                continue
            if zero is int:
                setattr(telemetry, field, int(record[field]))
            else:
                getattr(telemetry, field).update(record[field])
        for event, count in record.get("transport", {}).items():
            telemetry.transport.incr(event, int(count))
        return telemetry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Telemetry({self.as_dict()})"
