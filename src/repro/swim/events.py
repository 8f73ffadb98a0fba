"""Membership event notifications.

Every local state transition a member makes about a peer is surfaced as a
:class:`MemberEvent`. This is both the library's application-facing
callback interface (what Consul uses to trigger failovers) and the raw
material for the paper's metrics: a *failure event* is an
``EventKind.FAILED`` record, and false positives are failure events whose
subject was in fact healthy (Section V-F1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Tuple


class EventKind(enum.Enum):
    """What happened to the subject member, as seen by the observer."""

    #: A previously unknown member was learned about (join).
    JOINED = "joined"
    #: The observer began suspecting the subject.
    SUSPECTED = "suspected"
    #: The observer declared the subject failed (SWIM ``confirm`` /
    #: memberlist ``dead``). This is the paper's "failure event".
    FAILED = "failed"
    #: A dead or suspected subject was reinstated as alive.
    RESTORED = "restored"
    #: The subject announced a graceful leave.
    LEFT = "left"
    #: The subject's application metadata changed (memberlist's
    #: UpdateNode / Serf's member-update).
    UPDATED = "updated"


#: :meth:`MemberEvent.as_tuple`: (time, observer, subject, kind name,
#: incarnation).
SerializedEvent = Tuple[float, str, str, str, int]


@dataclass(frozen=True, slots=True)
class MemberEvent:
    """One membership state transition at one observer (immutable and
    slotted, like the protocol messages)."""

    time: float
    observer: str
    subject: str
    kind: EventKind
    incarnation: int

    # The two serial forms every writer and reader of events goes
    # through: a JSON-safe record (event logs, ``/events``) and a compact
    # picklable tuple (trace digests, shard workers).

    def as_record(self) -> Dict[str, object]:
        return {
            "t": self.time,
            "observer": self.observer,
            "subject": self.subject,
            "kind": self.kind.value,
            "incarnation": self.incarnation,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "MemberEvent":
        """Inverse of :meth:`as_record`; raises ``KeyError`` /
        ``ValueError`` / ``TypeError`` on a malformed record."""
        return cls(
            time=float(record["t"]),
            observer=record["observer"],
            subject=record["subject"],
            kind=EventKind(record["kind"]),
            incarnation=int(record["incarnation"]),
        )

    def as_tuple(self) -> SerializedEvent:
        return (
            self.time, self.observer, self.subject, self.kind.name, self.incarnation
        )

    @classmethod
    def from_tuple(cls, item: SerializedEvent) -> "MemberEvent":
        time, observer, subject, kind, incarnation = item
        return cls(time, observer, subject, EventKind[kind], incarnation)


#: Callback signature for membership event listeners.
EventListener = Callable[[MemberEvent], None]
