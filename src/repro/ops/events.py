"""Bounded ring buffer of membership events with resumable streaming.

The paper's incident analysis (Figure 1) leaned on per-agent DEBUG logs;
:class:`EventStream` is the live equivalent: it is an
:class:`~repro.swim.events.EventListener` that stamps every
:class:`~repro.swim.events.MemberEvent` with a monotonically increasing
sequence number and retains the most recent ``capacity`` of them.
Consumers poll ``GET /events?since=<seq>`` (see :mod:`repro.ops.http`)
and resume from the last sequence number they saw — entries are returned
exactly once per consumer position, with no duplication across polls.

When a slow consumer falls further behind than the buffer holds, the gap
is *visible*: the first entry returned has a sequence number larger than
``since + 1`` and :attr:`EventStream.dropped` counts evictions.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List, Optional

from repro.swim.events import MemberEvent


def event_record(seq: int, event: MemberEvent) -> Dict[str, object]:
    """The JSON-safe wire form of one stamped event."""
    return {"seq": seq, **event.as_record()}


class EventStream:
    """A bounded, sequence-stamped sink for membership events.

    Usable directly as a node listener (``SwimNode(..., listener=stream)``
    or ``node.add_listener(stream)``).

    Parameters
    ----------
    capacity:
        Maximum retained events; the oldest are evicted first.
    """

    __slots__ = ("_entries", "_next_seq", "dropped")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._entries: "deque[Dict[str, object]]" = deque(maxlen=capacity)
        self._next_seq = 1
        #: Events evicted before any consumer could have read them via
        #: ``since=0`` (buffer overflow count).
        self.dropped = 0

    def __call__(self, event: MemberEvent) -> None:
        self.append(event)

    def append(self, event: MemberEvent) -> int:
        """Stamp and retain ``event``; returns its sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        if len(self._entries) == self._entries.maxlen:
            self.dropped += 1
        self._entries.append(event_record(seq, event))
        return seq

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest event (0 when none yet)."""
        return self._next_seq - 1

    @property
    def first_seq(self) -> int:
        """Sequence number of the oldest retained event (0 when empty)."""
        if not self._entries:
            return 0
        return self._entries[0]["seq"]  # type: ignore[return-value]

    def since(self, seq: int = 0, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Entries with sequence numbers strictly greater than ``seq``.

        Polling with the last seen sequence number yields each event
        exactly once. ``limit`` caps the batch size (oldest first).
        """
        out = [entry for entry in self._entries if entry["seq"] > seq]
        if limit is not None:
            out = out[:limit]
        return out

    @staticmethod
    def to_jsonl(records: List[Dict[str, object]]) -> str:
        """Render records as JSON lines (one object per line)."""
        return "".join(
            json.dumps(record, separators=(",", ":")) + "\n" for record in records
        )
