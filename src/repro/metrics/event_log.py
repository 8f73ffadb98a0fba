"""Cluster-wide membership event log.

Equivalent to the paper's per-agent DEBUG logs copied off the ramdisk and
analyzed after the fact — except here every node shares one sink (events
already carry their observer) and queries run in-process.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.metrics.analysis import first_failed_times
from repro.swim.events import EventKind, MemberEvent


class ClusterEventLog:
    """Collects :class:`MemberEvent` records from every node in a run."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[MemberEvent] = []

    def __call__(self, event: MemberEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def of_kind(self, kind: EventKind) -> List[MemberEvent]:
        return [e for e in self.events if e.kind is kind]

    def failure_events(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> List[MemberEvent]:
        """All FAILED events in the given window — the paper's 'failure
        events raised by Consul'."""
        return [
            e
            for e in self.events
            if e.kind is EventKind.FAILED and since <= e.time <= until
        ]

    def failures_about(self, subject: str) -> List[MemberEvent]:
        return [
            e
            for e in self.events
            if e.kind is EventKind.FAILED and e.subject == subject
        ]

    # The three queries below read :func:`first_failed_times`' table for
    # one subject instead of scanning the log themselves.

    def observers_declaring_failed(
        self, subject: str, since: float = float("-inf")
    ) -> Set[str]:
        return set(first_failed_times(self.events, {subject: since})[subject])

    def first_failure_time(
        self,
        subject: str,
        since: float = float("-inf"),
        observers: Optional[Iterable[str]] = None,
    ) -> Optional[float]:
        """Earliest FAILED event about ``subject`` (optionally restricted
        to a set of observers), or ``None``."""
        allowed = set(observers) if observers is not None else None
        firsts = first_failed_times(self.events, {subject: since}, allowed)
        return min(firsts[subject].values(), default=None)

    def full_dissemination_time(
        self, subject: str, observers: Iterable[str], since: float = float("-inf")
    ) -> Optional[float]:
        """Earliest time by which *every* given observer had declared
        ``subject`` failed, or ``None`` if some observer never did."""
        needed = set(observers)
        firsts = first_failed_times(self.events, {subject: since}, needed)[subject]
        return max(firsts.values()) if len(firsts) == len(needed) else None
