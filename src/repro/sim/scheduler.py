"""The discrete-event loop.

A binary heap of timestamped callbacks with lazy cancellation. Events at
the same timestamp run in scheduling order (FIFO), which keeps runs
deterministic and matches the intuition that a callback scheduled first
was 'armed' first.

Cancellation is lazy (the heap entry is skipped when popped), but the
scheduler maintains an exact count of cancelled-but-still-heaped entries
so ``len()`` is O(1) and the heap is compacted in place once cancelled
entries dominate — per-tick timer churn (probe timeouts, suspicion
deadlines, sync rounds) would otherwise grow the heap without bound on
long runs. Compaction rebuilds the heap from the live entries only;
because events are strictly totally ordered by ``(when, seq)``, the pop
order — and therefore seeded-run behavior — is unchanged.

An event is its own heap entry: a ``list`` subclass whose list part is
``[when, seq]``, so ``heapq`` orders events with ``list``'s C comparison
and no Python-level ``__lt__`` runs per sift step. ``seq`` is unique,
which makes the order strict and means two events never compare equal.
"""

from __future__ import annotations

import functools
import gc
import heapq
import math
from typing import Any, Callable, List, Optional, TypeVar

from repro.sim.clock import VirtualClock

#: Compact when the heap holds more than this many cancelled entries...
_COMPACT_MIN_CANCELLED = 512
#: ...and they make up more than half the heap.
_COMPACT_FRACTION = 0.5


class _Event(list):
    """``[when, seq]`` plus the callback: the timer handle and the heap
    entry in one object (a ``(when, seq, event)`` tuple per entry would
    order the same way, with a second GC-tracked object per pending
    event). Built by :meth:`EventScheduler.call_at` only."""

    __slots__ = ("callback", "cancelled", "_sched")

    callback: Callable[[], None]
    cancelled: bool
    # Back-reference for the cancelled-entry count; cleared when the
    # event leaves the heap so late cancels don't skew the counter.
    _sched: Optional["EventScheduler"]

    # list's equality is by content, and no two events share a seq, so
    # it is identity here and identity hashing agrees with it.
    __hash__ = object.__hash__  # type: ignore[assignment]

    def cancel(self) -> None:
        # Lazy cancellation: the heap entry is skipped when popped.
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = _noop
        sched = self._sched
        if sched is not None:
            sched._note_cancelled()


def _noop() -> None:
    return None


_F = TypeVar("_F", bound=Callable[..., Any])


def collector_paused(fn: _F) -> _F:
    """Run ``fn`` with CPython's cyclic collector switched off.

    Building a cluster and driving its event loop allocate heavily and
    make no garbage cycles (``tests/sim/test_collector.py`` pins that),
    so every generation pass that lands in them walks a heap of live
    objects and frees nothing. The collector is switched back on when
    ``fn`` returns or raises, and nothing else is done: no collection,
    no freeze, no thresholds — what ``fn`` allocated is examined by the
    first pass after it. Under another paused call, or when the caller
    already runs with the collector off, this is a plain call. The
    switch is process-wide: cycles made by a listener or an event tap
    while ``fn`` runs wait until it returns.
    """

    @functools.wraps(fn)
    def paused(*args: Any, **kwargs: Any) -> Any:
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused  # type: ignore[return-value]


class EventScheduler:
    """Schedules and runs callbacks in virtual time.

    Satisfies the :class:`repro.runtime.Scheduler` protocol; the returned
    :class:`_Event` objects satisfy :class:`repro.runtime.TimerHandle`.
    """

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self._heap: List[_Event] = []
        self._seq = 0
        #: Cancelled events still sitting in the heap.
        self._cancelled = 0
        #: Total events executed (telemetry / performance reporting).
        self.executed = 0
        #: Heap compactions performed (performance telemetry).
        self.compactions = 0
        #: Optional tap invoked as ``on_event(now)`` after every executed
        #: event, once its callback (and everything it did synchronously)
        #: has completed. The event-boundary hook used by the invariant
        #: oracles in :mod:`repro.check`: handlers run atomically within
        #: an event, so state seen here is always at a consistent point.
        self.on_event: Optional[Callable[[float], None]] = None

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled > _COMPACT_MIN_CANCELLED
            and self._cancelled > len(self._heap) * _COMPACT_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors.

        Pop order is unaffected: ``(when, seq)`` is a strict total order,
        so any valid heap of the same live set pops identically.
        """
        for event in self._heap:
            if event.cancelled:
                event._sched = None
        # In place: run_until holds a local alias to the heap list.
        self._heap[:] = [event for event in self._heap if not event.cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1

    def call_at(self, when: float, callback: Callable[[], None]) -> _Event:
        """Schedule ``callback`` at absolute virtual time ``when``.

        Scheduling in the past is clamped to 'now' (the event runs on the
        next pump), mirroring asyncio's behaviour.
        """
        now = self.clock._now
        if when < now:
            when = now
        seq = self._seq = self._seq + 1
        event = _Event((when, seq))
        event.callback = callback
        event.cancelled = False
        event._sched = self
        heapq.heappush(self._heap, event)
        return event

    def call_later(self, delay: float, callback: Callable[[], None]) -> _Event:
        return self.call_at(self.clock.now + delay, callback)

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` when drained."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)._sched = None
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def _run(self, deadline: float, limit: float) -> int:
        """The drive loop behind :meth:`step` and :meth:`run_until`: run
        the events due by ``deadline`` in ``(when, seq)`` order, at most
        ``limit`` of them, and return how many ran.

        It runs once per simulated event, so popping and advancing the
        clock (``VirtualClock.advance_to``, never-backward check and
        all) are spelled out here instead of called.
        """
        heap = self._heap
        clock = self.clock
        heappop = heapq.heappop
        count = 0
        while heap and count < limit:
            event = heap[0]
            if event.cancelled:
                heappop(heap)._sched = None
                self._cancelled -= 1
                continue
            when = event[0]
            if when > deadline:
                break
            heappop(heap)
            event._sched = None
            if when < clock._now:
                raise ValueError(
                    f"cannot move clock backward: {when} < {clock._now}"
                )
            clock._now = when
            # Before the callback: a callback that raises still ran.
            self.executed += 1
            count += 1
            event.callback()
            if self.on_event is not None:
                self.on_event(clock._now)
        return count

    def step(self) -> bool:
        """Run the single next event. Returns ``False`` when drained."""
        return self._run(math.inf, 1) == 1

    @collector_paused
    def run_until(self, deadline: float) -> int:
        """Run all events with timestamps <= ``deadline``; the clock ends
        exactly at ``deadline``. Returns the number of events executed."""
        count = self._run(deadline, math.inf)
        clock = self.clock
        clock.advance_to(max(clock.now, deadline))
        return count

    def run_for(self, duration: float) -> int:
        return self.run_until(self.clock.now + duration)

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain (bounded, to catch runaway loops)."""
        count = 0
        while self.step():
            count += 1
            if count >= max_events:
                raise RuntimeError("scheduler drain exceeded max_events")
        return count
