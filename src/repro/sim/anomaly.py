"""Anomaly injection — the paper's controlled slow-message-processing.

Section V-D: *"we induce slow message processing by pausing the sending
and receiving of protocol messages at selected group members for well
defined periods of time. We call each period of delay at one member an
anomaly."*

During a blocked window a member:

* does not put packets on the wire — attempted sends are queued and
  flushed, in order, when the window ends ("block immediately before
  sending");
* does not process inbound packets — deliveries are queued in a bounded
  buffer (a socket buffer analogue; overflowing packets are tail-dropped
  like a full UDP receive buffer) and processed when the window ends
  ("block after receiving");
* with ``stall_loops`` (the default, matching the paper's
  instrumentation): has its periodic protocol loops suspended, the way a
  goroutine blocked on its first send stalls the whole loop — the member
  initiates no new probes or gossip rounds while blocked. One-shot
  timers (probe timeouts, suspicion deadlines) keep firing, so a
  suspicion raised just before or during the window can still mature
  into a (false) failure declaration that escapes at unblock. In
  memberlist only the suspicion deadline is a ``time.AfterFunc``
  callback; DESIGN.md ("The rules, loop by loop") says what that
  implies for the probe's own timers.

Setting ``stall_loops=False`` gives the harsher io-only model in which
the member keeps probing into the void for the whole window; the
anomaly-model ablation benchmark compares the two.

The **CPU-stress mode** (used for the Figure 1 scenario) composes many
short random blocked windows over a stress period, modelling a process
that makes progress in small bursts while the `stress` tool starves it of
CPU.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

from repro.sim.scheduler import EventScheduler


class _BlockState:
    __slots__ = ("until", "pending_in", "pending_out", "dropped_in", "_capacity")

    def __init__(self, until: float, inbound_capacity: int) -> None:
        self.until = until
        self.pending_in: Deque[Tuple[bytes, str, bool]] = deque()
        self.pending_out: List[Tuple[str, bytes, bool]] = []
        self.dropped_in = 0
        # A full UDP socket buffer tail-drops the *newest* packet (unlike
        # deque(maxlen=...), which drops the oldest), so enforce capacity
        # explicitly in queue_in.
        self._capacity = inbound_capacity

    def queue_in(self, payload: bytes, src: str, reliable: bool) -> None:
        if len(self.pending_in) >= self._capacity:
            self.dropped_in += 1
            return
        self.pending_in.append((payload, src, reliable))


class AnomalyController:
    """Schedules and enforces anomaly windows for cluster members."""

    def __init__(
        self,
        scheduler: EventScheduler,
        network,
        inbound_capacity: int = 4096,
        stall_loops: bool = True,
    ) -> None:
        self._scheduler = scheduler
        self._network = network
        self._inbound_capacity = inbound_capacity
        self._blocked: Dict[str, _BlockState] = {}
        #: Whether blocked members' periodic protocol loops are suspended
        #: (the paper's block-on-first-send semantics). The cluster
        #: runtime consults this when wiring transitions to nodes.
        self.stall_loops = stall_loops
        #: Members whose anomalies use io-only semantics regardless of
        #: ``stall_loops``: their loops keep running against blocked I/O.
        #: This models CPU starvation (the process is descheduled, so by
        #: the time it handles a response its timers have effectively
        #: expired) as opposed to the instrumented send/receive blocking
        #: of the Threshold/Interval experiments. ``cpu_stress`` members
        #: are added automatically.
        self.io_only_members: set = set()
        #: (member, start, end) of every window applied (for analysis).
        self.windows: List[Tuple[str, float, float]] = []
        #: Callback invoked as (member, blocked_bool, time) on transitions.
        self.on_transition: Optional[Callable[[str, bool, float], None]] = None

    # ------------------------------------------------------------------ #
    # Scheduling API (used by the experiment harness)
    # ------------------------------------------------------------------ #

    def block_window(self, member: str, start: float, end: float) -> None:
        """Block ``member``'s protocol I/O during ``[start, end)``."""
        if end <= start:
            raise ValueError("window end must be after start")
        self.windows.append((member, start, end))
        self._scheduler.call_at(start, lambda: self._begin(member, end))

    def block_windows(self, members, start: float, end: float) -> None:
        """The paper's synchronized anomalies: all ``members`` block and
        unblock in lock-step."""
        for member in members:
            self.block_window(member, start, end)

    def cyclic_windows(
        self,
        members,
        first_start: float,
        duration: float,
        interval: float,
        until: float,
    ) -> float:
        """The Interval experiment's anomaly pattern (Section V-D2).

        Anomalous periods of length ``duration`` alternate with normal
        operation of length ``interval``, repeating until a cycle *starts*
        at or after ``until``; the test then ends at the end of that final
        anomalous period. Returns the end time of the last window.
        """
        start = first_start
        last_end = first_start
        while True:
            end = start + duration
            self.block_windows(members, start, end)
            last_end = end
            next_start = end + interval
            if next_start >= until:
                break
            start = next_start
        return last_end

    def cpu_stress(
        self,
        member: str,
        start: float,
        duration: float,
        rng: random.Random,
        mean_blocked: float = 0.8,
        mean_runnable: float = 0.15,
        long_stall_prob: float = 0.12,
        mean_long_stall: float = 7.0,
    ) -> None:
        """The Figure 1 scenario: heavily oversubscribed CPU.

        Over ``[start, start + duration)`` the member alternates between
        starved (blocked) bursts and brief runnable bursts. The stall
        lengths are a heavy-tailed mixture:

        * most stalls are short (exponential, mean ``mean_blocked``) —
          the fair-scheduler round-robin cycle against 128 CPU hogs,
          long enough to miss probe timeouts but not suspicion timeouts;
        * a fraction ``long_stall_prob`` are long (exponential, mean
          ``mean_long_stall``) — throttling of exhausted burstable
          instances, page thrash and run-queue pile-ups, the multi-second
          freezes during which the member's own suspicion timers expire
          and it declares healthy peers dead.

        The long tail is what turns intermittent slowness into the false
        positives of the paper's Section II scenarios.
        """
        self.io_only_members.add(member)
        t = start
        end = start + duration
        while t < end:
            if rng.random() < long_stall_prob:
                blocked = rng.expovariate(1.0 / mean_long_stall)
            else:
                blocked = rng.expovariate(1.0 / mean_blocked)
            blocked = min(blocked, end - t)
            if blocked > 0:
                self.block_window(member, t, t + blocked)
            t += blocked
            t += rng.expovariate(1.0 / mean_runnable)

    # ------------------------------------------------------------------ #
    # Enforcement (called by the network)
    # ------------------------------------------------------------------ #

    def is_blocked(self, member: str) -> bool:
        return member in self._blocked

    @property
    def blocked(self) -> Mapping[str, _BlockState]:
        """The members blocked now, as a live mapping that is never
        rebound: the network binds it once and asks the ``intercept_*``
        methods only about a member in it."""
        return self._blocked

    def intercept_send(
        self, src: str, dst: str, payload: bytes, reliable: bool
    ) -> bool:
        state = self._blocked.get(src)
        if state is None:
            return False
        state.pending_out.append((dst, payload, reliable))
        return True

    def intercept_delivery(
        self, dst: str, payload: bytes, src: str, reliable: bool
    ) -> bool:
        state = self._blocked.get(dst)
        if state is None:
            return False
        state.queue_in(payload, src, reliable)
        return True

    # ------------------------------------------------------------------ #
    # Window transitions
    # ------------------------------------------------------------------ #

    def _begin(self, member: str, end: float) -> None:
        state = self._blocked.get(member)
        if state is not None:
            # Overlapping windows merge: extend the block.
            state.until = max(state.until, end)
            return
        state = _BlockState(end, self._inbound_capacity)
        self._blocked[member] = state
        if self.on_transition is not None:
            self.on_transition(member, True, self._scheduler.clock.now)
        self._scheduler.call_at(end, lambda: self._maybe_end(member))

    def _maybe_end(self, member: str) -> None:
        state = self._blocked.get(member)
        if state is None:
            return
        now = self._scheduler.clock.now
        if state.until > now:
            # The window was extended; re-arm.
            self._scheduler.call_at(state.until, lambda: self._maybe_end(member))
            return
        del self._blocked[member]
        if self.on_transition is not None:
            self.on_transition(member, False, now)
        # Flush queued sends first (they were generated earlier in the
        # member's execution), then process the inbound backlog.
        for dst, payload, reliable in state.pending_out:
            self._network.inject(member, dst, payload, reliable)
        while state.pending_in:
            payload, src, reliable = state.pending_in.popleft()
            self._network.deliver_now(member, payload, src, reliable)
