"""The SWIM / Lifeguard protocol engine.

:class:`SwimNode` implements the complete protocol evaluated in the paper:
SWIM's probe-based failure detector and suspicion subprotocol, memberlist's
production extensions (dedicated gossip tick, anti-entropy push/pull,
dead-member retention, reliable-channel fallback probe), and the three
Lifeguard components, each independently switchable via
:class:`~repro.config.LifeguardFlags`:

* **LHA-Probe** — probe interval/timeout scaled by the Local Health
  Multiplier; ``nack`` messages on indirect probes.
* **LHA-Suspicion** — decaying suspicion timeouts driven by independent
  confirmations, with re-gossip of the first ``K``.
* **Buddy System** — forced piggybacking of the suspicion onto any ping
  sent to a suspected member.

The node is sans-IO: all side effects flow through the injected clock,
scheduler and transport (see :mod:`repro.runtime`), which is what lets the
same code run under the discrete-event simulator and under asyncio UDP.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import SwimConfig
from repro.core.buddy import BuddyPiggybacker
from repro.core.lhm import LhmEvent, LocalHealthMultiplier
from repro.core.suspicion import Suspicion, suspicion_bounds
from repro.metrics.telemetry import Telemetry
from repro.runtime import Clock, Scheduler, TimerHandle, Transport
from repro.swim import codec
from repro.swim.broadcast import BroadcastQueue
from repro.swim.events import EventKind, EventListener, MemberEvent
from repro.swim.member_map import (
    MERGE_ADDED,
    MERGE_APPLIED,
    MERGE_LOCAL,
    MERGE_SUSPECT,
    MemberMap,
    MergeDecision,
)
from repro.swim.messages import (
    Ack,
    Alive,
    Compound,
    Dead,
    Message,
    Nack,
    Ping,
    PingReq,
    PushPull,
    Suspect,
    UserEvent,
    primary_kind,
)
from repro.swim.probe_scheduler import make_probe_scheduler
from repro.swim.roster import _ABSENT, Roster
from repro.swim.state import MemberState
from repro.sync import SyncEngine

_SEQ_MODULUS = 2**32
_SUSPECT = int(MemberState.SUSPECT)

#: Fraction of the (LHM-scaled) probe timeout a timed-out probe waits
#: for an ack to its reliable-channel fallback ping before enlisting
#: ping-req helpers. Small by design: the helpers still need most of the
#: protocol period to return acks and nacks.
FALLBACK_PROBE_WAIT = 0.1

#: The user-event queue of every node that has not seen a user event
#: yet: empty, and never written (``SwimNode.user_broadcasts`` swaps in
#: a queue of the node's own before the first enqueue).
_NO_USER_EVENTS = BroadcastQueue(1, int)


class _Probe:
    """Book-keeping for one in-flight probe the local member initiated.

    A probe arms one timer at a time: its timeout, and only when that
    fires with the probe unacked, the end of its protocol period
    (``deadline``). An acked probe -- nearly every probe of a quiet
    member -- so costs the scheduler one push and one cancel.
    """

    __slots__ = (
        "seq_no",
        "target",
        "started_at",
        "deadline",
        "acked",
        "expected_nacks",
        "nacks_received",
        "fallback_sent",
        "timeout_timer",
        "indirect_timer",
        "deadline_timer",
    )

    def __init__(
        self, seq_no: int, target: str, started_at: float, deadline: float
    ) -> None:
        self.seq_no = seq_no
        self.target = target
        self.started_at = started_at
        self.deadline = deadline
        self.acked = False
        self.expected_nacks = 0
        self.nacks_received = 0
        self.fallback_sent = False
        self.timeout_timer: Optional[TimerHandle] = None
        self.indirect_timer: Optional[TimerHandle] = None
        self.deadline_timer: Optional[TimerHandle] = None


class _IndirectRelay:
    """Book-keeping for a ping we sent on behalf of another member."""

    __slots__ = (
        "origin_seq",
        "origin_address",
        "want_nack",
        "nack_timer",
        "expiry_timer",
    )

    def __init__(self, origin_seq: int, origin_address: str, want_nack: bool) -> None:
        self.origin_seq = origin_seq
        self.origin_address = origin_address
        self.want_nack = want_nack
        self.nack_timer: Optional[TimerHandle] = None
        self.expiry_timer: Optional[TimerHandle] = None


class _SuspicionEntry:
    """One held suspicion: its :class:`Suspicion` and timer, plus what
    ``SwimNode._dispatch`` settles a repeated claim against without a
    call -- the incarnation the suspicion is held at (never above the
    table's; ``_handle_suspect`` brings it up to the table's whenever it
    runs) and the live confirmer set with its ``K``."""

    __slots__ = ("suspicion", "timer", "incarnation", "confirmers", "k")

    def __init__(self, suspicion: Suspicion, incarnation: int) -> None:
        self.suspicion = suspicion
        self.timer: Optional[TimerHandle] = None
        self.incarnation = incarnation
        self.confirmers = suspicion.confirmer_set
        self.k = suspicion.k


class SwimNode:
    """One group member.

    Parameters
    ----------
    name:
        Unique member name.
    config:
        Protocol parameters (including which Lifeguard components run).
    clock / scheduler / transport:
        The runtime the node is hosted on; see :mod:`repro.runtime`.
    rng:
        Source of all protocol randomness (probe-list shuffles, gossip
        fan-out sampling, start jitter). Inject a seeded
        :class:`random.Random` for deterministic runs.
    listener:
        Optional callback receiving a :class:`MemberEvent` for every
        membership transition this node observes.
    roster:
        The name-interning :class:`~repro.swim.roster.Roster` the
        member table is indexed by. A cluster hosting many nodes in one
        process passes one shared roster; left out, the node gets its own.

    Slotted, like the member map and the probe schedulers under it: a
    simulated cluster holds one of each per member, and an instance dict
    of this many attributes is not key-shared (1.6 KB a node). Tests that
    intercept a method patch the class.
    """

    __slots__ = (
        "name",
        "config",
        "_clock",
        "_scheduler",
        "_transport",
        "_rng",
        "_listeners",
        "_on_user_event",
        "on_probe_rtt",
        "telemetry",
        "_probe_scheduler",
        "_members",
        "_broadcasts",
        "_user_broadcasts",
        "_user_seq",
        "_seen_user_events",
        "_lhm",
        "_buddy",
        "_sync",
        "_seq",
        "_probes",
        "_relays",
        "_suspicions",
        "_reliable_failures",
        "_running",
        "_probe_timer",
        "_gossip_timer",
        "_push_pull_timer",
        "_reconnect_timer",
        "_leaving",
        "_paused",
        "_deferred_ticks",
        "_overlay_neighbors",
    )

    def __init__(
        self,
        name: str,
        config: SwimConfig,
        clock: Clock,
        scheduler: Scheduler,
        transport: Transport,
        rng: Optional[random.Random] = None,
        listener: Optional[EventListener] = None,
        meta: bytes = b"",
        on_user_event=None,
        roster: Optional[Roster] = None,
    ) -> None:
        self.name = name
        self.config = config
        self._clock = clock
        self._scheduler = scheduler
        self._transport = transport
        self._rng = rng if rng is not None else random.Random()
        self._listeners: List[EventListener] = [] if listener is None else [listener]
        self._on_user_event = on_user_event
        #: Optional ack-latency hook: called as ``hook(target, rtt_seconds)``
        #: for every probe whose ``ack`` arrived on the *direct* path (i.e.
        #: before the probe timeout launched indirect helpers). Indirect
        #: acks and nacks are excluded, so the observations measure the
        #: peer round trip, not the relay detour. Feeds the ops plane's
        #: probe-RTT histogram (:class:`repro.ops.registry.NodeCollector`).
        self.on_probe_rtt: Optional[Callable[[str, float], None]] = None

        self.telemetry = Telemetry()
        self._probe_scheduler = make_probe_scheduler(config.probe_scheduler)
        self._members = MemberMap(
            name,
            transport.local_address,
            self._rng,
            probe_scheduler=self._probe_scheduler,
            zone=config.zone,
            roster=roster,
        )
        self._members.set_local_meta(meta)
        self._broadcasts = self._broadcast_queue()
        # Application-level gossip rides in a second, lower-priority
        # queue so bursts of user events can never starve membership
        # updates (memberlist's system/user queue split). Most members
        # never see a user event: theirs is built on first use.
        self._user_broadcasts = _NO_USER_EVENTS
        self._user_seq = 0
        self._seen_user_events: Dict[tuple, None] = {}
        self._lhm = LocalHealthMultiplier(
            max_value=config.lhm_max, enabled=config.flags.lha_probe
        )
        self._buddy = BuddyPiggybacker(
            enabled=config.flags.buddy_system,
            is_suspected=self._is_suspected,
            make_suspect_payload=self._encode_local_suspicion,
        )

        # Anti-entropy: the engine owns the push-pull/reconnect rounds and
        # snapshot merges; the node keeps the timers and pause semantics.
        self._sync = SyncEngine(
            name,
            self._members,
            clock,
            self._rng,
            self._send_sync,
            self._apply_merge_decision,
            self.telemetry,
        )

        self._seq = 0
        self._probes: Dict[int, _Probe] = {}
        self._relays: Dict[int, _IndirectRelay] = {}
        self._suspicions: Dict[str, _SuspicionEntry] = {}

        self._reliable_failures: Dict[str, float] = {}
        self._running = False
        self._probe_timer: Optional[TimerHandle] = None
        self._gossip_timer: Optional[TimerHandle] = None
        self._push_pull_timer: Optional[TimerHandle] = None
        self._reconnect_timer: Optional[TimerHandle] = None
        self._leaving = False
        self._paused = False
        # Dict-as-ordered-set: deferred ticks must replay in the order
        # they were deferred, independent of string hashing, or seeded
        # runs diverge across interpreter invocations (PYTHONHASHSEED).
        self._deferred_ticks: Dict[str, None] = {}
        self._overlay_neighbors: Optional[List[str]] = None

    # ------------------------------------------------------------------ #
    # Public surface
    # ------------------------------------------------------------------ #

    @property
    def members(self) -> MemberMap:
        """This member's view of the group."""
        return self._members

    @property
    def sync(self) -> SyncEngine:
        """The anti-entropy engine (push-pull, reconnect, merges)."""
        return self._sync

    @property
    def on_sync_merge(self) -> Optional[Callable[[int], None]]:
        """Hook observing the state changes each push-pull merge applied
        (feeds the ops plane's merge-size histogram)."""
        return self._sync.on_merge

    @on_sync_merge.setter
    def on_sync_merge(self, hook: Optional[Callable[[int], None]]) -> None:
        self._sync.on_merge = hook

    @property
    def local_health(self) -> LocalHealthMultiplier:
        """The Local Health Multiplier (always present; inert when
        LHA-Probe is disabled)."""
        return self._lhm

    @property
    def broadcasts(self) -> BroadcastQueue:
        return self._broadcasts

    @property
    def user_broadcasts(self) -> BroadcastQueue:
        """The application-event queue, built on first use."""
        queue = self._user_broadcasts
        if queue is _NO_USER_EVENTS:
            queue = self._user_broadcasts = self._broadcast_queue()
        return queue

    def _broadcast_queue(self) -> BroadcastQueue:
        """A gossip queue limited to what a packet can carry: the
        dedicated gossip tick's budget minus one part's framing. Anything
        bigger would be skipped on every packet yet never retired,
        pinning the queue."""
        config = self.config
        return BroadcastQueue(
            config.retransmit_mult,
            self._members.__len__,
            max_payload=config.max_packet_size
            - codec.COMPOUND_HEADER_OVERHEAD
            - codec.COMPOUND_PART_OVERHEAD,
            on_oversized=self.telemetry.record_oversized_broadcast,
        )

    @property
    def meta(self) -> bytes:
        """This member's application metadata."""
        return self._members.local.meta

    def set_meta(self, meta: bytes) -> None:
        """Update application metadata and gossip the change.

        A fresh incarnation makes the updated alive claim supersede the
        old one everywhere (memberlist's UpdateNode).
        """
        local = self._members.local
        self._members.set_local_meta(meta)
        self._members.bump_local_incarnation(local.incarnation)
        self._broadcasts.enqueue(
            Alive(local.incarnation, self.name, local.address, meta, local.zone)
        )

    def set_gossip_overlay(self, neighbors: Optional[Sequence[str]]) -> None:
        """Restrict the dedicated gossip tick to a fixed neighbor set.

        An exploration of the paper's Section VII future work ("adding a
        random overlay network" to tighten dissemination tails, after
        Jetstream): when set, dedicated gossip rounds target the given
        neighbors instead of uniformly random members. Probing,
        piggybacking and anti-entropy are unaffected. Pass ``None`` to
        restore uniform gossip.
        """
        if neighbors is None:
            self._overlay_neighbors = None
            return
        cleaned = [n for n in neighbors if n != self.name]
        if not cleaned:
            raise ValueError("overlay needs at least one neighbor")
        self._overlay_neighbors = list(cleaned)

    @property
    def gossip_overlay(self) -> Optional[List[str]]:
        return list(self._overlay_neighbors) if self._overlay_neighbors else None

    def broadcast_event(self, payload: bytes) -> UserEvent:
        """Disseminate an application event to the whole group.

        Returns the event; it is delivered to the local handler
        immediately and to every other member via gossip, exactly once
        each (deduplicated by origin and sequence number).
        """
        if len(payload) > codec.MAX_USER_PAYLOAD:
            raise codec.CodecError(
                f"user event payload too large: {len(payload)} > "
                f"{codec.MAX_USER_PAYLOAD}"
            )
        self._user_seq += 1
        event = UserEvent(self.name, self._user_seq, payload)
        self._remember_user_event(event.key)
        self.user_broadcasts.enqueue(event)
        if self._on_user_event is not None:
            self._on_user_event(event)
        return event

    @property
    def buddy(self) -> BuddyPiggybacker:
        return self._buddy

    def add_listener(self, listener: EventListener) -> None:
        """Register an additional membership-event listener.

        Listeners are invoked in registration order for every event; used
        by the ops plane to tee events into an
        :class:`~repro.ops.events.EventStream` without displacing the
        application's listener.
        """
        self._listeners.append(listener)

    @property
    def suspicion_count(self) -> int:
        """Entries currently in the local suspicion table."""
        return len(self._suspicions)

    def suspicion_incarnations(self) -> Dict[str, int]:
        """Each live suspicion's subject, in the order raised, and the
        incarnation it is held at (inspection only: never above the
        table's)."""
        return {name: entry.incarnation for name, entry in self._suspicions.items()}

    def suspicion_snapshot(self) -> List[dict]:
        """The live suspicion table as JSON-safe records (ops plane)."""
        now = self._clock()
        out = []
        for name, entry in self._suspicions.items():
            suspicion = entry.suspicion
            out.append(
                {
                    "member": name,
                    "confirmations": suspicion.confirmations,
                    "confirmers": sorted(suspicion.confirmers),
                    "k": suspicion.k,
                    "started_at": suspicion.started_at,
                    "deadline": suspicion.deadline(),
                    "remaining": suspicion.remaining(now),
                    "timeout": suspicion.current_timeout(),
                    "min_timeout": suspicion.minimum,
                    "max_timeout": suspicion.maximum,
                }
            )
        return out

    @property
    def incarnation(self) -> int:
        return self._members.local.incarnation

    @property
    def running(self) -> bool:
        return self._running

    def now(self) -> float:
        return self._clock()

    def note_reliable_send_failure(self, destination: str) -> None:
        """Transport feedback: a reliable send to ``destination`` failed
        after exhausting its retries.

        A single unreachable peer says nothing about *us* — it is probably
        just dead, and the probe cycle will find that out. But failures to
        ``reliable_failure_peer_threshold`` distinct peers within
        ``reliable_failure_window`` seconds point at the local member
        (overload, a dying NIC, an exhausted FD table) and are scored as
        one Local Health event, slowing our own probing the same way
        missed nacks do (an extension of Section IV-A's event table).
        """
        now = self._clock()
        window = self.config.reliable_failure_window
        self._reliable_failures[destination] = now
        stale = [
            address
            for address, failed_at in self._reliable_failures.items()
            if now - failed_at > window
        ]
        for address in stale:
            del self._reliable_failures[address]
        if len(self._reliable_failures) >= self.config.reliable_failure_peer_threshold:
            self._reliable_failures.clear()
            self.telemetry.transport.incr("reliable_failure_signals")
            self._lhm.note(LhmEvent.RELIABLE_SEND_FAILED)

    def current_probe_interval(self) -> float:
        """The LHM-scaled probe interval currently in effect."""
        return self._lhm.scale(self.config.probe_interval)

    def current_probe_timeout(self) -> float:
        """The LHM-scaled probe timeout currently in effect."""
        return self._lhm.scale(self.config.probe_timeout)

    def start(self, first_probe_delay: Optional[float] = None) -> None:
        """Begin running the protocol loops.

        ``first_probe_delay`` staggers the first probe tick; by default a
        uniform random fraction of the probe interval is used so that
        co-started members do not probe in lock-step.
        """
        if self._running:
            raise RuntimeError(f"node {self.name} already started")
        self._running = True
        now = self._clock()
        if first_probe_delay is None:
            first_probe_delay = self._rng.uniform(0, self.config.probe_interval)
        self._probe_timer = self._scheduler.call_at(
            now + first_probe_delay, self._probe_tick
        )
        if self.config.gossip_enabled:
            self._gossip_timer = self._scheduler.call_at(
                now + self._rng.uniform(0, self.config.gossip_interval),
                self._gossip_tick,
            )
        if self.config.push_pull_interval > 0:
            self._push_pull_timer = self._scheduler.call_at(
                now + self._rng.uniform(0, self.config.push_pull_interval),
                self._push_pull_tick,
            )
        if self.config.reconnect_interval > 0:
            self._reconnect_timer = self._scheduler.call_at(
                now + self._rng.uniform(0, self.config.reconnect_interval),
                self._reconnect_tick,
            )
        # A restarted node may remember SUSPECT members from before the
        # stop: stop() cancels and drops the suspicion timers but keeps
        # the member map. Re-arm a fresh suspicion for each so every
        # SUSPECT state has a timer that can expire or be refuted. The
        # O(1) count keeps a preseeded start from walking all n-1 members.
        if self._members.num_in_state(MemberState.SUSPECT) > 0:
            for member in self._members.members():
                if (
                    member.name == self.name
                    or not member.is_suspect
                    or member.name in self._suspicions
                ):
                    continue
                minimum, maximum, k = self._suspicion_parameters()
                suspicion = Suspicion(self.name, now, minimum, maximum, k)
                entry = _SuspicionEntry(suspicion, member.incarnation)
                self._suspicions[member.name] = entry
                entry.timer = self._scheduler.call_at(
                    suspicion.deadline(),
                    lambda name=member.name: self._suspicion_expired(name),
                )

    def set_paused(self, paused: bool) -> None:
        """Suspend or resume the periodic protocol loops.

        Models a process whose protocol goroutines are blocked on their
        first I/O operation (the paper's anomaly instrumentation, Section
        V-D): while paused, the probe, gossip, push-pull and reconnect
        ticks do not run — a blocked member initiates no new probes and
        transmits no gossip. One-shot timers (a probe's timeout and
        period end, the suspicion timeout) keep firing; their state
        changes only become visible to peers once sending resumes. Of
        these only the suspicion timeout is a ``time.AfterFunc``
        callback in memberlist: a probe's timeout and period end belong
        to its probe loop, which a block stops before the ping-reqs
        (DESIGN.md, "The rules, loop by loop").

        Deferred ticks run immediately on resume.
        """
        if paused == self._paused:
            return
        self._paused = paused
        if paused or not self._running:
            return
        now = self._clock()
        deferred, self._deferred_ticks = self._deferred_ticks, {}
        tick_fns = {
            "probe": self._probe_tick,
            "gossip": self._gossip_tick,
            "push_pull": self._push_pull_tick,
            "reconnect": self._reconnect_tick,
        }
        for name in deferred:
            self._scheduler.call_at(now, tick_fns[name])

    @property
    def paused(self) -> bool:
        return self._paused

    def _defer_if_paused(self, tick_name: str) -> bool:
        if self._paused:
            self._deferred_ticks[tick_name] = None
            return True
        return False

    def stop(self) -> None:
        """Halt all protocol activity (does not announce departure)."""
        self._running = False
        self._deferred_ticks.clear()
        for timer in (
            self._probe_timer,
            self._gossip_timer,
            self._push_pull_timer,
            self._reconnect_timer,
        ):
            if timer is not None:
                timer.cancel()
        self._probe_timer = self._gossip_timer = self._push_pull_timer = None
        self._reconnect_timer = None
        for probe in self._probes.values():
            for timer in (
                probe.timeout_timer,
                probe.indirect_timer,
                probe.deadline_timer,
            ):
                if timer is not None:
                    timer.cancel()
        self._probes.clear()
        for relay in self._relays.values():
            for timer in (relay.nack_timer, relay.expiry_timer):
                if timer is not None:
                    timer.cancel()
        self._relays.clear()
        for entry in self._suspicions.values():
            if entry.timer is not None:
                entry.timer.cancel()
        self._suspicions.clear()

    def join(self, seed_addresses: Sequence[str]) -> None:
        """Contact seed members and announce ourselves to the group."""
        local = self._members.local
        for address in seed_addresses:
            if address == self._transport.local_address:
                continue
            self._sync.offer_sync(address, join=True)
        self._broadcasts.enqueue(
            Alive(local.incarnation, self.name, local.address, local.meta, local.zone)
        )

    def apply_external_claim(
        self, name: str, state: MemberState, incarnation: int
    ) -> bool:
        """Ingest one membership claim from outside the packet path.

        Built for hierarchical layers (zone bridges) that learn about
        members through side channels: the claim runs through the exact
        merge-precedence and reaction machinery a gossiped claim would —
        including refutation when the claim wrongly declares *this* node
        SUSPECT or DEAD, which is the only way a member victimized while
        its zone could not tell it ever reclaims its liveness. Returns
        ``True`` when local state changed (or a refutation fired).
        """
        if not self._running:
            return False
        if state is MemberState.SUSPECT and name != self.name:
            # Suspicion must run through the timer machinery. Merging it
            # straight into the map would strand a SUSPECT entry whose
            # timer never fires, so the suspicion could neither expire
            # nor decay.
            self._handle_suspect(Suspect(incarnation, name, self.name))
            member = self._members.get(name)
            return member is not None and member.is_suspect
        decision = self._members.merge_claim(
            name, state, incarnation, self._clock()
        )
        return self._apply_merge_decision(decision, self.name)

    def leave(self) -> None:
        """Announce a graceful departure (a ``dead`` message about oneself
        is interpreted as LEFT by peers) and stop."""
        self._leaving = True
        local = self._members.local
        message = Dead(local.incarnation, self.name, self.name)
        self._broadcasts.enqueue(message)
        # Push the departure out immediately rather than waiting for the
        # next gossip tick.
        for address in self._members.random_addresses(
            self.config.gossip_fanout, now=self._clock()
        ):
            self._send_to_address(address, message, piggyback=False)
        self.stop()

    # ------------------------------------------------------------------ #
    # Inbound packets
    # ------------------------------------------------------------------ #

    def handle_packet(
        self, payload: codec.Buffer, from_address: str, reliable: bool = False
    ) -> None:
        """Entry point for the transport: decode and dispatch one packet.

        ``payload`` may be a ``memoryview`` into a transport-owned
        receive buffer that is reused after this call returns (the
        batched backend's receive slots); decoding copies it once, so
        nothing the node keeps aliases the buffer."""
        if not self._running:
            return
        self.telemetry.record_receive(len(payload))
        try:
            message = codec.decode(payload)
        except codec.CodecError:
            return
        if message.__class__ is Compound:
            self._dispatch(message.parts, from_address, reliable)
        else:
            self._dispatch((message,), from_address, reliable)

    def _dispatch(
        self, parts: Sequence[Message], from_address: str, reliable: bool
    ) -> None:
        """Hand each part of a decoded packet to its handler, in wire
        order. The whole packet decoded before the first part is handled
        (a corrupt part drops it entire), and a packet is one flat
        compound: only a part that is itself a compound re-enters, at
        most ``codec.MAX_COMPOUND_DEPTH`` deep.

        Most gossip that lands changes nothing, and two kinds of it are
        settled here, before any handler runs, by exactly the test the
        handler would make first:

        * a ``Suspect`` repeating a held suspicion: below the incarnation
          it is held at, or at it from a sender already counted or once
          ``K`` are. With the held incarnation at most the table's, the
          handler would return (claim below the table's) or its
          ``confirm`` would refuse (claim at it);
        * a stale ``Alive``: at or below the incarnation the table holds
          (the handler's ``known_incarnation`` test, on the columns).

        Everything else reaches its handler, and the handlers stay the
        only place that changes state."""
        suspicions = self._suspicions
        members = self._members
        ids = members._ids
        # Ordered by observed frequency: gossip parts dominate packets
        # during churn, which is when simulation throughput matters.
        for message in parts:
            kind = message.__class__
            if kind is Suspect:
                entry = suspicions.get(message.member)
                if entry is not None:
                    incarnation = message.incarnation
                    held = entry.incarnation
                    if incarnation < held or (
                        incarnation == held
                        and (
                            len(entry.confirmers) > entry.k
                            or message.sender in entry.confirmers
                        )
                    ):
                        continue
                self._handle_suspect(message)
            elif kind is Alive:
                # known_incarnation, read off the columns: a handler may
                # have replaced them since the last part.
                sid = ids.get(message.member)
                if sid is not None:
                    states = members._states
                    if (
                        sid < len(states)
                        and states[sid] != _ABSENT
                        and message.incarnation <= members._incarnations[sid]
                    ):
                        continue
                self._handle_alive(message)
            elif kind is Dead:
                self._handle_dead(message)
            elif kind is Ping:
                self._handle_ping(message, from_address, reliable)
            elif kind is Ack:
                self._handle_ack(message, reliable)
            elif kind is UserEvent:
                self._handle_user_event(message)
            elif kind is PingReq:
                self._handle_ping_req(message, from_address)
            elif kind is Nack:
                self._handle_nack(message)
            elif kind is PushPull:
                self._handle_push_pull(message, from_address)
            elif kind is Compound:
                self._dispatch(message.parts, from_address, reliable)

    # ------------------------------------------------------------------ #
    # Failure detector: probing
    # ------------------------------------------------------------------ #

    def _probe_tick(self) -> None:
        if not self._running:
            return
        if self._paused:
            self._deferred_ticks["probe"] = None
            return
        now = self._clock()
        interval = self._lhm.scale(self.config.probe_interval)
        self._probe_timer = self._scheduler.call_at(now + interval, self._probe_tick)
        members = self._members
        members.reclaim_dead(now, self.config.dead_member_reclaim)
        target = members.next_probe_target(now)
        if target is not None:
            self._begin_probe(target, now, interval)

    def _begin_probe(self, target: str, now: float, interval: float) -> None:
        seq_no = self._next_seq()
        probe = _Probe(seq_no, target, now, now + interval)
        self._probes[seq_no] = probe
        timeout = self._lhm.scale(self.config.probe_timeout)
        probe.timeout_timer = self._scheduler.call_at(
            now + timeout, lambda: self._probe_timeout(probe)
        )
        members = self._members
        address = members._records[members._ids[target]].address
        self._send_ping(target, address, seq_no)

    def _send_ping(
        self, target: str, address: str, seq_no: int, reliable: bool = False
    ) -> None:
        ping = Ping(seq_no, target, self.name)
        # Only a suspected target gets a Buddy payload: a node that
        # suspects nobody need not ask.
        mandatory: Sequence[bytes] = ()
        if self._members._state_counts[_SUSPECT]:
            mandatory = self._buddy.payloads_for_ping(target)
        self._send_to_address(
            address, ping, reliable=reliable, mandatory_piggyback=mandatory
        )

    def _probe_timeout(self, probe: _Probe) -> None:
        """Direct probe timed out: fire the reliable-channel fallback
        first (memberlist's TCP ping), then — after a short grace window —
        the indirect ping-req round.

        The staging keeps pure UDP loss away from the suspicion
        subprotocol: a healthy-but-datagram-unlucky peer answers the
        fallback within the grace window, completing the probe before any
        helper is enlisted. Probe-scheduling work (Cohen, "Probe
        Scheduling for Efficient Detection of Silent Failures") motivates
        treating the reliable ping as a distinct, budgeted channel rather
        than more UDP retries. An ack on either path completes the probe.
        With the fallback disabled the indirect round engages
        immediately, exactly as plain SWIM prescribes.
        """
        probe.timeout_timer = None
        if probe.acked or probe.seq_no not in self._probes:
            return
        if probe.deadline_timer is None:
            probe.deadline_timer = self._scheduler.call_at(
                probe.deadline, lambda: self._probe_deadline(probe)
            )
        target = self._members.get(probe.target)
        if target is None or target.is_dead:
            return
        if not self.config.tcp_fallback_probe:
            self._launch_indirect_probe(probe)
            return
        probe.fallback_sent = True
        self.telemetry.fallback_probes_sent += 1
        self._send_ping(target.name, target.address, probe.seq_no, reliable=True)
        probe.indirect_timer = self._scheduler.call_at(
            self._clock() + FALLBACK_PROBE_WAIT * self.current_probe_timeout(),
            lambda: self._launch_indirect_probe(probe),
        )

    def _launch_indirect_probe(self, probe: _Probe) -> None:
        """Enlist ping-req helpers for a probe still unanswered."""
        probe.indirect_timer = None
        if probe.acked or probe.seq_no not in self._probes:
            return
        target = self._members.get(probe.target)
        if target is None or target.is_dead:
            return
        helpers = self._members.random_addresses(
            self.config.indirect_probes,
            exclude=(probe.target,),
            include_suspect=False,
        )
        want_nack = self.config.flags.lha_probe
        for helper in helpers:
            request = PingReq(probe.seq_no, probe.target, self.name, want_nack)
            self._send_to_address(helper, request)
        if want_nack:
            probe.expected_nacks = len(helpers)

    def _probe_deadline(self, probe: _Probe) -> None:
        """End of the protocol period for this probe: declare the outcome."""
        probe.deadline_timer = None
        if probe.indirect_timer is not None:
            probe.indirect_timer.cancel()
            probe.indirect_timer = None
        if self._probes.pop(probe.seq_no, None) is None:
            return
        if probe.acked:
            return
        if probe.fallback_sent:
            self.telemetry.fallback_probe_failures += 1
        # Failed probe. Local-health accounting first (Section IV-A): when
        # nacks were expected, each *missing* nack is evidence of local
        # slowness; when every helper nacked, the evidence points at the
        # target, not at us, so the LHM is left unchanged (memberlist
        # semantics). With no helpers enlisted the failure itself scores 1.
        if probe.expected_nacks > 0:
            missed = probe.expected_nacks - probe.nacks_received
            for _ in range(missed):
                self._lhm.note(LhmEvent.MISSED_NACK)
        else:
            self._lhm.note(LhmEvent.PROBE_FAILED)
        target = self._members.get(probe.target)
        if target is None or target.is_dead:
            return
        self._handle_suspect(Suspect(target.incarnation, target.name, self.name))

    def _handle_ping(self, ping: Ping, from_address: str, reliable: bool) -> None:
        if ping.target != self.name:
            # Stale addressing (e.g. a name reused across restarts).
            return
        ack = Ack(ping.seq_no, self.name)
        self._send_to_address(from_address, ack, reliable=reliable)

    def _handle_ping_req(self, request: PingReq, from_address: str) -> None:
        target = self._members.get(request.target)
        if target is None or target.is_dead:
            # We cannot help; with nacks enabled, staying silent correctly
            # signals nothing about our own health (the origin counts a
            # missed nack, which is the conservative outcome).
            return
        local_seq = self._next_seq()
        relay = _IndirectRelay(request.seq_no, from_address, request.want_nack)
        self._relays[local_seq] = relay
        now = self._clock()
        if request.want_nack:
            nack_at = now + self.config.probe_timeout * self.config.nack_timeout_fraction
            relay.nack_timer = self._scheduler.call_at(
                nack_at, lambda: self._relay_nack(local_seq)
            )
        relay.expiry_timer = self._scheduler.call_at(
            now + 2 * self.config.probe_interval,
            lambda: self._expire_relay(local_seq),
        )
        self._send_ping(target.name, target.address, local_seq)

    def _relay_nack(self, local_seq: int) -> None:
        relay = self._relays.get(local_seq)
        if relay is None:
            return
        relay.nack_timer = None
        nack = Nack(relay.origin_seq, self.name)
        self._send_to_address(relay.origin_address, nack)

    def _expire_relay(self, local_seq: int) -> None:
        relay = self._relays.pop(local_seq, None)
        if relay is not None and relay.nack_timer is not None:
            relay.nack_timer.cancel()

    def _handle_ack(self, ack: Ack, reliable: bool = False) -> None:
        # An acked probe leaves the table in the same step, so a probe
        # found here is still waiting for its ack.
        probe = self._probes.pop(ack.seq_no, None)
        if probe is not None:
            scheduler = self._probe_scheduler
            hears_acks = scheduler.hears_acks
            timeout_timer = probe.timeout_timer
            # A still-pending timeout timer means the ack beat the probe
            # timeout: it came over the direct path (indirect helpers and
            # the reliable fallback only launch when the timeout fires),
            # so it is a clean peer-RTT observation. The transport
            # channel must agree: an ack that arrived over the reliable
            # (TCP) channel measures the fallback detour, never the UDP
            # round trip, no matter how the delivery raced the timeout
            # timer.
            if timeout_timer is not None and not reliable:
                now = self._clock()
                rtt = now - probe.started_at
                if hears_acks:
                    scheduler.note_ack(probe.target, rtt, now)
                if self.on_probe_rtt is not None:
                    self.on_probe_rtt(probe.target, rtt)
            if hears_acks:
                scheduler.note_confirmation(probe.target, self._clock())
            if reliable and probe.fallback_sent:
                self.telemetry.fallback_probe_acks += 1
            probe.acked = True
            self._lhm.note(LhmEvent.PROBE_SUCCESS)
            if timeout_timer is not None:
                timeout_timer.cancel()
                probe.timeout_timer = None
            if probe.indirect_timer is not None:
                probe.indirect_timer.cancel()
                probe.indirect_timer = None
            if probe.deadline_timer is not None:
                probe.deadline_timer.cancel()
                probe.deadline_timer = None
            return
        relay = self._relays.pop(ack.seq_no, None)
        if relay is not None:
            # Forward even if we already nacked: the origin treats
            # nack-then-ack within its timeout as success (Section IV-A).
            if relay.nack_timer is not None:
                relay.nack_timer.cancel()
            if relay.expiry_timer is not None:
                relay.expiry_timer.cancel()
            self._send_to_address(relay.origin_address, Ack(relay.origin_seq, ack.source))

    def _handle_nack(self, nack: Nack) -> None:
        probe = self._probes.get(nack.seq_no)
        if probe is not None:
            probe.nacks_received += 1

    # ------------------------------------------------------------------ #
    # Suspicion subprotocol
    # ------------------------------------------------------------------ #

    def _is_suspected(self, name: str) -> bool:
        # The state column, read by id: no view for a one-byte test.
        members = self._members
        sid = members._ids.get(name)
        states = members._states
        return sid is not None and sid < len(states) and states[sid] == _SUSPECT

    def _encode_local_suspicion(self, name: str) -> Optional[bytes]:
        member = self._members.get(name)
        if member is None or not member.is_suspect:
            return None
        return codec.encode(Suspect(member.incarnation, name, self.name))

    def _suspicion_parameters(self) -> tuple:
        """``(min, max, k)`` for a new suspicion, honouring LHA-Suspicion."""
        flags = self.config.flags
        beta = self.config.suspicion_beta if flags.lha_suspicion else 1.0
        minimum, maximum = suspicion_bounds(
            self.config.suspicion_alpha,
            beta,
            len(self._members),
            self.config.probe_interval,
        )
        k = self.config.suspicion_k if flags.lha_suspicion else 0
        # A tiny cluster cannot produce K independent suspicions; fall
        # back to the fixed minimum timeout (memberlist guard).
        available_confirmers = self._members.num_alive() - 2
        if k > max(0, available_confirmers):
            k = max(0, available_confirmers)
        if k == 0:
            maximum = minimum
        return minimum, maximum, k

    def _handle_suspect(self, message: Suspect) -> None:
        name = message.member
        entry = self._suspicions.get(name)
        if entry is not None:
            # A held suspicion means the subject is in the table, is not
            # this node and is SUSPECT: an entry is made only below (and
            # by start()) for exactly such a subject, and everything that
            # moves the subject out of SUSPECT drops the entry in the same
            # step (_apply_merge_decision, _suspicion_expired; the
            # SUSPECT <=> timer oracle of repro.check holds every run to
            # it). So the claim need only be checked against the
            # incarnation held — and most suspect claims end here, as
            # repeats of a suspicion already counted.
            incarnation = message.incarnation
            known = self._members.known_incarnation(name)
            if incarnation < known:
                return
            if incarnation > known:
                # Before the deadline can move: should the confirmation
                # below expire the suspicion on the spot, the subject is
                # declared dead at the incarnation it was last suspected
                # at, and no SUSPECT claim lands on a dead member.
                self._members.merge_claim(
                    name, MemberState.SUSPECT, incarnation, self._clock()
                )
            # The table holds the claim's incarnation now (a suspect claim
            # at or above a SUSPECT entry's lands): so does the suspicion.
            entry.incarnation = incarnation
            if entry.suspicion.confirm(message.sender):
                # A new independent suspicion within the first K: re-gossip
                # it and shrink the timeout (LHA-Suspicion, Section IV-B).
                self._broadcasts.enqueue(message)
                self._reschedule_suspicion(name)
            return
        if name == self.name:
            self._refute(message.incarnation)
            return
        member = self._members.get(name)
        if member is None or member.is_dead:
            return
        if message.incarnation < member.incarnation:
            return
        now = self._clock()
        decision = self._members.merge_claim(
            name, MemberState.SUSPECT, message.incarnation, now
        )
        if decision.action != MERGE_APPLIED and not member.is_suspect:
            return
        # Fall through when the member is already SUSPECT but has no
        # suspicion entry (the claim itself cannot supersede an equal-
        # incarnation suspect state): without a timer the suspicion could
        # never expire. Happens after a restart, which drops the timer
        # table but keeps the member map.
        minimum, maximum, k = self._suspicion_parameters()
        suspicion = Suspicion(message.sender, now, minimum, maximum, k)
        # The claim landed, or equals the SUSPECT entry it found: the
        # table holds its incarnation.
        entry = _SuspicionEntry(suspicion, message.incarnation)
        self._suspicions[name] = entry
        entry.timer = self._scheduler.call_at(
            suspicion.deadline(), lambda: self._suspicion_expired(name)
        )
        self._emit(EventKind.SUSPECTED, name, message.incarnation, now)
        # Gossip the suspicion onward, preserving the originator so peers
        # can count independence: the claim as it came, which, decoded
        # from the wire, goes out as the bytes it arrived as.
        self._broadcasts.enqueue(message)

    def _reschedule_suspicion(self, name: str) -> None:
        entry = self._suspicions.get(name)
        if entry is None:
            return
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None
        now = self._clock()
        deadline = entry.suspicion.deadline()
        if deadline <= now:
            self._suspicion_expired(name)
        else:
            entry.timer = self._scheduler.call_at(
                deadline, lambda: self._suspicion_expired(name)
            )

    def _suspicion_expired(self, name: str) -> None:
        entry = self._suspicions.pop(name, None)
        if entry is None:
            return
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None
        member = self._members.get(name)
        if member is None or not member.is_suspect:
            return
        now = self._clock()
        incarnation = member.incarnation
        self._members.apply_claim(name, MemberState.DEAD, incarnation, now)
        self._emit(EventKind.FAILED, name, incarnation, now)
        self._broadcasts.enqueue(Dead(incarnation, name, self.name))

    def _cancel_suspicion(self, name: str) -> None:
        entry = self._suspicions.pop(name, None)
        if entry is not None and entry.timer is not None:
            entry.timer.cancel()

    def _refute(self, claimed_incarnation: int) -> None:
        """Answer a suspect/dead claim about ourselves with a fresher
        ``alive``, and note the local-health implication (Section IV-A)."""
        local = self._members.local
        if claimed_incarnation < local.incarnation:
            # Stale claim about an incarnation we already superseded.
            return
        new_incarnation = self._members.bump_local_incarnation(claimed_incarnation)
        self._lhm.note(LhmEvent.REFUTE_SELF)
        self._broadcasts.enqueue(
            Alive(new_incarnation, self.name, local.address, local.meta, local.zone)
        )

    # ------------------------------------------------------------------ #
    # Gossip claim handlers
    # ------------------------------------------------------------------ #

    def _handle_alive(self, message: Alive) -> None:
        if message.member == self.name:
            return
        if message.incarnation <= self._members.known_incarnation(message.member):
            # Fast path: an alive claim only ever lands with a strictly
            # newer incarnation, and duplicates dominate gossip traffic.
            return
        decision = self._members.merge_claim(
            message.member,
            MemberState.ALIVE,
            message.incarnation,
            self._clock(),
            address=message.address,
            meta=message.meta,
            zone=message.zone,
        )
        self._apply_merge_decision(decision, message.member)

    _MAX_SEEN_USER_EVENTS = 4096

    def _remember_user_event(self, key: tuple) -> None:
        self._seen_user_events[key] = None
        if len(self._seen_user_events) > self._MAX_SEEN_USER_EVENTS:
            # Dicts preserve insertion order: drop the oldest entry.
            self._seen_user_events.pop(next(iter(self._seen_user_events)))

    def _handle_user_event(self, message: UserEvent) -> None:
        if message.key in self._seen_user_events:
            return
        self._remember_user_event(message.key)
        self.user_broadcasts.enqueue(message)
        if self._on_user_event is not None:
            self._on_user_event(message)

    def _handle_dead(self, message: Dead) -> None:
        if message.member == self.name:
            if not self._leaving:
                self._refute(message.incarnation)
            return
        member = self._members.get(message.member)
        if member is None:
            return
        if member.is_dead and message.incarnation <= member.incarnation:
            # Fast path: already dead at this or a newer incarnation.
            return
        is_leave = message.sender == message.member
        new_state = MemberState.LEFT if is_leave else MemberState.DEAD
        decision = self._members.merge_claim(
            message.member, new_state, message.incarnation, self._clock()
        )
        self._apply_merge_decision(decision, message.sender)

    def _apply_merge_decision(self, decision: MergeDecision, origin: str) -> bool:
        """Shared reaction layer behind gossip and anti-entropy sync.

        Translates one :class:`MergeDecision` (the table mutation already
        happened inside :class:`MemberMap`) into protocol side effects:
        membership events, suspicion bookkeeping, re-broadcast of the
        winning claim, and refutation of claims about the local member.
        ``origin`` attributes SUSPECT/DEAD claims to the member whose
        message carried them. Returns ``True`` when local state changed.
        """
        now = self._clock()
        name = decision.name
        if decision.action == MERGE_LOCAL:
            if decision.state in (MemberState.SUSPECT, MemberState.DEAD):
                self._refute(decision.incarnation)
                return True
            return False
        if decision.action == MERGE_SUSPECT:
            # Route through the full suspicion machinery (confirmation
            # counting, decaying timers) exactly as a gossiped suspect
            # claim would be.
            if decision.previous_state is None:
                self._emit(EventKind.JOINED, name, decision.incarnation, now)
            member = self._members.get(name)
            # A snapshot is merged into the table whole before its first
            # decision is applied, so one that names the subject twice
            # may already have written it off while the suspicion it
            # ends is still held (the decision that drops it comes later
            # in the batch). _handle_suspect trusts a held suspicion to
            # mean SUSPECT, so a subject dead by now is turned away here.
            if member is not None and not member.is_dead:
                self._handle_suspect(Suspect(decision.incarnation, name, origin))
            became_suspect = (
                member is not None
                and member.is_suspect
                and decision.previous_state is not MemberState.SUSPECT
            )
            return decision.previous_state is None or became_suspect
        if decision.action == MERGE_ADDED:
            member = self._members.get(name)
            assert member is not None
            self._emit(EventKind.JOINED, name, decision.incarnation, now)
            self._broadcasts.enqueue(
                Alive(
                    decision.incarnation, name, member.address, member.meta,
                    member.zone,
                )
            )
            return True
        if decision.action != MERGE_APPLIED:
            return False
        self._cancel_suspicion(name)
        if decision.state is MemberState.ALIVE:
            member = self._members.get(name)
            assert member is not None
            if decision.previous_state in (
                MemberState.SUSPECT,
                MemberState.DEAD,
                MemberState.LEFT,
            ):
                self._emit(EventKind.RESTORED, name, decision.incarnation, now)
            elif decision.meta_changed:
                self._emit(EventKind.UPDATED, name, decision.incarnation, now)
            self._broadcasts.enqueue(
                Alive(
                    decision.incarnation, name, member.address, member.meta,
                    member.zone,
                )
            )
            return True
        is_leave = decision.state is MemberState.LEFT
        kind = EventKind.LEFT if is_leave else EventKind.FAILED
        self._emit(kind, name, decision.incarnation, now)
        self._broadcasts.enqueue(
            Dead(decision.incarnation, name, name if is_leave else origin)
        )
        return True

    # ------------------------------------------------------------------ #
    # Dedicated gossip tick (memberlist extension)
    # ------------------------------------------------------------------ #

    def _gossip_tick(self) -> None:
        config = self.config
        if not self._running or not config.gossip_enabled:
            return
        if self._paused:
            self._deferred_ticks["gossip"] = None
            return
        now = self._clock()
        self._gossip_timer = self._scheduler.call_at(
            now + config.gossip_interval, self._gossip_tick
        )
        # Most ticks of a quiet cluster end here. Whether either queue
        # holds anything is read off the queues' own dicts, here and on
        # every send: this is the most frequent event of all.
        if not (self._broadcasts._queue or self._user_broadcasts._queue):
            return
        targets = self._gossip_targets(now)
        if not targets:
            return
        budget = config.max_packet_size - codec.COMPOUND_HEADER_OVERHEAD
        # One selection for the whole round; targets served the same
        # list get the same packet, packed once.
        packed = packet = None
        for target, payloads in zip(targets, self._select_gossip(budget, len(targets))):
            if not payloads:
                break
            if payloads is not packed:
                packed, packet = payloads, self._pack_gossip_only(payloads)
            self.telemetry.record_send("gossip", len(packet))
            self._transport.send(target, packet)

    def _select_gossip(self, budget: int, rounds: int = 1) -> List[List[bytes]]:
        """Up to ``budget`` framed bytes of queued gossip for each of
        ``rounds`` packets: membership claims first, user events in
        whatever room each packet has left. The two queues are
        independent, so taking every packet's claims first selects what
        packet-by-packet selection would."""
        overhead = codec.COMPOUND_PART_OVERHEAD
        selected = self._broadcasts.get_payloads(budget, overhead, rounds)
        user = self._user_broadcasts
        # The user queue is almost always empty; only when it is not does
        # anyone need to know what the claims left of each packet.
        for index, payloads in enumerate(selected):
            if not user._queue:
                break
            room = budget - codec.framed_size(payloads)
            if room > 0:
                selected[index] = payloads + user.get_payloads(room, overhead)[0]
        return selected

    def _gossip_targets(self, now: float) -> List[str]:
        """Addresses for one dedicated gossip round: uniformly random
        members, or the configured overlay neighbors (still honouring
        liveness and the gossip-to-the-dead window)."""
        if self._overlay_neighbors is None:
            return self._members.random_addresses(
                self.config.gossip_fanout,
                gossip_to_dead_within=self.config.gossip_to_dead,
                now=now,
            )
        candidates: List[str] = []
        for name in self._overlay_neighbors:
            member = self._members.get(name)
            if member is None:
                continue
            if member.is_alive or member.is_suspect:
                candidates.append(member.address)
            elif (
                member.is_dead
                and now - member.state_changed_at <= self.config.gossip_to_dead
            ):
                candidates.append(member.address)
        if len(candidates) <= self.config.gossip_fanout:
            return candidates
        return self._rng.sample(candidates, self.config.gossip_fanout)

    @staticmethod
    def _pack_gossip_only(payloads: List[bytes]) -> bytes:
        if len(payloads) == 1:
            return payloads[0]
        return codec.pack_compound(payloads)

    # ------------------------------------------------------------------ #
    # Anti-entropy push/pull (memberlist extension)
    # ------------------------------------------------------------------ #

    def _push_pull_tick(self) -> None:
        if not self._running or self._defer_if_paused("push_pull"):
            return
        now = self._clock()
        self._push_pull_timer = self._scheduler.call_at(
            now + self.config.push_pull_interval, self._push_pull_tick
        )
        self._sync.push_pull_round()

    def _reconnect_tick(self) -> None:
        if not self._running or self._defer_if_paused("reconnect"):
            return
        now = self._clock()
        self._reconnect_timer = self._scheduler.call_at(
            now + self.config.reconnect_interval, self._reconnect_tick
        )
        self._sync.reconnect_round()

    def _handle_push_pull(self, message: PushPull, from_address: str) -> None:
        self._sync.handle_push_pull(message, from_address)

    def _send_sync(self, address: str, message: PushPull) -> None:
        """Reliable, piggyback-free send used by the sync engine."""
        self._send_to_address(address, message, reliable=True, piggyback=False)

    # ------------------------------------------------------------------ #
    # Outbound helpers
    # ------------------------------------------------------------------ #

    def _send_to_address(
        self,
        address: str,
        primary: Message,
        reliable: bool = False,
        piggyback: bool = True,
        mandatory_piggyback: Sequence[bytes] = (),
    ) -> None:
        """Send ``primary`` with whatever may ride along: the mandatory
        (Buddy System) payloads and, for a piggybacking send, as much
        queued gossip as the packet has room for. When there is neither —
        most packets of a quiet cluster — the packet is the encoded
        primary itself."""
        gossip = piggyback and self.config.gossip_enabled
        if not (
            mandatory_piggyback
            or (gossip and (self._broadcasts._queue or self._user_broadcasts._queue))
        ):
            packet = codec.encode(primary)
        else:
            payloads: List[bytes] = list(mandatory_piggyback)
            encoded_primary = codec.encode(primary)
            if gossip:
                budget = (
                    self.config.max_packet_size
                    - codec.COMPOUND_HEADER_OVERHEAD
                    - codec.COMPOUND_PART_OVERHEAD
                    - len(encoded_primary)
                    - codec.framed_size(payloads)
                )
                if budget > 0:
                    payloads.extend(self._select_gossip(budget)[0])
            packet = codec.pack_encoded_with_piggyback(encoded_primary, payloads)
        self.telemetry.record_send(primary_kind(primary), len(packet), reliable)
        self._transport.send(address, packet, reliable=reliable)

    def _next_seq(self) -> int:
        self._seq = (self._seq + 1) % _SEQ_MODULUS
        return self._seq

    def _emit(self, kind: EventKind, subject: str, incarnation: int, now: float) -> None:
        if self._listeners:
            event = MemberEvent(now, self.name, subject, kind, incarnation)
            for listener in self._listeners:
                listener(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SwimNode({self.name!r}, members={len(self._members)}, "
            f"lhm={self._lhm.score})"
        )
