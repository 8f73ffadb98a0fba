"""Simulated network fabric.

Models the two channels memberlist uses:

* a **datagram** channel (UDP): per-packet latency sampled from a
  configurable distribution, independent packet loss, no ordering
  guarantee (reordering arises naturally from latency jitter);
* a **reliable** channel (TCP): same latency model with a small connection
  overhead, never randomly dropped — but still severed by partitions and
  still subject to anomaly blocking, since a frozen process reads neither
  socket.

Delivery to members experiencing an anomaly is intercepted by the
:class:`~repro.sim.anomaly.AnomalyController` (if one is attached).

The packet path is the simulator's innermost loop, so it is spelled
out: a send tests the controller's blocked map itself and asks the
controller only about a member in it; :meth:`LatencyModel.sample` draws
its exponential without a call into ``random``; and packets that land
at one timestamp share one scheduler event, a bound method that finds
its batch by the clock.
"""

from __future__ import annotations

import random
from math import log
from typing import Callable, Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.sim.scheduler import EventScheduler

#: Delivery callback signature: (payload, from_address, reliable).
DeliverFn = Callable[[bytes, str, bool], None]


class LatencyModel:
    """Samples one-way packet latency in seconds.

    The default parameters model the paper's environment — 128 agents
    pinned 8-per-core on one VM, talking over loopback. The wire itself
    is sub-millisecond; the exponential jitter term models the few
    milliseconds of run-queue delay before a co-scheduled agent gets the
    CPU to process a packet.
    """

    __slots__ = ("base", "jitter_mean", "reliable_overhead")

    def __init__(
        self,
        base: float = 0.0005,
        jitter_mean: float = 0.003,
        reliable_overhead: float = 0.001,
    ) -> None:
        if base < 0 or jitter_mean < 0 or reliable_overhead < 0:
            raise ValueError("latency parameters must be non-negative")
        self.base = base
        self.jitter_mean = jitter_mean
        self.reliable_overhead = reliable_overhead

    def sample(self, rng: random.Random, reliable: bool = False) -> float:
        latency = self.base
        jitter_mean = self.jitter_mean
        if jitter_mean > 0:
            # ``rng.expovariate(1.0 / jitter_mean)`` drawn here, with the
            # same draw and the same float operations: it runs once per
            # packet, and the call into ``random`` costs more than the
            # arithmetic.
            latency += -log(1.0 - rng.random()) / (1.0 / jitter_mean)
        if reliable:
            latency += self.reliable_overhead
        return latency

    @classmethod
    def loopback(cls) -> "LatencyModel":
        """The paper's single-VM loopback environment."""
        return cls()

    @classmethod
    def lan(cls) -> "LatencyModel":
        """A typical same-datacenter network (dedicated hosts: more wire
        latency than loopback, plus cross-host jitter)."""
        return cls(base=0.001, jitter_mean=0.004, reliable_overhead=0.002)

    @classmethod
    def wan(cls) -> "LatencyModel":
        """A cross-region network."""
        return cls(base=0.030, jitter_mean=0.010, reliable_overhead=0.060)


class NetworkStats:
    """Counters for fabric-level behaviour."""

    __slots__ = (
        "packets_sent",
        "packets_delivered",
        "packets_lost",
        "packets_cut",
        "reliable_failures",
    )

    def __init__(self) -> None:
        self.packets_sent = 0
        self.packets_delivered = 0
        #: Dropped by random datagram loss.
        self.packets_lost = 0
        #: Dropped because source and destination were partitioned.
        self.packets_cut = 0
        #: Reliable sends whose failure was reported back to the sender
        #: (the simulated analogue of a TCP connect timeout).
        self.reliable_failures = 0


class SimNetwork:
    """Connects simulated endpoints addressed by name."""

    def __init__(
        self,
        scheduler: EventScheduler,
        rng: random.Random,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self._scheduler = scheduler
        # Read per packet (``_now``, as the scheduler's drive loop does).
        self._clock = scheduler.clock
        self._rng = rng
        self._latency = latency if latency is not None else LatencyModel.loopback()
        self._loss_rate = loss_rate
        self._endpoints: Dict[str, DeliverFn] = {}
        self._failure_handlers: Dict[str, Callable[[str], None]] = {}
        #: Delay before a severed reliable send is reported back to its
        #: sender, modelling the TCP connect timeout a real transport
        #: waits out before giving up (``reliable_connect_timeout``).
        self.reliable_failure_delay = 2.0
        self._partitions: Set[frozenset] = set()
        self._partition_groups: Dict[str, int] = {}
        self._link_loss: Dict[Tuple[str, str], float] = {}
        self._anomalies = None  # set via attach_anomalies()
        #: The controller's live blocked map (empty until one is
        #: attached): only a member in it is handed to the controller.
        self._blocked: Mapping[str, object] = {}
        #: In-flight packets grouped by exact delivery timestamp: one
        #: scheduler event per distinct timestamp instead of one per
        #: packet. Within a batch, packets deliver in injection order —
        #: the same order separate (when, seq)-keyed events would have
        #: run, so seeded behavior is unchanged.
        self._delivery_batches: Dict[float, list] = {}
        self.stats = NetworkStats()

    # ------------------------------------------------------------------ #
    # Topology management
    # ------------------------------------------------------------------ #

    def register(self, address: str, deliver: DeliverFn) -> None:
        if address in self._endpoints:
            raise ValueError(f"address {address!r} already registered")
        self._endpoints[address] = deliver

    def redirect(self, address: str, deliver: DeliverFn) -> None:
        """Hand what arrives for ``address`` to ``deliver`` from now on.
        An address that is not registered (or no longer) stays so."""
        if address in self._endpoints:
            self._endpoints[address] = deliver

    def unregister(self, address: str) -> None:
        self._endpoints.pop(address, None)
        self._failure_handlers.pop(address, None)

    def register_failure_handler(
        self, address: str, handler: Callable[[str], None]
    ) -> None:
        """Ask to be told (with the destination address) when a reliable
        send from ``address`` is severed by a partition.

        A real TCP channel surfaces partition failures to the sender as
        connect timeouts (see ``repro.transport.udp``); the simulated
        fabric reproduces that signal so Lifeguard's
        ``RELIABLE_SEND_FAILED`` local-health evidence also flows in
        simulation, after :attr:`reliable_failure_delay` seconds.
        """
        self._failure_handlers[address] = handler

    def attach_anomalies(self, controller) -> None:
        """Wire in an :class:`~repro.sim.anomaly.AnomalyController`."""
        self._anomalies = controller
        self._blocked = controller.blocked

    @property
    def loss_rate(self) -> float:
        return self._loss_rate

    @loss_rate.setter
    def loss_rate(self, value: float) -> None:
        if not 0.0 <= value < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self._loss_rate = value

    def partition(self, *groups: Iterable[str]) -> None:
        """Split the network: members of different groups cannot reach
        each other. Members in no group remain reachable by everyone."""
        self._partition_groups = {}
        for index, group in enumerate(groups):
            for address in group:
                self._partition_groups[address] = index

    def heal_partition(self) -> None:
        self._partition_groups = {}

    def set_link_loss(self, src: str, dst: str, rate: float) -> None:
        """Drop datagrams on the directed link ``src -> dst`` with the
        given probability.

        This is the *asymmetric* degradation mode (one direction of a
        path greyed out by a bad NIC, a congested uplink or a half-open
        firewall) that the global :attr:`loss_rate` cannot express — and
        the regime where SWIM's indirect probes and Lifeguard's nacks
        earn their keep. Reliable-channel traffic is unaffected, matching
        the symmetric loss model (TCP retransmits through it).
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("link loss rate must be in [0, 1]")
        if rate == 0.0:
            self._link_loss.pop((src, dst), None)
        else:
            self._link_loss[(src, dst)] = rate

    def clear_link_loss(self, src: Optional[str] = None, dst: Optional[str] = None) -> None:
        """Remove directed-link loss; with no arguments, remove all of it."""
        if src is None and dst is None:
            self._link_loss.clear()
            return
        self._link_loss = {
            (s, d): rate
            for (s, d), rate in self._link_loss.items()
            if not ((src is None or s == src) and (dst is None or d == dst))
        }

    def _partitioned(self, src: str, dst: str) -> bool:
        src_group = self._partition_groups.get(src)
        dst_group = self._partition_groups.get(dst)
        if src_group is None or dst_group is None:
            return False
        return src_group != dst_group

    # ------------------------------------------------------------------ #
    # Datapath
    # ------------------------------------------------------------------ #

    def send(self, src: str, dst: str, payload: bytes, reliable: bool = False) -> None:
        """Entry point for a member's transport.

        Anomaly interception happens *here*, before the packet enters the
        fabric: a blocked member is blocked 'immediately before sending'
        (paper, Section V-D1).
        """
        if src in self._blocked and self._anomalies.intercept_send(
            src, dst, payload, reliable
        ):
            return
        self.inject(src, dst, payload, reliable)

    def inject(self, src: str, dst: str, payload: bytes, reliable: bool = False) -> None:
        """Put a packet on the fabric (used directly when the anomaly
        controller flushes a blocked member's queued sends)."""
        self.stats.packets_sent += 1
        if self._partition_groups and self._partitioned(src, dst):
            self.stats.packets_cut += 1
            if reliable:
                handler = self._failure_handlers.get(src)
                if handler is not None:
                    self.stats.reliable_failures += 1
                    self._scheduler.call_later(
                        self.reliable_failure_delay, lambda: handler(dst)
                    )
            return
        if not reliable and self._loss_rate > 0.0 and self._rng.random() < self._loss_rate:
            self.stats.packets_lost += 1
            return
        if not reliable and self._link_loss:
            link_rate = self._link_loss.get((src, dst), 0.0)
            if link_rate > 0.0 and self._rng.random() < link_rate:
                self.stats.packets_lost += 1
                return
        when = self._clock._now + self._latency.sample(self._rng, reliable)
        batch = self._delivery_batches.get(when)
        if batch is None:
            self._delivery_batches[when] = [(src, dst, payload, reliable)]
            self._scheduler.call_at(when, self._deliver_batch)
        else:
            batch.append((src, dst, payload, reliable))

    def _deliver_batch(self) -> None:
        """The event of one delivery timestamp: it runs at exactly the
        ``when`` its batch is keyed by (never in the past, so
        ``call_at`` did not clamp it)."""
        batch = self._delivery_batches.pop(self._clock._now, None)
        if batch is None:
            return
        # The per-packet delivery, inlined: a batch is the fabric's
        # innermost loop. An endpoint is looked up as each packet lands,
        # since an earlier one may have stopped (unregistered) it.
        endpoints = self._endpoints
        blocked = self._blocked
        stats = self.stats
        for src, dst, payload, reliable in batch:
            deliver = endpoints.get(dst)
            if deliver is None:
                continue
            if dst in blocked and self._anomalies.intercept_delivery(
                dst, payload, src, reliable
            ):
                continue
            stats.packets_delivered += 1
            deliver(payload, src, reliable)

    def deliver_now(self, dst: str, payload: bytes, src: str, reliable: bool) -> None:
        """Hand a previously queued packet to its endpoint immediately
        (anomaly-controller flush path)."""
        deliver = self._endpoints.get(dst)
        if deliver is not None:
            self.stats.packets_delivered += 1
            deliver(payload, src, reliable)
