"""The simulated cluster: N protocol nodes on one virtual-time fabric.

This is the experiment-facing API. A :class:`SimCluster` owns the clock,
scheduler, network, anomaly controller and all nodes; experiments
configure anomalies, run virtual time forward, and read the shared event
log and telemetry afterwards.

Runs are deterministic: every source of randomness derives from the
cluster seed (one RNG stream for the network, one per node).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import SwimConfig
from repro.metrics.event_log import ClusterEventLog
from repro.metrics.telemetry import Telemetry
from repro.sim.anomaly import AnomalyController
from repro.sim.network import LatencyModel, SimNetwork
from repro.sim.scheduler import EventScheduler, collector_paused
from repro.swim.roster import Roster
from repro.swim.node import SwimNode
from repro.swim.state import MemberState
from repro.transport.sim import SimTransport


def default_member_names(count: int) -> List[str]:
    """``m000 .. m<count-1>`` — short names keep packets realistic."""
    width = max(3, len(str(count - 1)))
    return [f"m{i:0{width}d}" for i in range(count)]


class SimCluster:
    """Hosts a simulated SWIM/Lifeguard group.

    Parameters
    ----------
    n_members:
        Number of members (ignored if ``names`` is given).
    config:
        Protocol configuration shared by every member, or a callable
        ``name -> SwimConfig`` for heterogeneous groups.
    seed:
        Master seed; fixes every random choice in the run.
    latency / loss_rate:
        Network fabric model (defaults to the paper's loopback).
    bootstrap:
        ``"preseed"`` (default) starts every member already knowing the
        full group — the state the paper's clusters are in after their
        15-second quiesce. ``"join"`` starts members knowing only a seed
        member and exercises the join path.
    anomaly_inbound_capacity:
        Socket-buffer analogue for blocked members: how many inbound
        packets queue during an anomaly window before tail-dropping.
        Set to 0 to model a member that loses everything sent to it
        while unresponsive.
    """

    @collector_paused
    def __init__(
        self,
        n_members: int = 0,
        config: "SwimConfig | Callable[[str], SwimConfig]" = None,  # type: ignore[assignment]
        seed: int = 0,
        names: Optional[Sequence[str]] = None,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        bootstrap: str = "preseed",
        anomaly_inbound_capacity: int = 4096,
        meta_for: Optional[Callable[[str], bytes]] = None,
        on_user_event: Optional[Callable[[str, object], None]] = None,
    ) -> None:
        if config is None:
            config = SwimConfig.swim_baseline()
        if names is None:
            if n_members < 1:
                raise ValueError("need n_members >= 1 or explicit names")
            names = default_member_names(n_members)
        if bootstrap not in ("preseed", "join"):
            raise ValueError("bootstrap must be 'preseed' or 'join'")
        self.names: List[str] = list(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("member names must be unique")

        self.seed = seed
        self.scheduler = EventScheduler()
        self.clock = self.scheduler.clock
        #: What every node of the cluster reads the time through.
        self._read_clock = self.clock.reader()
        self._net_rng = random.Random((seed << 1) ^ 0x5EED)
        self.network = SimNetwork(
            self.scheduler, self._net_rng, latency=latency, loss_rate=loss_rate
        )
        self.anomalies = AnomalyController(
            self.scheduler, self.network,
            inbound_capacity=anomaly_inbound_capacity,
        )
        self.network.attach_anomalies(self.anomalies)
        self.anomalies.on_transition = self._on_anomaly_transition
        self.event_log = ClusterEventLog()

        config_for: Callable[[str], SwimConfig]
        if callable(config):
            config_for = config  # type: ignore[assignment]
        else:
            fixed = config
            config_for = lambda _name: fixed  # noqa: E731

        self._meta_for = meta_for
        self._on_user_event = on_user_event
        #: One name-interning roster for every member table of the
        #: cluster; each node interns (and announces) itself as it is
        #: built, so ids follow ``names`` order.
        self.roster = Roster()
        self.nodes: Dict[str, SwimNode] = {}
        self._transports: Dict[str, SimTransport] = {}
        for index, name in enumerate(self.names):
            self._add_node(name, config_for(name), index)

        self._bootstrap = bootstrap
        self._started = False
        #: Shared metrics registry, populated by
        #: :meth:`install_ops_registry` (``None`` until installed).
        self.ops_registry = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _add_node(self, name: str, config: SwimConfig, index: int) -> SwimNode:
        """Build member number ``index`` on the cluster's fabric, with
        the cluster's seeding scheme, metadata and user-event hook."""
        meta_for = self._meta_for
        on_user_event = self._on_user_event
        transport = SimTransport(name, self.network)
        node = SwimNode(
            name,
            config,
            clock=self._read_clock,
            scheduler=self.scheduler,
            transport=transport,
            rng=random.Random(self.seed * 1_000_003 + index * 7919 + 17),
            listener=self.event_log,
            meta=meta_for(name) if meta_for is not None else b"",
            on_user_event=(
                (lambda event: on_user_event(name, event))
                if on_user_event is not None
                else None
            ),
            roster=self.roster,
        )
        transport.bind(node.handle_packet)
        transport.on_reliable_failure = node.note_reliable_send_failure
        self.nodes[name] = node
        self._transports[name] = transport
        return node

    @collector_paused
    def start(self) -> None:
        """Bootstrap membership and start every node's protocol loops."""
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        if self._bootstrap == "preseed":
            now = self.clock.now
            # Every table takes the whole shared roster; each map skips
            # its own id.
            everyone = range(len(self.roster))
            for node in self.nodes.values():
                node.members.add_many(everyone, 1, MemberState.ALIVE, now)
            for node in self.nodes.values():
                node.start()
        else:
            seed_member = self.names[0]
            for node in self.nodes.values():
                node.start()
            for node in self.nodes.values():
                if node.name != seed_member:
                    node.join([seed_member])

    def set_event_tap(self, tap: Optional[Callable[[float], None]]) -> None:
        """Install (or remove) a callback run after every simulated event.

        The tap fires at event boundaries — after a scheduled callback
        and everything it did synchronously has completed — so the
        cluster state it observes is always at a consistent point. This
        is the hook the invariant oracles of :mod:`repro.check` attach
        to; a tap that raises aborts the run at the offending event.
        """
        self.scheduler.on_event = tap

    def spawn_member(
        self,
        name: str,
        config: Optional[SwimConfig] = None,
        join_via: Optional[str] = None,
    ) -> SwimNode:
        """Create and start a new member on the running cluster's fabric.

        The join-churn primitive: the new member knows nothing about the
        group until it contacts ``join_via`` (another member's name), so
        this exercises the real join path mid-run. The node inherits the
        cluster's deterministic seeding scheme and shares the event log.
        """
        if name in self.nodes:
            raise ValueError(f"member {name!r} already exists")
        if config is None:
            first = self.nodes[self.names[0]]
            config = first.config
        node = self._add_node(name, config, len(self.names))
        self.names.append(name)
        node.start()
        if join_via is not None:
            node.join([join_via])
        if self.ops_registry is not None:
            self._attach_to_registry(node)
        return node

    def install_gossip_overlay(self, degree: int, seed: Optional[int] = None) -> dict:
        """Wire every node's dedicated gossip onto a random regular graph.

        Explores the paper's Section VII future work (bounding
        dissemination tails with a random overlay). Returns the adjacency
        mapping that was installed.
        """
        try:
            import networkx
        except ImportError as exc:
            raise ImportError(
                "install_gossip_overlay needs networkx: install the "
                "'overlay' extra (pip install 'repro[overlay]')"
            ) from exc

        if not 1 <= degree < len(self.names):
            raise ValueError("need 1 <= degree < n_members")
        if (degree * len(self.names)) % 2 == 1:
            raise ValueError("degree * n_members must be even for a regular graph")
        graph = networkx.random_regular_graph(
            degree, len(self.names), seed=self.seed if seed is None else seed
        )
        adjacency = {}
        for index, name in enumerate(self.names):
            neighbors = [self.names[j] for j in graph.neighbors(index)]
            adjacency[name] = neighbors
            self.nodes[name].set_gossip_overlay(neighbors)
        return adjacency

    def install_ops_registry(self):
        """Attach the ops plane's metrics registry to every node.

        The registry-only face of :mod:`repro.ops`: one shared
        :class:`~repro.ops.registry.MetricsRegistry` hosts a
        :class:`~repro.ops.registry.NodeCollector` per member (samples
        labelled by node name) and every node's ack-latency hook feeds
        the ``lifeguard_probe_rtt_seconds`` histogram — so simulated
        experiments can assert on exactly the metrics a live member
        serves from ``/metrics``. Returns the registry.
        """
        from repro.ops.registry import MetricsRegistry

        if self.ops_registry is None:
            self.ops_registry = MetricsRegistry()
            for node in self.nodes.values():
                self._attach_to_registry(node)
        return self.ops_registry

    def _attach_to_registry(self, node: SwimNode) -> None:
        from repro.ops.registry import NodeCollector

        collector = NodeCollector(self.ops_registry, node)
        collector.install_rtt_hook()
        collector.install_sync_hook()

    def _on_anomaly_transition(self, member: str, blocked: bool, _now: float) -> None:
        """Suspend/resume a member's protocol loops around its anomaly
        windows (the paper's block-on-first-send semantics). Members under
        CPU-stress anomalies keep their loops running (io-only semantics:
        a starved process keeps scheduling work that its delayed I/O then
        fails)."""
        if self.anomalies.stall_loops and member not in self.anomalies.io_only_members:
            node = self.nodes.get(member)
            if node is not None:
                node.set_paused(blocked)

    def run_until(self, deadline: float) -> int:
        """Advance virtual time; returns events executed."""
        return self.scheduler.run_until(deadline)

    def run_for(self, duration: float) -> int:
        return self.scheduler.run_for(duration)

    def stop(self) -> None:
        for node in self.nodes.values():
            if node.running:
                node.stop()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def node(self, name: str) -> SwimNode:
        return self.nodes[name]

    def cluster_of(self, member: str) -> "SimCluster":
        """The fabric hosting ``member``: a flat cluster is its own
        (the accessor :class:`~repro.zones.cluster.ZonedCluster` shares)."""
        return self

    def scheduler_for(self, member: str) -> EventScheduler:
        return self.scheduler

    @property
    def now(self) -> float:
        return self.clock.now

    def telemetry(self) -> Telemetry:
        """Aggregated message/byte counters across all members."""
        return Telemetry.aggregate(node.telemetry for node in self.nodes.values())

    def view(self, observer: str, subject: str) -> Optional[MemberState]:
        """How ``observer`` currently sees ``subject``."""
        member = self.nodes[observer].members.get(subject)
        return member.state if member is not None else None

    def all_converged_alive(self, among: Optional[Sequence[str]] = None) -> bool:
        """Whether every (given) member sees every other as ALIVE — the
        paper's recovery criterion for ending an experiment."""
        group = list(among) if among is not None else self.names
        for observer in group:
            members = self.nodes[observer].members
            for subject in group:
                if subject == observer:
                    continue
                member = members.get(subject)
                if member is None or not member.is_alive:
                    return False
        return True

    def run_until_converged(
        self,
        deadline: float,
        check_interval: float = 1.0,
        among: Optional[Sequence[str]] = None,
    ) -> bool:
        """Run until convergence (checked every ``check_interval`` of
        virtual time) or until ``deadline``. Returns convergence status."""
        while self.clock.now < deadline:
            if self.all_converged_alive(among):
                return True
            step_until = min(self.clock.now + check_interval, deadline)
            self.scheduler.run_until(step_until)
        return self.all_converged_alive(among)

    def unanimity(self, subject: str, state: MemberState) -> bool:
        """Whether every *other* member sees ``subject`` in ``state``."""
        for observer in self.names:
            if observer == subject:
                continue
            if self.view(observer, subject) is not state:
                return False
        return True
