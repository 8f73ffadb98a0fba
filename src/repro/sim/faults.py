"""The simulator's executor for a cluster-level fault schedule.

:class:`SimFaultExecutor` schedules a :class:`~repro.faults.FaultSchedule`
onto anything shaped like a simulated cluster — ``names``,
``cluster_of(member)`` (the :class:`~repro.sim.runtime.SimCluster` whose
fabric hosts the member) and ``scheduler_for(member)``. A flat
``SimCluster`` is its own single fabric; a
:class:`~repro.zones.cluster.ZonedCluster` has one per zone, and
additionally accepts ``zone_partition`` windows. The fuzzer
(:mod:`repro.check.runner`) and the soak report's paired replay
(:mod:`repro.soak.sim_compare`) both drive their clusters through this
one class; how each kind is realised is tabulated in
``docs/FAULT_INJECTION.md``.

Overlapping network faults compose per fabric as the *maximum* of the
active windows (loss rates, per-link rates) or the most recent one
(partitions), recomputed whenever a window opens or closes, so windows
may nest and overlap freely. The executor also tracks which members the
schedule removes for good (:attr:`SimFaultExecutor.expected_gone`) —
the convergence oracles' ground truth — and keeps restarted and newly
joined members offering sync until their group sees them alive.
"""

from __future__ import annotations

from random import Random
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.faults import FaultEntry, FaultSchedule
from repro.sim.runtime import SimCluster
from repro.swim.node import SwimNode
from repro.swim.state import MemberState

#: How often an isolated (re)joiner retries its join (virtual seconds).
_JOIN_RETRY = 5.0

#: Directed links degraded by one window, and the drop rate on them.
_LinkLoss = Tuple[Tuple[Tuple[str, str], ...], float]


class _Fabric:
    """The active network-fault windows on one ``SimCluster`` fabric."""

    def __init__(self, cluster: SimCluster) -> None:
        self.cluster = cluster
        #: Members present before any fault ran: the (re)join anchors.
        self.base_names = list(cluster.names)
        self.ambient_loss = cluster.network.loss_rate
        self.partitions: List[FaultEntry] = []
        self.loss_rates: List[float] = []
        self.link_loss: List[_LinkLoss] = []

    def apply_partitions(self) -> None:
        network = self.cluster.network
        if not self.partitions:
            network.heal_partition()
            return
        members = self.partitions[-1].members
        group = [n for n in members if n in self.cluster.nodes]
        rest = [n for n in self.cluster.names if n not in members]
        network.partition(group, rest)

    def apply_loss(self) -> None:
        self.cluster.network.loss_rate = max(
            self.loss_rates + [self.ambient_loss]
        )

    def apply_link_loss(self) -> None:
        network = self.cluster.network
        network.clear_link_loss()
        rates: Dict[Tuple[str, str], float] = {}
        for links, rate in self.link_loss:
            for link in links:
                rates[link] = max(rates.get(link, 0.0), rate)
        for (src, dst), rate in rates.items():
            network.set_link_loss(src, dst, rate)


class SimFaultExecutor:
    """Applies ``schedule`` to ``cluster``, offsets counted from ``epoch``.

    ``seed`` derives the ``cpu_stress`` stall streams. Call
    :meth:`schedule` once, before virtual time passes ``epoch``.
    """

    def __init__(
        self,
        cluster: Any,
        schedule: FaultSchedule,
        seed: int = 0,
        epoch: float = 0.0,
    ) -> None:
        self.cluster = cluster
        self.faults = schedule
        self.seed = seed
        self.epoch = epoch
        #: Members the schedule removes permanently (crash, leave, or a
        #: join that found nobody to join through).
        self.expected_gone: Set[str] = set()
        self._fabrics: Dict[SimCluster, _Fabric] = {
            fabric: _Fabric(fabric)
            for fabric in dict.fromkeys(
                cluster.cluster_of(name) for name in cluster.names
            )
        }

    def expected_live(self) -> Set[str]:
        return {
            name for name in self.cluster.names if name not in self.expected_gone
        }

    # -- scheduling ------------------------------------------------------ #

    def schedule(self) -> None:
        self.faults.validate()
        cluster = self.cluster
        for index, entry in enumerate(self.faults.entries):
            kind = entry.kind
            start = self.epoch + entry.start
            end = self.epoch + entry.end
            if kind == "block":
                for member in entry.members:
                    cluster.cluster_of(member).anomalies.block_window(
                        member, start, end
                    )
            elif kind == "cpu_stress":
                for member in entry.members:
                    cluster.cluster_of(member).anomalies.cpu_stress(
                        member,
                        start,
                        entry.duration,
                        rng=Random(self.seed * 31_337 + index * 101 + 7),
                    )
            elif kind == "partition":
                for fabric in self._fabrics_of(entry.members):
                    self._window(
                        fabric, start, end,
                        fabric.partitions, entry, fabric.apply_partitions,
                    )
            elif kind == "loss" and not entry.members:
                for fabric in self._fabrics.values():
                    self._window(
                        fabric, start, end,
                        fabric.loss_rates, entry.rate, fabric.apply_loss,
                    )
            elif kind == "loss":
                # Loss *at* members: both directions of every link they
                # terminate (datagrams only, like the real transport).
                for fabric in self._fabrics_of(entry.members):
                    links = tuple(
                        link
                        for member in entry.members
                        for other in fabric.cluster.names
                        if other != member
                        for link in ((member, other), (other, member))
                    )
                    self._window(
                        fabric, start, end,
                        fabric.link_loss, (links, entry.rate),
                        fabric.apply_link_loss,
                    )
            elif kind == "link_loss":
                src, dst = entry.members
                fabric = self._fabrics[cluster.cluster_of(src)]
                self._window(
                    fabric, start, end,
                    fabric.link_loss, (((src, dst),), entry.rate),
                    fabric.apply_link_loss,
                )
            elif kind == "zone_partition":
                cluster.add_zone_partition(entry.members, start, end)
            else:
                for member in entry.members:
                    call_at = cluster.scheduler_for(member).call_at
                    if kind == "flap":
                        call_at(start, lambda m=member: self._stop(m))
                        call_at(end, lambda m=member: self._restart(m))
                    elif kind == "crash":
                        self.expected_gone.add(member)
                        call_at(start, lambda m=member: self._stop(m))
                    elif kind == "leave":
                        self.expected_gone.add(member)
                        call_at(start, lambda m=member: self._leave(m))
                    else:  # join
                        call_at(start, lambda m=member: self._join(m))

    @staticmethod
    def _window(
        fabric: _Fabric,
        start: float,
        end: float,
        stack: List[Any],
        item: Any,
        apply: Callable[[], None],
    ) -> None:
        """Hold ``item`` on ``stack`` over ``[start, end)``, re-deriving
        the fabric's effective state at both edges."""

        def begin() -> None:
            stack.append(item)
            apply()

        def finish() -> None:
            stack.remove(item)
            apply()

        fabric.cluster.scheduler.call_at(start, begin)
        fabric.cluster.scheduler.call_at(end, finish)

    def _fabrics_of(self, members: Tuple[str, ...]) -> List[_Fabric]:
        return [
            self._fabrics[fabric]
            for fabric in dict.fromkeys(
                self.cluster.cluster_of(member) for member in members
            )
        ]

    # -- process faults -------------------------------------------------- #

    def _node(self, member: str) -> Optional[SwimNode]:
        node: Optional[SwimNode] = self.cluster.cluster_of(member).nodes.get(member)
        return node

    def _stop(self, member: str) -> None:
        node = self._node(member)
        if node is not None and node.running:
            node.stop()

    def _restart(self, member: str) -> None:
        node = self._node(member)
        if node is not None and not node.running:
            node.start()
            # A restarted process rejoins the group: its peers wrote it
            # off as DEAD and will never probe or gossip to it again, so
            # the only protocol paths back in are the join handshake and
            # (when enabled) periodic reconnect sync — and the sweep also
            # runs sync-off clusters.
            self._schedule_rejoin(member, first_delay=0.0)

    def _leave(self, member: str) -> None:
        node = self._node(member)
        if node is not None and node.running:
            node.leave()

    def _join(self, member: str) -> None:
        if self._node(member) is not None:
            return
        anchor = self._pick_anchor(member)
        if anchor is None:
            self.expected_gone.add(member)
            return
        self.cluster.cluster_of(member).spawn_member(member, join_via=anchor)
        self._schedule_rejoin(member)

    def _pick_anchor(self, member: str) -> Optional[str]:
        """A running, staying original member of ``member``'s fabric."""
        fabric = self._fabrics[self.cluster.cluster_of(member)]
        for name in fabric.base_names:
            if name == member or name in self.expected_gone:
                continue
            node = fabric.cluster.nodes.get(name)
            if node is not None and node.running:
                return name
        return None

    def _reintegrated(self, member: str) -> bool:
        """Whether every running fabric peer currently sees ``member`` as
        alive. (Remote zones learn of it only through bridge claims, which
        the restart's RESTORED event triggers on its own.)

        Gossip's transmit budget is finite: with periodic sync disabled,
        a peer that was blocked while the (re)join refutation circulated
        can stay convinced the member is DEAD forever. A fresh sync offer
        directly repairs such a straggler, so the rejoin loop keeps going
        until no straggler remains.
        """
        peers = 0
        for name, node in self.cluster.cluster_of(member).nodes.items():
            if name == member or not node.running:
                continue
            view = node.members.get(member)
            if view is None or not view.is_alive:
                return False
            peers += 1
        return peers > 0

    def _schedule_rejoin(self, member: str, first_delay: float = _JOIN_RETRY) -> None:
        # A restarted (or newly joined) process keeps offering sync to its
        # last-known peer list until the whole group sees it alive — the
        # serf snapshot-rejoin behaviour. A member that knows nobody yet
        # falls back to the executor's anchor.
        # (Re-armed through the executor, not as a closure that names
        # itself: that is a reference cycle left behind per rejoin.)
        self.cluster.scheduler_for(member).call_later(
            first_delay, lambda: self._attempt_rejoin(member)
        )

    def _attempt_rejoin(self, member: str) -> None:
        node = self._node(member)
        if node is None or not node.running:
            return
        if self._reintegrated(member):
            return
        peers = [
            name
            for name, state, _ in node.members.claims()
            if name != member and state is not MemberState.LEFT
        ]
        if not peers:
            anchor = self._pick_anchor(member)
            peers = [anchor] if anchor is not None else []
        if peers:
            node.join(peers)
        self._schedule_rejoin(member)
