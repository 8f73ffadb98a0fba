"""Declarative, clock-driven fault injection for the real transports.

The simulator injects faults by construction (:mod:`repro.sim.anomaly`,
:meth:`SimNetwork.partition <repro.sim.network.SimNetwork.partition>`);
a *real* cluster on one host has no such narrator — and reaching for
iptables would need root and leak state past the process. Instead the
chaos harness (:mod:`repro.soak`) hands every member a :class:`FaultPlan`
— a wall-clock schedule of loss and partition windows — and the member's
own :class:`~repro.transport.udp.UdpTransport` enforces it at the socket
boundary:

* **loss** windows drop outbound and inbound datagrams independently
  with the window's rate (UDP only — TCP retransmits through loss, as in
  the simulator's symmetric loss model);
* **partition** windows silently drop all datagrams to/from the listed
  peer addresses and fail reliable sends to them permanently (surfaced
  through ``on_reliable_failure``, exactly like a real severed path).

Every member of a soak run carries the same schedule translated to its
own viewpoint, so both sides of a partition drop symmetrically without
any coordination at runtime. Windows are anchored to an absolute
``epoch`` (unix time), letting the launcher arm hundreds of processes
against one shared timeline.

Plans are immutable and JSON round-trippable, and reach a live
transport one way: :meth:`UdpTransport.set_fault_plan
<repro.transport.udp.UdpTransport.set_fault_plan>`, which the soak
member process calls at startup and again whenever the launcher
rewrites its plan file (so an already-converged cluster can be armed).
Stdlib only, no imports from the rest of the package, so the
transports and the simulator can both sit above it.

This module also owns the **cluster-level** fault language those plans
are compiled from: :class:`FaultEntry` / :class:`FaultSchedule` name
*what breaks, when, for how long* in member names and offsets from an
epoch, with no reference to addresses or clocks. Two executors run a
schedule — :mod:`repro.sim.faults` on a simulated cluster and
:mod:`repro.soak` (signals plus one compiled :class:`FaultPlan` per
member) on real processes; see the kind table in ``docs/FAULT_INJECTION.md``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Collection, Dict, FrozenSet, Iterator, Tuple

PLAN_SCHEMA = "repro-fault-plan/v1"
SCHEDULE_SCHEMA = "repro-fault-schedule/v1"

#: Every cluster-level fault kind. Windowed kinds occupy
#: ``[start, start + duration)``; point kinds take no duration.
FAULT_KINDS = (
    "block",       # windowed: members' protocol I/O frozen
    "cpu_stress",  # windowed: heavy-tailed scheduler stalls on one member
    "partition",   # windowed: members split from the rest of the group
    "loss",        # windowed: datagram loss at `rate` (at members, or everywhere)
    "link_loss",   # windowed: asymmetric loss members[0] -> members[1]
    "flap",        # crash at start, restart at start + duration
    "crash",       # point: permanent ungraceful stop
    "leave",       # point: graceful departure
    "join",        # point: a brand-new member joins via a seed member
    "zone_partition",  # windowed: named *zones* cut off at epoch barriers
)

_WINDOWED = frozenset(
    {"block", "cpu_stress", "partition", "loss", "link_loss", "flap",
     "zone_partition"}
)


@dataclass(frozen=True)
class FaultEntry:
    """One scheduled cluster-level fault.

    ``members`` are member names (zone names for ``zone_partition``);
    ``loss`` with members means "at those members", without means
    cluster-wide. ``name`` labels the entry in reports.
    """

    kind: str
    start: float
    duration: float = 0.0
    members: Tuple[str, ...] = ()
    rate: float = 0.0
    name: str = ""

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.start < 0:
            raise ValueError("fault start must be >= 0")
        if self.duration < 0:
            raise ValueError("fault duration must be >= 0")
        if self.kind in _WINDOWED:
            if self.duration <= 0:
                raise ValueError(f"{self.kind} fault needs a positive duration")
        elif self.duration:
            raise ValueError(
                f"{self.kind} is a point fault (permanent); duration must be 0"
            )
        if self.kind == "loss":
            if not 0.0 < self.rate < 1.0:
                raise ValueError("loss rate must be in (0, 1)")
        elif self.kind == "link_loss":
            if not 0.0 < self.rate <= 1.0:
                raise ValueError("link_loss rate must be in (0, 1]")
            if len(set(self.members)) != 2 or len(self.members) != 2:
                raise ValueError("link_loss needs two distinct members (src, dst)")
        elif self.rate:
            raise ValueError("rate is only meaningful on loss and link_loss faults")
        if self.kind != "loss" and not self.members:
            raise ValueError(f"{self.kind} fault needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate members in one {self.kind} fault")

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def label(self) -> str:
        return self.name or f"{self.kind}@{self.start:g}s"

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "start": self.start}
        if self.duration:
            out["duration"] = self.duration
        if self.members:
            out["members"] = list(self.members)
        if self.rate:
            out["rate"] = self.rate
        if self.name:
            out["name"] = self.name
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEntry":
        entry = cls(
            kind=data["kind"],
            start=float(data["start"]),
            duration=float(data.get("duration", 0.0)),
            members=tuple(data.get("members", ())),
            rate=float(data.get("rate", 0.0)),
            name=str(data.get("name", "")),
        )
        entry.validate()
        return entry


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable sequence of :class:`FaultEntry`, JSON round-trippable.

    Offsets are relative to an epoch the executor chooses (virtual time
    zero, a post-warm-up instant, or the wall-clock moment a real
    cluster is armed), so one file drives either executor.
    """

    entries: Tuple[FaultEntry, ...] = ()

    def validate(self, kinds: Collection[str] = FAULT_KINDS) -> None:
        """Check every entry, and that an executor accepting only
        ``kinds`` can run all of them."""
        for entry in self.entries:
            entry.validate()
            if entry.kind not in kinds:
                raise ValueError(
                    f"fault {entry.label!r}: kind {entry.kind!r} is not one "
                    f"of the accepted kinds: {', '.join(kinds)}"
                )

    @property
    def end(self) -> float:
        """Offset of the last window's end (a point fault ends at its start)."""
        return max((entry.end for entry in self.entries), default=0.0)

    def of_kind(self, kind: str) -> Tuple[FaultEntry, ...]:
        return tuple(entry for entry in self.entries if entry.kind == kind)

    def members(self) -> FrozenSet[str]:
        """Every member (or zone) name the schedule refers to."""
        return frozenset(m for entry in self.entries for m in entry.members)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEDULE_SCHEMA,
            "faults": [entry.as_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSchedule":
        schema = data.get("schema")
        if schema != SCHEDULE_SCHEMA:
            raise ValueError(
                f"unsupported fault schedule schema {schema!r}; the accepted "
                f"schema is {SCHEDULE_SCHEMA!r} (a 'faults' list of "
                f"kind/start/duration/members/rate/name entries)"
            )
        return cls(tuple(FaultEntry.from_dict(e) for e in data.get("faults", ())))

    def dumps(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultSchedule":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps() + "\n")


# ---------------------------------------------------------------------- #
# The compiled per-member form the real transports enforce
# ---------------------------------------------------------------------- #

#: Injectable fault kinds at the transport boundary.
FAULT_WINDOW_KINDS = ("loss", "partition")


@dataclass(frozen=True)
class FaultWindow:
    """One timed fault at one member's transport.

    ``start``/``end`` are offsets in seconds from the owning plan's
    ``epoch``. ``rate`` is the independent datagram drop probability for
    ``loss`` windows; ``peers`` is the tuple of ``host:port`` addresses
    cut off by a ``partition`` window.
    """

    kind: str
    start: float
    end: float
    rate: float = 0.0
    peers: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_WINDOW_KINDS:
            known = ", ".join(FAULT_WINDOW_KINDS)
            raise ValueError(f"fault window kind must be one of: {known}")
        if self.start < 0:
            raise ValueError("fault window start must be >= 0")
        if self.end <= self.start:
            raise ValueError("fault window end must be > start")
        if self.kind == "loss":
            if not 0.0 < self.rate <= 1.0:
                raise ValueError("loss rate must be in (0, 1]")
        if self.kind == "partition" and not self.peers:
            raise ValueError("partition window needs at least one peer")

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "start": self.start, "end": self.end}
        if self.kind == "loss":
            out["rate"] = self.rate
        if self.peers:
            out["peers"] = list(self.peers)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultWindow":
        return cls(
            kind=str(data["kind"]),
            start=float(data["start"]),
            end=float(data["end"]),
            rate=float(data.get("rate", 0.0)),
            peers=tuple(data.get("peers", ())),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A member's full fault schedule, anchored at ``epoch`` (unix time).

    Immutable and hashable so it can ride on the frozen
    :class:`~repro.config.SwimConfig`. ``seed`` makes the loss coin
    flips reproducible per member.
    """

    windows: Tuple[FaultWindow, ...] = ()
    epoch: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.windows, tuple):
            object.__setattr__(self, "windows", tuple(self.windows))

    @property
    def end(self) -> float:
        """Offset of the last window's end (0 for an empty plan)."""
        return max((w.end for w in self.windows), default=0.0)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": PLAN_SCHEMA,
            "epoch": self.epoch,
            "seed": self.seed,
            "windows": [w.as_dict() for w in self.windows],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        schema = data.get("schema", PLAN_SCHEMA)
        if schema != PLAN_SCHEMA:
            raise ValueError(f"unknown fault plan schema: {schema!r}")
        return cls(
            windows=tuple(
                FaultWindow.from_dict(w) for w in data.get("windows", ())
            ),
            epoch=float(data.get("epoch", 0.0)),
            seed=int(data.get("seed", 0)),
        )

    def dumps(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps() + "\n")


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against a wall clock.

    One instance lives on each real transport; the hot-path queries are
    O(active windows) and the common case (no plan, or outside every
    window) is a couple of float compares.
    """

    __slots__ = ("plan", "rng", "dropped_out", "dropped_in", "blocked_reliable")

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed ^ 0xFA17)
        #: Injection counters (merged into TransportStats by the owner).
        self.dropped_out = 0
        self.dropped_in = 0
        self.blocked_reliable = 0

    def _active(self, now: float) -> Iterator[FaultWindow]:
        offset = now - self.plan.epoch
        for window in self.plan.windows:
            if window.start <= offset < window.end:
                yield window

    def loss_rate(self, now: float) -> float:
        """Effective datagram loss probability at ``now`` (max of
        overlapping loss windows)."""
        rate = 0.0
        for window in self._active(now):
            if window.kind == "loss" and window.rate > rate:
                rate = window.rate
        return rate

    def partitioned_from(self, peer: str, now: float) -> bool:
        """Whether ``peer`` is cut off by an active partition window."""
        for window in self._active(now):
            if window.kind == "partition" and peer in window.peers:
                return True
        return False

    def drop_datagram(self, peer: str, now: float, outbound: bool) -> bool:
        """Decide one datagram's fate; counts the drop when taken."""
        if self.partitioned_from(peer, now):
            pass  # partition always drops
        else:
            rate = self.loss_rate(now)
            if rate <= 0.0 or self.rng.random() >= rate:
                return False
        if outbound:
            self.dropped_out += 1
        else:
            self.dropped_in += 1
        return True

    def block_reliable(self, peer: str, now: float) -> bool:
        """Whether a reliable send to ``peer`` must fail permanently."""
        if self.partitioned_from(peer, now):
            self.blocked_reliable += 1
            return True
        return False
