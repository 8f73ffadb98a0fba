"""The real-cluster half of the fault language: what it accepts and how
a schedule compiles to each member's transport plan.

A soak run is driven by the same :class:`~repro.faults.FaultSchedule`
the simulator executes (kind table: ``docs/FAULT_INJECTION.md``), with
offsets relative to the soak *epoch* — the wall-clock instant the
launcher arms the run, after the cluster has converged. Real processes
can realise four of the kinds, split by enforcement plane:

=============  =========================================================
``crash``      SIGKILL the members at ``start`` (permanent). Executed by
               the :class:`~repro.soak.chaos.ChaosDriver`.
``block``      SIGSTOP at ``start``, SIGCONT at ``start + duration`` —
               the paper's unresponsive-but-alive incident shape.
               Executed by the chaos driver.
``loss``       Independent datagram loss at ``rate`` for the window, at
               the named members (default: everyone). Enforced inside
               each member's transport via its
               :class:`~repro.faults.FaultPlan` — no iptables, no root.
``partition``  The named members are cut off from the rest (UDP dropped
               both ways, reliable sends fail). Also enforced via
               per-member fault plans.
=============  =========================================================

:func:`validate_real_schedule` rejects, before anything is spawned,
every other kind and every schedule whose windows cannot compose on
real processes: two signal faults (crash/block) overlapping on one
member, anything naming a member after its crash, two loss or two
partition windows overlapping on the same members.
"""

from __future__ import annotations

from typing import Dict, List

from repro.faults import FaultEntry, FaultPlan, FaultSchedule, FaultWindow

#: Fault kinds the real-cluster executor can run.
REAL_FAULT_KINDS = ("crash", "block", "loss", "partition")

#: Kinds executed by signalling the member process.
_SIGNAL_KINDS = frozenset({"crash", "block"})


def _overlap(a: FaultEntry, b: FaultEntry) -> bool:
    """Window overlap; a crash's window is ``[start, +inf)``."""
    a_end = float("inf") if a.kind == "crash" else a.end
    b_end = float("inf") if b.kind == "crash" else b.end
    return a.start < b_end and b.start < a_end


def _check_pair(a: FaultEntry, b: FaultEntry) -> None:
    if not _overlap(a, b):
        return
    shared = sorted(set(a.members) & set(b.members))
    for crashed, late in ((a, b), (b, a)):
        # Cluster-wide loss tolerates dead members; nothing else may
        # name a member once it has been crashed.
        if crashed.kind == "crash" and shared:
            raise ValueError(
                f"fault {late.label!r} names member(s) {shared} after "
                f"their crash in {crashed.label!r}"
            )
    if a.kind in _SIGNAL_KINDS and b.kind in _SIGNAL_KINDS and shared:
        raise ValueError(
            f"overlapping signal faults {a.label!r} and {b.label!r} "
            f"share member(s) {shared}"
        )
    if a.kind == b.kind and a.kind in ("loss", "partition"):
        cluster_wide = a.kind == "loss" and not (a.members and b.members)
        if shared or cluster_wide:
            raise ValueError(
                f"overlapping {a.kind} faults {a.label!r} and {b.label!r} "
                f"cover the same members; merge them into one window"
            )


def validate_real_schedule(schedule: FaultSchedule) -> FaultSchedule:
    """Raise ``ValueError`` unless real processes can run ``schedule``;
    returns it so loaders can chain."""
    schedule.validate(REAL_FAULT_KINDS)
    ordered = sorted(schedule.entries, key=lambda e: (e.start, e.kind))
    for i, entry in enumerate(ordered):
        for other in ordered[i + 1:]:
            _check_pair(entry, other)
    return schedule


def member_fault_plan(
    schedule: FaultSchedule,
    name: str,
    addresses: Dict[str, str],
    epoch: float,
    seed: int = 0,
) -> FaultPlan:
    """Compile the cluster-level schedule into member ``name``'s own
    transport :class:`~repro.faults.FaultPlan`.

    ``addresses`` maps member name to ``host:port`` in spawn order (the
    launcher knows them all before arming). Loss windows land on every
    named member symmetrically; a partition window becomes, at each
    member, a window cutting off every address on the *other* side, so
    both sides drop without runtime coordination.
    """
    windows: List[FaultWindow] = []
    for entry in schedule.entries:
        if entry.kind == "loss":
            if entry.members and name not in entry.members:
                continue
            windows.append(
                FaultWindow("loss", entry.start, entry.end, rate=entry.rate)
            )
        elif entry.kind == "partition":
            inside = name in entry.members
            far_side = tuple(
                address
                for other, address in addresses.items()
                if (other in entry.members) != inside
            )
            if far_side:
                windows.append(
                    FaultWindow(
                        "partition", entry.start, entry.end, peers=far_side
                    )
                )
    index = list(addresses).index(name)
    return FaultPlan(
        windows=tuple(windows), epoch=epoch, seed=seed * 7919 + index
    )


def member_fault_plans(
    schedule: FaultSchedule,
    addresses: Dict[str, str],
    epoch: float,
    seed: int = 0,
) -> Dict[str, FaultPlan]:
    """Per-member plans for the whole cluster (only non-empty ones)."""
    validate_real_schedule(schedule)
    plans: Dict[str, FaultPlan] = {}
    for name in addresses:
        plan = member_fault_plan(schedule, name, addresses, epoch, seed)
        if plan.windows:
            plans[name] = plan
    return plans
