"""Invariant oracles — machine-checkable statements of the paper's guarantees.

Each oracle watches one family of properties over a running
:class:`~repro.sim.runtime.SimCluster` and reports :class:`Violation`
records when the implementation strays. Oracles are pluggable: the
:class:`OracleSuite` runs every registered oracle from the cluster's
event tap (:meth:`SimCluster.set_event_tap
<repro.sim.runtime.SimCluster.set_event_tap>`), i.e. after every
simulated event, when node state is at a consistent boundary.

The shipped oracles and their paper anchors:

``lhm-bounds``
    The Local Health Multiplier stays in ``[0, S]`` and every move is
    explained by the Section IV-A event table: between two event
    boundaries the score may fall by at most the number of
    ``PROBE_SUCCESS`` events and rise by at most the number of
    failure-class events recorded in between (saturating at the bounds).
    With LHA-Probe disabled the score never leaves 0.

``suspicion-decay``
    Section IV-B: a live suspicion's timeout is confined to
    ``[Min, Max]``, its deadline equals ``start + timeout``, and the
    deadline is *monotonically non-increasing* over the suspicion's
    lifetime — independent corroborations may only shrink it. At most
    ``K`` confirmations are counted.

``membership``
    SWIM's incarnation rules (SWIM Section 4.2, Lifeguard Section III):
    the incarnation an observer records for a member never decreases,
    and a member seen DEAD/LEFT is never resurrected without a strictly
    higher incarnation. Additionally, a running node's suspicion table
    and member table must agree: a member is SUSPECT if and only if a
    suspicion (with its timeout timer) exists for it — a SUSPECT entry
    with no timer can never be resolved and is a stuck state — and no
    suspicion is held at an incarnation above the table's (the receive
    path settles repeated claims against the held one).

``broadcast-queue``
    Section III-A dissemination sanity: gossip transmit counts never
    exceed ``lambda * ceil(log10(n + 1))`` for the largest group the
    node has seen, and the membership queue holds at most one claim per
    member ever known.

``convergence``
    The paper's recovery criterion (Section V): once the fault schedule
    ends, all surviving members' views agree within the scenario's
    settle time — live members are seen ALIVE, departed members are not.
    Checked once, at the end of a scenario, by the runner. For clusters
    running *without* push-pull anti-entropy, liveness agreement is not
    a theorem (gossip transmit budgets are finite), so only the
    achievable half is demanded: no unresolved suspicions, and departed
    members not seen alive.

``sync-convergence``
    Anti-entropy's stronger promise (memberlist push-pull, paper
    Section II's full-sync lineage): when every member runs push-pull
    rounds, surviving views agree not just on liveness but on the
    *incarnation* of every live member after settle — full-state
    exchange closes gaps that transmit-limited gossip may leave.
    Checked once at scenario end; skipped for clusters with push-pull
    disabled.

``dead-retention``
    The resurrection veto: a member an observer saw DEAD/LEFT at
    incarnation ``i`` must never reappear non-terminal at an incarnation
    ``<= i`` while the observer's ``dead_member_reclaim`` window for
    that sighting is still open — not even if the entry itself was
    dropped and re-added in between. (Past the window the observer has
    legitimately forgotten, and a stale re-add is tolerated.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.core.lhm import EVENT_SCORES, LHM_MIN, LhmEvent
from repro.swim.broadcast import retransmit_limit
from repro.swim.state import MemberState

#: Floating-point slop for timeout/deadline comparisons (seconds).
EPSILON = 1e-9

_TERMINAL = (MemberState.DEAD, MemberState.LEFT)
_POSITIVE_EVENTS = tuple(e for e, s in EVENT_SCORES.items() if s > 0)


@dataclass(frozen=True)
class Violation:
    """One observed breach of an invariant."""

    oracle: str
    time: float
    node: str
    detail: str
    subject: str = ""

    def as_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "time": self.time,
            "node": self.node,
            "subject": self.subject,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Violation":
        return cls(
            oracle=data["oracle"],
            time=float(data["time"]),
            node=data["node"],
            detail=data["detail"],
            subject=data.get("subject", ""),
        )

    def __str__(self) -> str:
        where = f"{self.node}" + (f" about {self.subject}" if self.subject else "")
        return f"[{self.oracle}] t={self.time:.3f}s {where}: {self.detail}"


class Oracle:
    """Base class: override :meth:`check` (per event) and/or
    :meth:`check_final` (once, after the settle period)."""

    name = "oracle"

    def reset(self, cluster) -> None:
        """Forget all tracked state (called once before a run)."""

    def check(self, cluster, now: float) -> List[Violation]:
        return []

    def check_final(
        self,
        cluster,
        now: float,
        expected_live: Set[str],
        expected_gone: Set[str],
    ) -> List[Violation]:
        return []


class LhmOracle(Oracle):
    """LHM bounds and legal transitions (paper Section IV-A)."""

    name = "lhm-bounds"

    def __init__(self) -> None:
        self._last: Dict[str, Tuple[int, int, int]] = {}

    def reset(self, cluster) -> None:
        self._last = {}

    @staticmethod
    def _counts(lhm) -> Tuple[int, int]:
        pos = sum(lhm.event_count(e) for e in _POSITIVE_EVENTS)
        neg = lhm.event_count(LhmEvent.PROBE_SUCCESS)
        return pos, neg

    def check(self, cluster, now: float) -> List[Violation]:
        out: List[Violation] = []
        for name, node in cluster.nodes.items():
            lhm = node.local_health
            score = lhm.score
            if not LHM_MIN <= score <= lhm.max_value:
                out.append(
                    Violation(
                        self.name, now, name,
                        f"LHM score {score} outside [{LHM_MIN}, {lhm.max_value}]",
                    )
                )
            if not lhm.enabled and score != LHM_MIN:
                out.append(
                    Violation(
                        self.name, now, name,
                        f"LHM score {score} moved while LHA-Probe is disabled",
                    )
                )
            pos, neg = self._counts(lhm)
            prev = self._last.get(name)
            if prev is not None and lhm.enabled:
                old_score, old_pos, old_neg = prev
                d_pos = pos - old_pos
                d_neg = neg - old_neg
                low = max(LHM_MIN, old_score - d_neg)
                high = min(lhm.max_value, old_score + d_pos)
                # When no events landed between taps the score must not
                # have moved at all; otherwise it must lie in the
                # saturating envelope the recorded events allow.
                if not low <= score <= high:
                    out.append(
                        Violation(
                            self.name, now, name,
                            f"LHM score {old_score} -> {score} not explained "
                            f"by events (+{d_pos}/-{d_neg} recorded)",
                        )
                    )
            self._last[name] = (score, pos, neg)
        return out


class SuspicionOracle(Oracle):
    """Suspicion timeout bounds and monotone decay (Section IV-B)."""

    name = "suspicion-decay"

    def __init__(self) -> None:
        self._last: Dict[str, Dict[str, Tuple[float, float]]] = {}

    def reset(self, cluster) -> None:
        self._last = {}

    def check(self, cluster, now: float) -> List[Violation]:
        out: List[Violation] = []
        for name, node in cluster.nodes.items():
            if node.suspicion_count == 0:
                if name in self._last:
                    del self._last[name]
                continue
            prev = self._last.get(name, {})
            current: Dict[str, Tuple[float, float]] = {}
            for record in node.suspicion_snapshot():
                subject = record["member"]
                timeout = record["timeout"]
                minimum = record["min_timeout"]
                maximum = record["max_timeout"]
                deadline = record["deadline"]
                started = record["started_at"]
                if not (minimum - EPSILON <= timeout <= maximum + EPSILON):
                    out.append(
                        Violation(
                            self.name, now, name,
                            f"timeout {timeout:.6f}s outside "
                            f"[{minimum:.6f}, {maximum:.6f}]",
                            subject=subject,
                        )
                    )
                if abs(deadline - (started + timeout)) > EPSILON:
                    out.append(
                        Violation(
                            self.name, now, name,
                            f"deadline {deadline:.6f} != started_at + timeout "
                            f"({started + timeout:.6f})",
                            subject=subject,
                        )
                    )
                if record["confirmations"] > record["k"]:
                    out.append(
                        Violation(
                            self.name, now, name,
                            f"{record['confirmations']} confirmations exceed "
                            f"K={record['k']}",
                            subject=subject,
                        )
                    )
                before = prev.get(subject)
                if before is not None and before[0] == started:
                    if deadline > before[1] + EPSILON:
                        out.append(
                            Violation(
                                self.name, now, name,
                                f"deadline grew {before[1]:.6f} -> "
                                f"{deadline:.6f} within one suspicion",
                                subject=subject,
                            )
                        )
                current[subject] = (started, deadline)
            self._last[name] = current
        return out


class MembershipOracle(Oracle):
    """Incarnation monotonicity, no silent resurrection, and
    suspicion-table/member-table agreement, in one pass."""

    name = "membership"

    def __init__(self) -> None:
        self._seen: Dict[str, Dict[str, Tuple[int, int]]] = {}

    def reset(self, cluster) -> None:
        self._seen = {}

    def check(self, cluster, now: float) -> List[Violation]:
        out: List[Violation] = []
        for name, node in cluster.nodes.items():
            prev = self._seen.get(name)
            current: Dict[str, Tuple[int, int]] = {}
            suspects_in_map: List[str] = []
            for subject, state, incarnation in node.members.claims():
                if state is MemberState.SUSPECT and subject != name:
                    suspects_in_map.append(subject)
                if prev is not None:
                    old = prev.get(subject)
                    if old is not None:
                        old_state, old_inc = old
                        if incarnation < old_inc:
                            out.append(
                                Violation(
                                    self.name, now, name,
                                    f"incarnation decreased {old_inc} -> "
                                    f"{incarnation}",
                                    subject=subject,
                                )
                            )
                        if (
                            old_state in _TERMINAL
                            and state not in _TERMINAL
                            and incarnation <= old_inc
                        ):
                            out.append(
                                Violation(
                                    self.name, now, name,
                                    f"resurrected from "
                                    f"{MemberState(old_state).name} at "
                                    f"incarnation {old_inc} without a higher "
                                    f"incarnation ({incarnation})",
                                    subject=subject,
                                )
                            )
                current[subject] = (int(state), incarnation)
            self._seen[name] = current
            if node.running:
                held = node.suspicion_incarnations()
                for subject in suspects_in_map:
                    if subject not in held:
                        out.append(
                            Violation(
                                self.name, now, name,
                                "SUSPECT member has no suspicion timer: the "
                                "suspicion can never expire or decay",
                                subject=subject,
                            )
                        )
                for subject, incarnation in held.items():
                    member = node.members.get(subject)
                    if member is None or member.state is not MemberState.SUSPECT:
                        state = "absent" if member is None else member.state.name
                        out.append(
                            Violation(
                                self.name, now, name,
                                f"suspicion timer exists but member is {state}",
                                subject=subject,
                            )
                        )
                    elif incarnation > member.incarnation:
                        # The receive path settles repeats against the
                        # held incarnation; above the table's, it would
                        # turn away claims the handler must see.
                        out.append(
                            Violation(
                                self.name, now, name,
                                f"suspicion held at incarnation {incarnation}, "
                                f"above the table's {member.incarnation}",
                                subject=subject,
                            )
                        )
        return out


class BroadcastQueueOracle(Oracle):
    """Retransmit-bound and queue-shape sanity (Section III-A)."""

    name = "broadcast-queue"

    def __init__(self) -> None:
        self._max_members: Dict[str, int] = {}

    def reset(self, cluster) -> None:
        self._max_members = {}

    def check(self, cluster, now: float) -> List[Violation]:
        out: List[Violation] = []
        for name, node in cluster.nodes.items():
            known = len(node.members)
            peak = self._max_members.get(name, 0)
            if known > peak:
                peak = known
                self._max_members[name] = known
            limit = retransmit_limit(node.config.retransmit_mult, peak)
            system_depth = 0
            for queue, queue_name in (
                (node.broadcasts, "system"),
                (node.user_broadcasts, "user"),
            ):
                for subject, transmits, _size in queue.entries():
                    if queue_name == "system":
                        system_depth += 1
                    if transmits >= limit:
                        out.append(
                            Violation(
                                self.name, now, name,
                                f"{queue_name} broadcast about {subject!r} "
                                f"transmitted {transmits} times, limit "
                                f"{limit} (peak group size {peak})",
                            )
                        )
            if system_depth > peak:
                out.append(
                    Violation(
                        self.name, now, name,
                        f"system queue depth {system_depth} exceeds the "
                        f"{peak} members ever known",
                    )
                )
        return out


class ConvergenceOracle(Oracle):
    """All surviving views agree after the fault schedule ends.

    The full liveness-agreement check is conditional on anti-entropy:
    with push-pull enabled, every false DEAD verdict is eventually
    offered back to its victim (who refutes) or overwritten by a fresher
    snapshot, so "all live members seen ALIVE" is a theorem. With
    push-pull disabled, dissemination is gossip alone — transmit budgets
    are finite, so a victim that never hears a false ``dead`` claim about
    itself can stay written off in some views forever. Gossip-only
    clusters are therefore held to the achievable property instead: no
    view may be stuck mid-protocol (SUSPECT after settle means a
    suspicion that never resolved), and departed members must not be
    seen alive (the observer's own probing guarantees that much without
    any dissemination at all).
    """

    name = "convergence"

    @staticmethod
    def _sync_enabled(cluster, observers: Set[str]) -> bool:
        nodes = [
            cluster.nodes.get(name)
            for name in observers
        ]
        running = [n for n in nodes if n is not None and n.running]
        return bool(running) and all(
            n.config.push_pull_interval > 0 for n in running
        )

    def check_final(
        self,
        cluster,
        now: float,
        expected_live: Set[str],
        expected_gone: Set[str],
    ) -> List[Violation]:
        out: List[Violation] = []
        sync_enabled = self._sync_enabled(cluster, expected_live)
        for observer in sorted(expected_live):
            node = cluster.nodes.get(observer)
            if node is None or not node.running:
                out.append(
                    Violation(
                        self.name, now, observer,
                        "expected to be running at scenario end but is not",
                    )
                )
                continue
            for subject in sorted(expected_live):
                if subject == observer:
                    continue
                member = node.members.get(subject)
                if sync_enabled:
                    if member is None or not member.is_alive:
                        state = "unknown" if member is None else member.state.name
                        out.append(
                            Violation(
                                self.name, now, observer,
                                f"sees live member as {state} after settle",
                                subject=subject,
                            )
                        )
                elif member is not None and member.is_suspect:
                    out.append(
                        Violation(
                            self.name, now, observer,
                            "suspicion of a live member never resolved "
                            "after settle (gossip-only cluster)",
                            subject=subject,
                        )
                    )
            for subject in sorted(expected_gone):
                member = node.members.get(subject)
                if member is not None and (member.is_alive or member.is_suspect):
                    out.append(
                        Violation(
                            self.name, now, observer,
                            f"sees departed member as {member.state.name} "
                            f"after settle",
                            subject=subject,
                        )
                    )
        return out


class SyncConvergenceOracle(Oracle):
    """Incarnation-level agreement after settle, when push-pull runs.

    The plain :class:`ConvergenceOracle` only demands agreement on
    *liveness*; with anti-entropy enabled the full member table is
    exchanged wholesale, so surviving observers must also agree on each
    live member's incarnation. Disagreement after settle means a
    snapshot merge dropped or downgraded a claim somewhere.
    """

    name = "sync-convergence"

    def check_final(
        self,
        cluster,
        now: float,
        expected_live: Set[str],
        expected_gone: Set[str],
    ) -> List[Violation]:
        del expected_gone
        nodes = {
            name: cluster.nodes.get(name)
            for name in expected_live
        }
        live_nodes = {
            name: node for name, node in nodes.items()
            if node is not None and node.running
        }
        # Only meaningful when every surviving member runs push-pull
        # rounds; a mixed or sync-off cluster only owes gossip-level
        # (liveness) agreement.
        if len(live_nodes) != len(expected_live) or not live_nodes:
            return []
        if any(n.config.push_pull_interval <= 0 for n in live_nodes.values()):
            return []
        out: List[Violation] = []
        for subject in sorted(expected_live):
            seen: Dict[int, List[str]] = {}
            for observer, node in sorted(live_nodes.items()):
                member = node.members.get(subject)
                if member is None:
                    continue  # ConvergenceOracle already flags this
                seen.setdefault(member.incarnation, []).append(observer)
            if len(seen) > 1:
                detail = ", ".join(
                    f"incarnation {inc} seen by {', '.join(obs)}"
                    for inc, obs in sorted(seen.items())
                )
                out.append(
                    Violation(
                        self.name, now, "cluster",
                        f"views disagree after settle with push-pull "
                        f"enabled: {detail}",
                        subject=subject,
                    )
                )
        return out


class ResurrectionOracle(Oracle):
    """No resurrection inside the dead-member retention window.

    Unlike :class:`MembershipOracle` (which compares consecutive
    snapshots and therefore forgets a terminal sighting as soon as the
    entry changes or disappears), this oracle keeps a *permanent* record
    of the highest terminal incarnation each observer ever saw for each
    subject. A non-terminal sighting at an incarnation at or below that
    record is a violation while the observer's ``dead_member_reclaim``
    window (measured from the terminal sighting) is still open — this is
    exactly the stale-``alive`` resurrection that dead-member retention
    plus the push-pull veto are there to prevent. Once the window
    passes, the record is dropped: a reclaimed member re-added by an old
    snapshot is indistinguishable from a genuine rejoin.
    """

    name = "dead-retention"

    def __init__(self) -> None:
        # (observer, subject) -> (terminal state value, incarnation, seen_at)
        self._terminal: Dict[Tuple[str, str], Tuple[int, int, float]] = {}

    def reset(self, cluster) -> None:
        self._terminal = {}

    def check(self, cluster, now: float) -> List[Violation]:
        out: List[Violation] = []
        for name, node in cluster.nodes.items():
            retention = node.config.dead_member_reclaim
            for subject, state, current in node.members.claims():
                key = (name, subject)
                record = self._terminal.get(key)
                if state in _TERMINAL:
                    if record is None or current >= record[1]:
                        self._terminal[key] = (int(state), current, now)
                    continue
                if record is None:
                    continue
                state_value, incarnation, seen_at = record
                if now - seen_at >= retention:
                    del self._terminal[key]
                    continue
                if current <= incarnation:
                    out.append(
                        Violation(
                            self.name, now, name,
                            f"seen {state.name} at incarnation "
                            f"{current} only "
                            f"{now - seen_at:.3f}s after a "
                            f"{MemberState(state_value).name} sighting at "
                            f"incarnation {incarnation} (retention "
                            f"{retention:g}s)",
                            subject=subject,
                        )
                    )
                else:
                    # A legitimate refutation at a higher incarnation
                    # clears the record.
                    del self._terminal[key]
        return out


class ZoneConvergenceOracle(Oracle):
    """Cross-zone agreement after settle (hierarchical clusters only).

    A zoned cluster's obligation is weaker than a flat one's — bridges
    forward only terminal-state claims and compact digests — but it is
    still checkable. After the fault schedule ends and the settle period
    passes, every *running* bridge must satisfy, for each zone that still
    has at least one running bridge (a zone with no live forwarder owes
    nobody anything — there is no one left to speak for it):

    1. The remote zone is flagged unreachable **iff** it has no running
       bridge. Unreachability is a soft verdict driven by digest silence;
       a zone whose bridges all died goes silent forever, while a zone
       with a live bridge resumes digests and must have been cleared.
    2. Departed members (crash/leave) of such zones are terminal in the
       bridge's directory — their zone's bridges forwarded the claim, and
       partition-dropped copies are healed by anti-entropy
       re-advertisement.
    3. Live members of such zones are **not** terminal in the directory:
       no bridge may fabricate a death the member's own zone never
       proclaimed — the cross-zone layer must not reintroduce the false
       positives Lifeguard exists to suppress. Like the flat
       :class:`ConvergenceOracle`'s liveness-agreement half, this is a
       theorem only when push-pull sync runs: healing a *stale* death
       (declared while the victim was unreachable, then refuted) needs
       the echoed claim to reach the victim, and with sync off a
       non-bridge victim may never hear it. Checked only when every
       running bridge has push-pull enabled.

    On flat clusters (no ``bridges`` attribute) the oracle is inert, so
    it can sit in :func:`default_oracles` unconditionally.
    """

    name = "zone-convergence"

    def check_final(
        self,
        cluster,
        now: float,
        expected_live: Set[str],
        expected_gone: Set[str],
    ) -> List[Violation]:
        bridges = getattr(cluster, "bridges", None)
        if not bridges:
            return []
        by_zone: Dict[str, List] = {}
        for bridge in bridges:
            by_zone.setdefault(bridge.zone.name, []).append(bridge)
        running_zones = {
            zone_name
            for zone_name, zone_bridges in by_zone.items()
            if any(b.node.running for b in zone_bridges)
        }
        out: List[Violation] = []
        roster = cluster.layout.roster()
        running_bridges = [b for b in bridges if b.node.running]
        sync_enabled = bool(running_bridges) and all(
            b.node.config.push_pull_interval > 0 for b in running_bridges
        )
        for bridge in bridges:
            if not bridge.node.running:
                continue
            observer = bridge.node.name
            own = bridge.zone.name
            for zone_name in sorted(by_zone):
                if zone_name == own:
                    continue
                flagged = zone_name in bridge.unreachable
                if zone_name in running_zones and flagged:
                    out.append(
                        Violation(
                            self.name, now, observer,
                            "zone with a running bridge still flagged "
                            "unreachable after settle",
                            subject=zone_name,
                        )
                    )
                elif zone_name not in running_zones and not flagged:
                    out.append(
                        Violation(
                            self.name, now, observer,
                            "zone with no running bridge not flagged "
                            "unreachable after settle",
                            subject=zone_name,
                        )
                    )
            for subject in sorted(expected_gone):
                if roster.get(subject) not in running_zones:
                    continue
                member = bridge.directory.get(subject)
                if member is None or member.state not in _TERMINAL:
                    state = "unknown" if member is None else member.state.name
                    out.append(
                        Violation(
                            self.name, now, observer,
                            f"departed member is {state} in the bridge "
                            f"directory after settle",
                            subject=subject,
                        )
                    )
            for subject in sorted(expected_live):
                if not sync_enabled:
                    break
                if roster.get(subject) not in running_zones:
                    continue
                member = bridge.directory.get(subject)
                if member is not None and member.state in _TERMINAL:
                    out.append(
                        Violation(
                            self.name, now, observer,
                            f"live member marked {member.state.name} in the "
                            f"bridge directory after settle (fabricated "
                            f"cross-zone death)",
                            subject=subject,
                        )
                    )
        return out


def default_oracles() -> List[Oracle]:
    """The standard suite, one instance each (oracles are stateful)."""
    return [
        LhmOracle(),
        SuspicionOracle(),
        MembershipOracle(),
        BroadcastQueueOracle(),
        ConvergenceOracle(),
        SyncConvergenceOracle(),
        ResurrectionOracle(),
        ZoneConvergenceOracle(),
    ]


@dataclass
class OracleSuite:
    """Runs a set of oracles from a cluster's event tap.

    The suite accumulates violations; the runner polls
    :attr:`violations` between simulation chunks and aborts early once
    any oracle has fired (every run is deterministic, so nothing is lost
    by stopping at the first counterexample).
    """

    oracles: List[Oracle] = field(default_factory=default_oracles)
    violations: List[Violation] = field(default_factory=list)
    checks_run: int = 0

    def attach(self, cluster, stride: int = 1) -> None:
        """Reset all oracles and install the suite as ``cluster``'s tap.

        ``stride`` checks every Nth simulated event (1 = every event);
        useful to trade precision for speed on very large sweeps.
        """
        if stride < 1:
            raise ValueError("stride must be >= 1")
        for oracle in self.oracles:
            oracle.reset(cluster)
        self.violations.clear()
        self.checks_run = 0
        counter = {"n": 0}

        def tap(now: float) -> None:
            counter["n"] += 1
            if counter["n"] % stride:
                return
            self.run_checks(cluster, now)

        cluster.set_event_tap(tap)

    def run_checks(self, cluster, now: float) -> List[Violation]:
        self.checks_run += 1
        fresh: List[Violation] = []
        for oracle in self.oracles:
            fresh.extend(oracle.check(cluster, now))
        self.violations.extend(fresh)
        return fresh

    def run_final_checks(
        self,
        cluster,
        now: float,
        expected_live: Set[str],
        expected_gone: Set[str],
    ) -> List[Violation]:
        fresh: List[Violation] = []
        for oracle in self.oracles:
            fresh.extend(
                oracle.check_final(cluster, now, expected_live, expected_gone)
            )
        self.violations.extend(fresh)
        return fresh
