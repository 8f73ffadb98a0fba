"""The push-pull anti-entropy engine.

:class:`SyncEngine` drives full-state exchanges over the reliable
channel: the periodic push-pull round against a random live peer, the
reconnect offer to a random written-off member, the join handshake, and
the merge of inbound snapshots. It is deliberately sans-everything: the
hosting node injects a clock, an RNG, a send function and a
decision-reaction callback, and keeps ownership of timers and pause
semantics. Precedence itself lives in
:meth:`repro.swim.member_map.MemberMap.merge_claim`, the same
spine the gossip handlers use, so the two dissemination paths agree by
construction.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.metrics.telemetry import Telemetry
from repro.swim.member_map import MemberMap, MergeDecision
from repro.swim.messages import PushPull
from repro.swim.state import MemberState

#: Sends one message to an address over the reliable channel (the node
#: binds telemetry and piggyback policy).
SendFn = Callable[[str, PushPull], None]

#: Translates one merge decision into protocol side effects (events,
#: suspicion machinery, rebroadcast, refutation). The second argument is
#: the name of the member whose snapshot carried the claim. Returns
#: ``True`` when the decision changed local state.
ApplyFn = Callable[[MergeDecision, str], bool]


class SyncEngine:
    """Anti-entropy orchestration for one member."""

    __slots__ = (
        "_name",
        "_members",
        "_clock",
        "_rng",
        "_send",
        "_apply",
        "_telemetry",
        "on_merge",
    )

    def __init__(
        self,
        name: str,
        members: MemberMap,
        clock: Callable[[], float],
        rng: random.Random,
        send: SendFn,
        apply_decision: ApplyFn,
        telemetry: Telemetry,
    ) -> None:
        self._name = name
        self._members = members
        self._clock = clock
        self._rng = rng
        self._send = send
        self._apply = apply_decision
        self._telemetry = telemetry
        #: Optional hook observing the number of state changes each merge
        #: applied (feeds the ops plane's merge-size histogram).
        self.on_merge: Optional[Callable[[int], None]] = None

    # ------------------------------------------------------------------ #
    # Outbound rounds
    # ------------------------------------------------------------------ #

    def push_pull_round(self) -> Optional[str]:
        """One periodic anti-entropy exchange with a random live peer.

        Returns the peer's name, or ``None`` when there is nobody to sync
        with (suspects are skipped: syncing with a member we may be about
        to declare dead tells us little about the rest of the group).
        """
        peers = self._members.random_members(1, include_suspect=False)
        if not peers:
            return None
        self._telemetry.syncs_initiated += 1
        self._send(peers[0].address, self._snapshot_message(join=False))
        return peers[0].name

    def reconnect_round(self) -> Optional[str]:
        """Offer a full state sync to one random DEAD member.

        If the member is actually alive again (e.g. the far side of a
        healed partition), it will see our DEAD claim about it in the
        snapshot, refute it, and the refutation cascade re-merges the
        groups. This mirrors serf's reconnect behaviour on top of
        memberlist; members that LEFT gracefully are never contacted.
        """
        if self._members.num_in_state(MemberState.DEAD) == 0:
            return None
        candidates = [
            name
            for name, state, _ in self._members.claims()
            if state is MemberState.DEAD and name != self._name
        ]
        if not candidates:
            return None
        target = self._members.get(candidates[self._rng.randrange(len(candidates))])
        assert target is not None
        self._telemetry.syncs_initiated += 1
        self._send(target.address, self._snapshot_message(join=False))
        return target.name

    def offer_sync(self, address: str, join: bool = False) -> None:
        """Send an unsolicited full-state offer (the join handshake)."""
        self._telemetry.syncs_initiated += 1
        self._send(address, self._snapshot_message(join=join))

    # ------------------------------------------------------------------ #
    # Inbound
    # ------------------------------------------------------------------ #

    def handle_push_pull(self, message: PushPull, from_address: str) -> int:
        """Answer (for the push half) and merge (the pull half).

        Returns the number of local state changes the merge applied.
        """
        if not message.is_reply:
            self._telemetry.sync_replies_sent += 1
            self._send(from_address, self._snapshot_message(join=False, reply=True))
        return self.merge(message)

    def merge(self, message: PushPull) -> int:
        """Merge a full remote snapshot; returns changes applied."""
        now = self._clock()
        # The wire-merge path consumes raw state entries and returns only
        # non-ignored decisions (MERGE_IGNORED is a guaranteed no-op in
        # the applier, and at sync scale nearly every steady-state entry
        # is ignored).
        decisions, total = self._members.merge_remote_wire_state(
            message.states, now
        )
        changes = 0
        source = message.source
        for decision in decisions:
            if self._apply(decision, source):
                changes += 1
        self._telemetry.sync_merges += 1
        self._telemetry.sync_entries_merged += total
        self._telemetry.sync_changes_applied += changes
        if self.on_merge is not None:
            self.on_merge(changes)
        return changes

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _snapshot_message(self, join: bool, reply: bool = False) -> PushPull:
        # The snapshot is the table already in wire form (PackedStates);
        # the codec appends it to the packet as it is.
        return PushPull(
            self._name,
            self._members.snapshot(self._clock()),
            join=join,
            is_reply=reply,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SyncEngine({self._name!r})"
