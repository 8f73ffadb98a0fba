"""Pluggable probe-target scheduling strategies.

SWIM's failure detector probes one member per protocol period; *which*
member is a strategy decision. Classic SWIM (Section III-A) uses a
randomized round-robin — bounded worst-case first-detection latency with
the expected latency of random selection — and that remains the default
here. But the schedule is a lever: *Probe Scheduling for Efficient
Detection of Silent Failures* (arXiv:1302.0792) shows that weighting
target selection by each member's likelihood of having failed cuts
detection latency for the same probe budget, and Lifeguard's own signals
(probe RTTs, suspicion state) are exactly the inputs such a policy needs.

:class:`ProbeScheduler` is the strategy interface behind
:meth:`MemberMap.next_probe_target
<repro.swim.member_map.MemberMap.next_probe_target>`; the member map owns
the membership table and feeds the scheduler lifecycle hooks
(``on_members_added`` / ``on_members_removed``), while the node feeds it
liveness signals (``note_ack`` for clean direct-UDP RTT samples,
``note_confirmation`` for any completed probe). Three implementations
ship, selected by :attr:`SwimConfig.probe_scheduler
<repro.config.SwimConfig.probe_scheduler>`:

* :class:`RoundRobinScheduler` (``"round-robin"``, default) — the classic
  schedule, bit-identical to the pre-extraction inline code under seeded
  runs (pinned by the golden-digest trace-equivalence tests).
* :class:`LikelihoodWeightedScheduler` (``"likelihood"``) — weights
  targets by time since their last confirmation, per arXiv:1302.0792's
  failure-likelihood ordering.
* :class:`LhmRttScheduler` (``"lhm-rtt"``) — likelihood weighting
  further biased toward members with high observed probe RTT (an EWMA
  per target, fed only by direct-path acks) and toward currently
  suspected members, so suspicions are refuted or confirmed quickly.

Determinism contract: every random draw a scheduler makes comes from the
node's injected RNG (shared with the member map), so seeded runs remain
reproducible for every strategy. See docs/PROBE_SCHEDULING.md.
"""

from __future__ import annotations

import random
from array import array
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple, Type

from repro.swim.state import MemberState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (member_map imports us)
    from repro.swim.member_map import Member, MemberMap

_DEAD = int(MemberState.DEAD)


class ProbeScheduler:
    """Strategy interface for probe-target selection.

    One instance serves one :class:`~repro.swim.member_map.MemberMap`;
    the map calls :meth:`bind` at construction and then keeps the
    scheduler informed of membership changes. Subclasses override
    :meth:`next_target` plus whichever hooks their policy consumes.
    """

    #: Registry key; also the ``strategy`` label on the ops counter.
    name = "abstract"
    #: Whether the class overrides :meth:`note_ack` or
    #: :meth:`note_confirmation` (set by ``__init_subclass__``): the node
    #: skips both calls on every ack when it does not.
    hears_acks = False

    __slots__ = ("_members", "_rng", "selections")

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls.hears_acks = (
            cls.note_ack is not ProbeScheduler.note_ack
            or cls.note_confirmation is not ProbeScheduler.note_confirmation
        )

    def __init__(self) -> None:
        self._members: Optional["MemberMap"] = None
        #: The owning node's RNG, from :meth:`bind` (a placeholder
        #: ``Random()`` here would be OS-seeded, per member, for nothing).
        self._rng: Optional[random.Random] = None
        #: Targets handed out so far (feeds the ops plane's
        #: ``lifeguard_probe_scheduler_selections_total`` counter).
        self.selections = 0

    def bind(self, members: "MemberMap", rng: random.Random) -> None:
        """Attach to the member map that owns this scheduler."""
        if self._members is not None:
            raise RuntimeError(
                f"{type(self).__name__} is already bound to a member map; "
                f"schedulers are per-node, not shared"
            )
        self._members = members
        self._rng = rng

    def _draws(self) -> random.Random:
        """The RNG every draw comes from; only a bound scheduler has one."""
        rng = self._rng
        if rng is None:
            raise RuntimeError(
                f"{type(self).__name__} is not bound to a member map; "
                f"a MemberMap binds its scheduler when it is built"
            )
        return rng

    # -- lifecycle hooks (driven by MemberMap) ------------------------- #

    def on_members_added(self, names: Iterable[str]) -> None:
        """New (non-local) members entered the table, in this order."""

    def on_members_removed(self, names: Iterable[str]) -> None:
        """Members were reclaimed from the table."""

    # -- liveness signals (driven by SwimNode) ------------------------- #

    def note_ack(self, name: str, rtt: float, now: float) -> None:
        """A probe to ``name`` was acked on the *direct* UDP path within
        the probe timeout — a clean peer-RTT observation (the same filter
        as :attr:`SwimNode.on_probe_rtt
        <repro.swim.node.SwimNode.on_probe_rtt>`; fallback and indirect
        acks never reach here)."""

    def note_confirmation(self, name: str, now: float) -> None:
        """A probe to ``name`` completed successfully by *any* path
        (direct, reliable fallback, or indirect relay): the member was
        confirmed alive at ``now``."""

    # -- selection ------------------------------------------------------ #

    def next_target(self, now: float = 0.0) -> Optional[str]:
        """The name of the member to probe this protocol period, or
        ``None``.

        Must skip dead/left members and the local member; SUSPECT members
        are probeable (probing them is how a suspicion gets refuted).
        """
        raise NotImplementedError


class RoundRobinScheduler(ProbeScheduler):
    """SWIM's randomized round-robin schedule (the default).

    New members are inserted at a random position in the current round;
    a completed pass reshuffles the list (as memberlist does), preserving
    the randomized-order property across rounds. This class reproduces
    the pre-extraction :class:`~repro.swim.member_map.MemberMap` inline
    logic RNG-call-for-RNG-call, so seeded runs are bit-identical to the
    historical behavior — the property the golden-digest
    trace-equivalence tests pin.
    """

    name = "round-robin"

    __slots__ = ("_order", "_index", "_last")

    def __init__(self) -> None:
        super().__init__()
        #: Roster ids of the members to probe, in probe order: 4 bytes a
        #: member where a list of names holds 8, on every node.
        self._order = array("I")
        self._index = 0
        #: The most recently selected target's id, used to avoid probing
        #: the same member twice in consecutive periods when a
        #: round-boundary reshuffle happens to put it back at the front.
        self._last: Optional[int] = None

    def on_members_added(self, names: Iterable[str]) -> None:
        # One ``rng.randint(0, len(order))`` per name, spelled out as the
        # ``getrandbits`` rejection loop CPython's ``_randbelow`` runs, so
        # a whole-roster bootstrap pays one Python frame instead of four
        # per member while consuming the identical RNG stream (the
        # reference-model test pins ``_order``, ``_index`` and the RNG
        # state against ``randint`` + ``insert``).
        getrandbits = self._draws().getrandbits
        order = self._order
        insert = order.insert
        index = self._index
        size = len(order)
        for sid in map(self._members.roster.ids.__getitem__, names):
            size += 1
            bits = size.bit_length()
            offset = getrandbits(bits)
            while offset >= size:
                offset = getrandbits(bits)
            insert(offset, sid)
            if offset < index:
                index += 1
        self._index = index

    def on_members_removed(self, names: Iterable[str]) -> None:
        ids = self._members.roster.ids
        gone = {ids[name] for name in names}
        order = self._order
        removed_before = sum(1 for sid in order[: self._index] if sid in gone)
        self._order = array("I", [sid for sid in order if sid not in gone])
        self._index = max(0, self._index - removed_before)

    def next_target(self, now: float = 0.0) -> Optional[str]:
        members = self._members
        assert members is not None
        # The map's columns, read by id: a slot past the end, absent,
        # DEAD or LEFT is not probeable.
        states = members._states
        local_id = members._local_id
        order = self._order
        checked = 0
        total = len(order)
        deferred: Optional[int] = None
        while checked < total:
            if self._index >= len(order):
                self._index = 0
                self._draws().shuffle(order)
            sid = order[self._index]
            self._index += 1
            checked += 1
            if sid >= len(states) or states[sid] >= _DEAD or sid == local_id:
                continue
            if sid == self._last and members.num_probeable() >= 2:
                # The previous period probed this exact member and a
                # round-boundary reshuffle (or a run of dead entries) put
                # it first again (mid-scan reshuffles can even present it
                # repeatedly). Probing it back to back wastes a period
                # that another member is waiting for, so defer it and keep
                # scanning.
                deferred = sid
                continue
            self._last = sid
            return members._roster.names[sid]
        if deferred is not None:
            # The check budget ran out on retained-dead entries (a
            # mid-scan reshuffle can revisit them) before reaching the
            # other probeable member the deferral guard promised exists.
            # Take one deterministic pass over the list for it; only if
            # even that finds nobody does the repeat go out (a repeat
            # beats an idle period).
            for sid in order:
                if sid == self._last or sid == local_id:
                    continue
                if sid >= len(states) or states[sid] >= _DEAD:
                    continue
                self._last = sid
                return members._roster.names[sid]
            return members._roster.names[deferred]
        return None


class LikelihoodWeightedScheduler(ProbeScheduler):
    """Weight targets by time since their last confirmation.

    arXiv:1302.0792 orders probes by each target's likelihood of having
    silently failed; with homogeneous failure rates that likelihood is
    monotone in the time since the target was last confirmed alive. Each
    selection draws a member with probability proportional to
    ``min(staleness, cap) + floor``: the floor keeps recently confirmed
    members in the rotation (so the schedule stays complete and the
    worst case bounded in expectation), the cap stops one long-stale
    member from monopolizing the probe budget. The previous target is
    excluded whenever at least two members are probeable.

    Selection is O(n) in the probeable-member count — fine at the paper's
    n=128, measurable at multi-thousand-member scale (the round-robin
    default stays O(1) amortized).
    """

    name = "likelihood"

    #: Staleness saturates here (seconds); beyond it, members compete
    #: with equal (maximal) urgency.
    staleness_cap = 60.0
    #: Additive weight floor keeping just-confirmed members selectable.
    weight_floor = 0.25

    __slots__ = ("_confirmed_at", "_last")

    def __init__(self) -> None:
        super().__init__()
        #: name -> virtual time of the last confirmation we saw.
        self._confirmed_at: Dict[str, float] = {}
        self._last: Optional[str] = None

    def on_members_removed(self, names: Iterable[str]) -> None:
        for name in names:
            self._confirmed_at.pop(name, None)

    def note_confirmation(self, name: str, now: float) -> None:
        self._confirmed_at[name] = now

    def _weight(self, member: "Member", now: float) -> float:
        # A member we never confirmed is as stale as its last known state
        # transition (join time for members learned via gossip).
        confirmed = self._confirmed_at.get(member.name, member.state_changed_at)
        staleness = min(max(0.0, now - confirmed), self.staleness_cap)
        return staleness + self.weight_floor

    def next_target(self, now: float = 0.0) -> Optional[str]:
        members = self._members
        assert members is not None
        candidates = members.probeable_members()
        if not candidates:
            return None
        if self._last is not None and len(candidates) > 1:
            trimmed = [m for m in candidates if m.name != self._last]
            if trimmed:
                candidates = trimmed
        weights = [self._weight(member, now) for member in candidates]
        total = sum(weights)
        mark = self._draws().random() * total
        acc = 0.0
        chosen = candidates[-1]
        for member, weight in zip(candidates, weights):
            acc += weight
            if mark <= acc:
                chosen = member
                break
        self._last = chosen.name
        return chosen.name


class LhmRttScheduler(LikelihoodWeightedScheduler):
    """Likelihood weighting biased by observed RTT and suspicion state.

    Extends :class:`LikelihoodWeightedScheduler` with the two Lifeguard
    signals the node already surfaces:

    * a per-target RTT EWMA fed by :meth:`note_ack` (clean direct-UDP
      samples only — the same filter as the ops RTT histogram, so a TCP
      fallback ack can never pollute the signal). Targets whose RTT runs
      above the running mean get proportionally more probe attention;
      a slow link is where silent failure hides longest.
    * a flat multiplier for currently SUSPECT members, so an open
      suspicion is re-probed promptly and either refuted (the member
      acks, gossips a fresh alive) or reinforced before the timeout.
    """

    name = "lhm-rtt"

    #: EWMA smoothing factor for per-target and mean RTT.
    rtt_smoothing = 0.3
    #: Cap on the RTT-to-mean ratio contribution (keeps one pathological
    #: link from starving the rest of the schedule).
    rtt_ratio_cap = 4.0
    #: Weight multiplier for members currently under suspicion.
    suspect_boost = 4.0

    __slots__ = ("_rtt_ewma", "_rtt_mean")

    def __init__(self) -> None:
        super().__init__()
        self._rtt_ewma: Dict[str, float] = {}
        self._rtt_mean: Optional[float] = None

    def on_members_removed(self, names: Iterable[str]) -> None:
        super().on_members_removed(names)
        for name in names:
            self._rtt_ewma.pop(name, None)

    def note_ack(self, name: str, rtt: float, now: float) -> None:
        alpha = self.rtt_smoothing
        previous = self._rtt_ewma.get(name)
        self._rtt_ewma[name] = (
            rtt if previous is None else previous + alpha * (rtt - previous)
        )
        mean = self._rtt_mean
        self._rtt_mean = rtt if mean is None else mean + alpha * (rtt - mean)

    def _weight(self, member: "Member", now: float) -> float:
        weight = super()._weight(member, now)
        mean = self._rtt_mean
        if mean is not None and mean > 0.0:
            observed = self._rtt_ewma.get(member.name)
            if observed is not None:
                weight *= 1.0 + min(observed / mean, self.rtt_ratio_cap)
        if member.is_suspect:
            weight *= self.suspect_boost
        return weight


#: Registry of selectable strategies. Keys must stay in lockstep with
#: :data:`repro.config.PROBE_SCHEDULER_NAMES` (config cannot import this
#: module without a cycle through the node; a test pins the equality).
PROBE_SCHEDULERS: Dict[str, Type[ProbeScheduler]] = {
    scheduler.name: scheduler
    for scheduler in (
        RoundRobinScheduler,
        LikelihoodWeightedScheduler,
        LhmRttScheduler,
    )
}

PROBE_SCHEDULER_NAMES: Tuple[str, ...] = tuple(PROBE_SCHEDULERS)


def make_probe_scheduler(name: str) -> ProbeScheduler:
    """Instantiate the strategy registered under ``name``."""
    try:
        cls = PROBE_SCHEDULERS[name]
    except KeyError:
        known = ", ".join(sorted(PROBE_SCHEDULERS))
        raise ValueError(
            f"unknown probe scheduler {name!r}; expected one of: {known}"
        )
    return cls()
