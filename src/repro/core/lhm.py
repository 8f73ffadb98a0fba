"""Local Health Multiplier — the heart of Local Health Aware Probe.

Lifeguard lets each member consider that *its own* failure detector may be
slow. The evidence is accumulated in a saturating counter, the Local Health
Multiplier (LHM), bounded to ``[0, S]``. Section IV-A of the paper defines
the events and their scores:

========================================  =====
Event                                     Score
========================================  =====
Successful probe (ping or ping-req/ack)    -1
Failed probe                                +1
Refuting a suspect message about self       +1
Probe with missed nack                      +1
========================================  =====

The probe interval and probe timeout are both scaled by ``LHM + 1``::

    ProbeInterval = BaseProbeInterval * (LHM + 1)
    ProbeTimeout  = BaseProbeTimeout  * (LHM + 1)

so with the default saturation ``S = 8`` they back off as high as 9x the
base values.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

#: Lower bound of the LHM counter. The paper's counter never goes below
#: zero: a fully healthy member probes at the base cadence.
LHM_MIN = 0

#: The paper's default saturation limit ``S`` (Section IV-A): the
#: multiplier tops out at ``S + 1`` = 9x the base probe timing. Exposed so
#: configuration defaults and the invariant oracles in
#: :mod:`repro.check.invariants` share one definition.
DEFAULT_LHM_MAX = 8


class LhmEvent(enum.Enum):
    """Feedback events that move the Local Health Multiplier."""

    #: A probe the local member initiated completed with an ``ack`` in time.
    PROBE_SUCCESS = "probe_success"
    #: A probe the local member initiated ended the protocol period with no
    #: ``ack`` from either the direct or indirect path.
    PROBE_FAILED = "probe_failed"
    #: The local member had to refute a suspicion about itself, implying it
    #: did not process recent ``ping`` traffic in time.
    REFUTE_SELF = "refute_self"
    #: An enlisted ``ping-req`` helper failed to return even a ``nack``,
    #: suggesting the local member may be slow to receive.
    MISSED_NACK = "missed_nack"
    #: Reliable-channel sends to several distinct peers failed within a
    #: short window, suggesting the local member's networking (or the
    #: member itself) is degraded. Not in the paper's Section IV-A table;
    #: an extension fed by the real-network transport (see
    #: :meth:`repro.swim.node.SwimNode.note_reliable_send_failure`).
    RELIABLE_SEND_FAILED = "reliable_send_failed"

    # Members are singletons compared by identity, so identity hashing
    # agrees with equality; Enum's own __hash__ is a Python frame, and
    # every probe outcome looks an event up twice (LocalHealthMultiplier.note).
    __hash__ = object.__hash__


#: Score applied to the counter for each event (paper, Section IV-A;
#: ``RELIABLE_SEND_FAILED`` is a transport-fed extension).
EVENT_SCORES = {
    LhmEvent.PROBE_SUCCESS: -1,
    LhmEvent.PROBE_FAILED: +1,
    LhmEvent.REFUTE_SELF: +1,
    LhmEvent.MISSED_NACK: +1,
    LhmEvent.RELIABLE_SEND_FAILED: +1,
}


class LocalHealthMultiplier:
    """A saturating counter in ``[0, max_value]`` driven by probe feedback.

    The counter is deliberately simple: Lifeguard's contribution is *which*
    events feed it and *how* its value scales the failure detector's
    timing, not a sophisticated estimator.

    Parameters
    ----------
    max_value:
        The saturation limit ``S``. The multiplier returned by
        :attr:`multiplier` is therefore in ``[1, S + 1]``.
    enabled:
        When ``False`` (plain SWIM), events are counted for telemetry but
        the score never moves, so the multiplier is always 1.
    on_change:
        Optional callback invoked with the new score whenever it changes.
    """

    __slots__ = ("_score", "_max", "_enabled", "_on_change", "_event_counts")

    def __init__(
        self,
        max_value: int = DEFAULT_LHM_MAX,
        enabled: bool = True,
        on_change: Optional[Callable[[int], None]] = None,
    ) -> None:
        if max_value < 0:
            raise ValueError("max_value must be non-negative")
        self._score = 0
        self._max = max_value
        self._enabled = enabled
        self._on_change = on_change
        self._event_counts = {event: 0 for event in LhmEvent}

    @property
    def score(self) -> int:
        """Current LHM value, in ``[0, max_value]``."""
        return self._score

    @property
    def max_value(self) -> int:
        return self._max

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def multiplier(self) -> int:
        """``LHM + 1``, the factor applied to probe interval and timeout."""
        return self._score + 1

    @property
    def saturated(self) -> bool:
        """Whether the counter has hit its maximum value."""
        return self._score >= self._max

    @property
    def healthy(self) -> bool:
        """Whether the local member currently considers itself healthy."""
        return self._score == 0

    def event_count(self, event: LhmEvent) -> int:
        """How many times ``event`` has been recorded (even when disabled)."""
        return self._event_counts[event]

    def note(self, event: LhmEvent) -> int:
        """Record ``event``, apply its score, and return the new LHM value."""
        self._event_counts[event] += 1
        if not self._enabled:
            return self._score
        return self.apply_delta(EVENT_SCORES[event])

    def note_all(self, events: List[LhmEvent]) -> int:
        """Record several events at once; returns the final LHM value."""
        for event in events:
            self.note(event)
        return self._score

    def apply_delta(self, delta: int) -> int:
        """Apply a raw delta with saturation; returns the new LHM value."""
        if not self._enabled:
            return self._score
        new_score = min(self._max, max(LHM_MIN, self._score + delta))
        if new_score != self._score:
            self._score = new_score
            if self._on_change is not None:
                self._on_change(new_score)
        return self._score

    def scale(self, base: float) -> float:
        """Scale a base duration by the current multiplier."""
        return base * (self._score + 1)

    def reset(self) -> None:
        """Reset the score to zero (event counts are preserved)."""
        if self._score != 0:
            self._score = 0
            if self._on_change is not None:
                self._on_change(0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalHealthMultiplier(score={self._score}, max={self._max}, "
            f"enabled={self._enabled})"
        )
