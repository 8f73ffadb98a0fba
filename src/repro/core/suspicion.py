"""Local Health Aware Suspicion — dynamically decaying suspicion timeouts.

Section IV-B of the paper replaces SWIM's fixed suspicion timeout with one
that *starts high* and decays toward a floor as independent corroborating
suspicions arrive::

    SuspicionTimeout = max(Min, Max - (Max - Min) * log(C + 1) / log(K + 1))

where ``C`` is the number of independent suspicions received since the
local suspicion was raised and ``K`` (default 3) is the number required to
reach the floor. The bounds come from Section V-C::

    Min = alpha * log10(n) * ProbeInterval
    Max = beta * Min

Logarithmic decay is used so each successive corroboration shrinks the
timeout less than the one before: the first independent suspicion is the
strongest evidence that the local member is receiving gossip in a timely
manner.

The :class:`Suspicion` object is timer-agnostic: it computes deadlines from
timestamps supplied by the caller, so the identical logic runs under the
discrete-event simulator and under asyncio.
"""

from __future__ import annotations

import math
from typing import Set, Tuple

#: The paper's suspicion-timeout tuning defaults (Section V-C): the
#: minimum timeout is ``alpha * log10(n) * ProbeInterval`` and the maximum
#: is ``beta`` times that. Exposed so :mod:`repro.config` and the
#: invariant oracles in :mod:`repro.check.invariants` share one
#: definition.
DEFAULT_SUSPICION_ALPHA = 5.0
DEFAULT_SUSPICION_BETA = 6.0

#: Plain SWIM's fixed suspicion timeout is the ``beta == 1`` degenerate
#: case: ``Max == Min``, no decay.
SWIM_SUSPICION_BETA = 1.0

#: ``K`` (Section IV-B): independent confirmations that drive the timeout
#: all the way down to ``Min``.
DEFAULT_SUSPICION_K = 3


def suspicion_bounds(
    alpha: float, beta: float, n_members: int, probe_interval: float
) -> Tuple[float, float]:
    """Return ``(Min, Max)`` suspicion timeouts for a group of ``n_members``.

    Follows memberlist's formulation, guarding the node-count scale factor
    at 1 so tiny clusters still get a usable timeout:
    ``Min = alpha * max(1, log10(n)) * probe_interval``; ``Max = beta * Min``.
    """
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    node_scale = max(1.0, math.log10(max(1.0, float(n_members))))
    minimum = alpha * node_scale * probe_interval
    maximum = beta * minimum
    return minimum, maximum


def suspicion_timeout(
    minimum: float, maximum: float, confirmations: int, k: int
) -> float:
    """The paper's decay formula (Section IV-B).

    ``confirmations`` is ``C``, the count of independent suspicions
    processed so far; ``k`` is ``K``. With ``k == 0`` (or ``maximum ==
    minimum``, the plain-SWIM case) the timeout is constant at ``minimum``.
    """
    if minimum < 0 or maximum < minimum:
        raise ValueError("need 0 <= minimum <= maximum")
    if confirmations < 0:
        raise ValueError("confirmations must be non-negative")
    if k <= 0:
        return minimum
    frac = math.log(confirmations + 1) / math.log(k + 1)
    timeout = maximum - (maximum - minimum) * frac
    return max(minimum, timeout)


class Suspicion:
    """Tracks one suspicion about one member, with a decaying deadline.

    A ``Suspicion`` is created when the local member first suspects (or
    first hears a suspicion about) a peer. Each *independent* corroborating
    suspicion — i.e. a ``suspect`` message from a peer that has not
    previously corroborated this suspicion — is registered with
    :meth:`confirm`, which shrinks the deadline per the decay formula.

    The object does not own a timer. The protocol layer asks
    :meth:`deadline` after every change and (re)schedules its own timer; a
    deadline in the past means the timeout must fire immediately.

    Parameters
    ----------
    suspect_from:
        Name of the member whose suspicion created this object (possibly
        the local member itself). It counts toward ``C`` implicitly: the
        paper counts *independent suspicions received since the local
        suspicion was raised*, so the creator is excluded from ``C``.
    started_at:
        Timestamp (seconds) at which the suspicion was raised locally.
    minimum / maximum:
        Timeout bounds, from :func:`suspicion_bounds`.
    k:
        Independent confirmations needed to reach ``minimum``. Pass 0 to
        get plain SWIM's fixed timeout behaviour.
    """

    __slots__ = ("_from", "_start", "_min", "_max", "_k", "_confirmers")

    def __init__(
        self,
        suspect_from: str,
        started_at: float,
        minimum: float,
        maximum: float,
        k: int,
    ) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        self._from = suspect_from
        self._start = started_at
        self._min = minimum
        self._max = maximum
        self._k = k
        self._confirmers: Set[str] = {suspect_from}

    @property
    def started_at(self) -> float:
        return self._start

    @property
    def minimum(self) -> float:
        """The floor this suspicion's timeout decays toward (``Min``)."""
        return self._min

    @property
    def maximum(self) -> float:
        """The ceiling this suspicion's timeout started from (``Max``)."""
        return self._max

    @property
    def k(self) -> int:
        return self._k

    @property
    def confirmations(self) -> int:
        """``C``: independent suspicions received (creator excluded)."""
        return len(self._confirmers) - 1

    @property
    def confirmers(self) -> frozenset:
        """Names of all members known to suspect the target (incl. creator)."""
        return frozenset(self._confirmers)

    @property
    def confirmer_set(self) -> Set[str]:
        """The live set behind :attr:`confirmers`, for a holder that tells
        a repeat from a confirmation without calling :meth:`confirm`: a
        member in it, or more than ``k`` members in it, and ``confirm``
        would refuse. Only ``confirm`` writes it."""
        return self._confirmers

    @property
    def needs_confirmations(self) -> bool:
        """Whether further confirmations would still shrink the deadline.

        Also used to decide whether to re-gossip an incoming independent
        suspicion: the paper re-gossips only the first ``K``.
        """
        return self.confirmations < self._k

    def has_confirmed(self, member: str) -> bool:
        return member in self._confirmers

    def confirm(self, member: str) -> bool:
        """Register an independent suspicion from ``member``.

        Returns ``True`` when this is a *new* independent confirmation that
        both shrank the deadline and should be re-gossiped (the first ``K``
        only); ``False`` for duplicates or confirmations beyond ``K``.
        """
        confirmers = self._confirmers
        # len(confirmers) - 1 is C (the creator is in the set): the K-th
        # confirmation was the last to count.
        if len(confirmers) > self._k or member in confirmers:
            return False
        confirmers.add(member)
        return True

    def current_timeout(self) -> float:
        """The total timeout duration given confirmations seen so far."""
        return suspicion_timeout(self._min, self._max, self.confirmations, self._k)

    def deadline(self) -> float:
        """Absolute time at which the suspicion becomes a confirmed failure."""
        return self._start + self.current_timeout()

    def remaining(self, now: float) -> float:
        """Seconds until the deadline (negative if already past)."""
        return self.deadline() - now

    def expired(self, now: float) -> bool:
        return now >= self.deadline()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Suspicion(from={self._from!r}, C={self.confirmations}, "
            f"K={self._k}, timeout={self.current_timeout():.3f}s)"
        )
