"""Virtual time."""

from __future__ import annotations

from functools import partial
from typing import Callable


class VirtualClock:
    """A monotonically advancing virtual clock.

    Instances are callable so they satisfy the :data:`repro.runtime.Clock`
    protocol directly. Only the scheduler advances the clock — its drive
    loop, which runs once per simulated event, reads and writes ``_now``
    itself (with :meth:`advance_to`'s check) rather than call in here,
    and :class:`~repro.sim.network.SimNetwork` reads it once per packet.
    The nodes a simulated cluster hosts read it through :meth:`reader`.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = start

    def __call__(self) -> float:
        return self._now

    def reader(self) -> Callable[[], float]:
        """Another :data:`repro.runtime.Clock` for the same time, that
        runs no Python frame per read: ``getattr(clock, "_now")`` bound
        up in a ``partial``. A node reads the clock about once per
        event; build one reader per cluster, not one per node.
        """
        return partial(getattr, self, "_now")

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, when: float) -> None:
        """Move the clock forward (never backward)."""
        if when < self._now:
            raise ValueError(
                f"cannot move clock backward: {when} < {self._now}"
            )
        self._now = when

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.6f})"
