"""Executes the process-level half of a fault schedule in wall time.

The transport-level faults (loss, partition) are enforced *inside* each
member by its :class:`~repro.faults.FaultPlan` — nothing to do here at
runtime. The process-level faults need an external hand on the signal:

* ``crash`` -> SIGKILL at ``epoch + start`` (no goodbye);
* ``block`` -> SIGSTOP at ``epoch + start``, SIGCONT at ``epoch + end``
  (the paper's unresponsive-but-alive incident shape).

The driver turns the schedule into a sorted action list and sleeps
between actions in short increments so a stop request (teardown, ^C)
interrupts within ~100 ms. Every action lands in :attr:`ChaosDriver.log`
with its intended and actual wall time, so the report can bound signal
jitter.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

from repro.faults import FaultSchedule
from repro.soak.launcher import SoakLauncher
from repro.soak.schedule import validate_real_schedule

#: Maximum sleep slice between actions (keeps stop requests responsive).
_TICK = 0.1


class ChaosDriver:
    """Runs the crash/block faults of ``schedule`` against ``launcher``.

    Either call :meth:`run` inline (blocks until the last action) or
    :meth:`start`/:meth:`join` to drive from a background thread while
    the caller scrapes.
    """

    def __init__(
        self, launcher: SoakLauncher, schedule: FaultSchedule, epoch: float
    ) -> None:
        self.launcher = launcher
        self.schedule = validate_real_schedule(schedule)
        self.epoch = epoch
        #: Executed actions: ``{"t", "planned_t", "action", "index",
        #: "phase", "ok"}`` (wall-clock unix seconds).
        self.log: List[dict] = []
        self._actions = self._build_actions()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _build_actions(self) -> List[tuple]:
        index_of = {record.name: record.index for record in self.launcher.members}
        actions = []
        for entry in self.schedule.entries:
            for member in entry.members:
                index = index_of[member]
                if entry.kind == "crash":
                    actions.append((entry.start, "kill", index, entry.label))
                elif entry.kind == "block":
                    actions.append((entry.start, "pause", index, entry.label))
                    actions.append((entry.end, "resume", index, entry.label))
        actions.sort(key=lambda item: item[0])
        return actions

    @property
    def actions(self) -> List[tuple]:
        """The planned ``(offset, verb, index, label)`` list."""
        return list(self._actions)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self) -> List[dict]:
        """Execute all actions; returns the execution log."""
        for offset, verb, index, label in self._actions:
            planned = self.epoch + offset
            while not self._stop.is_set():
                remaining = planned - time.time()
                if remaining <= 0:
                    break
                time.sleep(min(_TICK, remaining))
            if self._stop.is_set():
                break
            ok = getattr(self.launcher, verb)(index)
            self.log.append(
                {
                    "t": time.time(),
                    "planned_t": planned,
                    "action": verb,
                    "index": index,
                    "phase": label,
                    "ok": ok,
                }
            )
        return self.log

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("chaos driver already started")
        self._thread = threading.Thread(
            target=self.run, daemon=True, name="soak-chaos"
        )
        self._thread.start()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def stop(self) -> None:
        self._stop.set()
        self.join(timeout=1.0)
