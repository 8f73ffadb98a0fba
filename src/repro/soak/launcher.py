"""Spawns and supervises N real member processes on one host.

The launcher is the harness's process layer: it forks ``repro member``
subprocesses (ephemeral UDP + admin ports, so no port planning), learns
each member's actual addresses from the single JSON *ready line* the
member prints on stdout, staggers joins through member 0, and executes
the process-level chaos verbs — SIGKILL for ``crash`` faults, SIGSTOP /
SIGCONT for ``block`` — on behalf of the
:class:`~repro.soak.chaos.ChaosDriver`.

Orphan protection is belt-and-braces: the launcher registers atexit and
SIGTERM/SIGINT hooks that SIGKILL every still-running child, *and* every
child watches ``--parent-pid`` and exits by itself if the launcher
vanishes without running them (SIGKILL'd, OOM'd).

Fault plans are delivered as files: :meth:`SoakLauncher.write_fault_plans`
compiles a :class:`~repro.faults.FaultSchedule` into per-member
:class:`~repro.faults.FaultPlan` JSON (via
:func:`~repro.soak.schedule.member_fault_plans`, using the real bound
addresses) and writes each atomically next to the member's log; the
member's ``--fault-plan`` poller arms it on the live transport.
This two-step dance exists because the chaos epoch is only chosen after
the cluster has converged, long after the processes were spawned.
"""

from __future__ import annotations

import atexit
import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.faults import FaultSchedule
from repro.soak.schedule import member_fault_plans


@dataclass
class MemberRecord:
    """One spawned member process and what the launcher knows about it."""

    index: int
    name: str
    process: subprocess.Popen
    log_path: str
    plan_path: str
    #: ``host:port`` of the member's UDP/TCP transport (from the ready
    #: line; ``""`` until ready).
    address: str = ""
    #: ``host:port`` of the member's admin API (ephemeral by default).
    admin_address: str = ""
    #: ``running`` -> ``paused`` -> ``running`` -> ``killed``/``exited``.
    state: str = "running"
    ready: threading.Event = field(default_factory=threading.Event)

    @property
    def admin_url(self) -> str:
        return f"http://{self.admin_address}"

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def alive(self) -> bool:
        """Process-level liveness (a paused member is alive)."""
        return self.state in ("running", "paused") and self.process.poll() is None


class SoakLauncher:
    """Spawn, address, signal and reap a local cluster of real members.

    Parameters
    ----------
    run_dir:
        Directory for per-member logs and fault-plan files (created).
    host:
        Interface members bind to (loopback by default).
    probe_interval / alpha / beta / seed:
        Protocol tuning passed through to every member.
    stagger:
        Delay between successive spawns (seconds); joining one member at
        a time keeps the join burst realistic and the host responsive.
    ready_timeout:
        How long to wait for each member's ready line before declaring
        the spawn failed.
    """

    def __init__(
        self,
        run_dir: str,
        host: str = "127.0.0.1",
        probe_interval: float = 0.5,
        alpha: float = 5.0,
        beta: float = 6.0,
        seed: int = 0,
        stagger: float = 0.1,
        ready_timeout: float = 30.0,
        python: Optional[str] = None,
    ) -> None:
        self.run_dir = run_dir
        self.host = host
        self.probe_interval = probe_interval
        self.alpha = alpha
        self.beta = beta
        self.seed = seed
        self.stagger = stagger
        self.ready_timeout = ready_timeout
        self.python = python or sys.executable
        self.members: List[MemberRecord] = []
        self._readers: List[threading.Thread] = []
        self._cleanup_installed = False
        self._prev_handlers: Dict[int, object] = {}
        os.makedirs(run_dir, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Spawning
    # ------------------------------------------------------------------ #

    @staticmethod
    def member_name(index: int, count: int) -> str:
        """Mirrors the simulator's ``m000...`` naming so the paired sim
        run (:mod:`repro.soak.sim_compare`) shares member names."""
        width = max(3, len(str(count - 1)))
        return f"m{index:0{width}d}"

    def spawn_all(self, count: int) -> List[MemberRecord]:
        """Spawn ``count`` members; returns them once all are ready."""
        if count < 1:
            raise ValueError("need at least one member")
        if self.members:
            raise RuntimeError("launcher already spawned a cluster")
        self._install_cleanup()
        first = self._spawn(0, count, join=None)
        self._await_ready(first)
        for index in range(1, count):
            if self.stagger > 0:
                time.sleep(self.stagger)
            self._spawn(index, count, join=first.address)
        for record in self.members[1:]:
            self._await_ready(record)
        return self.members

    def _spawn(self, index: int, count: int, join: Optional[str]) -> MemberRecord:
        name = self.member_name(index, count)
        log_path = os.path.join(self.run_dir, f"{name}.log")
        plan_path = os.path.join(self.run_dir, f"{name}.plan.json")
        cmd = [
            self.python, "-m", "repro", "member",
            "--name", name,
            "--host", self.host,
            "--port", "0",
            "--admin-port", "0",
            "--probe-interval", str(self.probe_interval),
            "--alpha", str(self.alpha),
            "--beta", str(self.beta),
            "--seed", str(self.seed * 1_000_003 + index * 7919 + 17),
            "--fault-plan", plan_path,
            "--parent-pid", str(os.getpid()),
        ]
        if join is not None:
            cmd += ["--join", join]
        log = open(log_path, "a", buffering=1, encoding="utf-8")
        try:
            process = subprocess.Popen(
                cmd,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                env={**os.environ, "PYTHONUNBUFFERED": "1"},
            )
        finally:
            log.close()  # the child holds its own descriptor now
        record = MemberRecord(
            index=index,
            name=name,
            process=process,
            log_path=log_path,
            plan_path=plan_path,
        )
        self.members.append(record)
        reader = threading.Thread(
            target=self._read_stdout, args=(record,), daemon=True,
            name=f"soak-stdout-{name}",
        )
        reader.start()
        self._readers.append(reader)
        return record

    def _read_stdout(self, record: MemberRecord) -> None:
        """Consume the child's stdout: first the ready line, then tee the
        rest into its log file (keeps the pipe drained forever)."""
        stream = record.process.stdout
        assert stream is not None
        with open(record.log_path, "a", buffering=1, encoding="utf-8") as log:
            for line in stream:
                if not record.ready.is_set():
                    try:
                        payload = json.loads(line)
                    except ValueError:
                        payload = None
                    if isinstance(payload, dict) and payload.get("event") == "ready":
                        record.address = payload["address"]
                        record.admin_address = payload["admin"]
                        record.ready.set()
                        continue
                log.write(line)

    def _await_ready(self, record: MemberRecord) -> None:
        if record.ready.wait(self.ready_timeout):
            return
        status = record.process.poll()
        self.terminate_all()
        raise RuntimeError(
            f"member {record.name} not ready within {self.ready_timeout}s "
            f"(exit status {status}; see {record.log_path})"
        )

    # ------------------------------------------------------------------ #
    # Registry views
    # ------------------------------------------------------------------ #

    def addresses(self) -> List[str]:
        """Transport addresses in spawn order."""
        return [record.address for record in self.members]

    def record(self, index: int) -> MemberRecord:
        return self.members[index]

    def live_members(self) -> List[MemberRecord]:
        return [record for record in self.members if record.alive]

    def registry(self) -> List[dict]:
        """JSON-safe snapshot of every member (report artifact)."""
        return [
            {
                "index": record.index,
                "name": record.name,
                "pid": record.pid,
                "address": record.address,
                "admin": record.admin_address,
                "state": record.state,
            }
            for record in self.members
        ]

    # ------------------------------------------------------------------ #
    # Chaos verbs + plan delivery
    # ------------------------------------------------------------------ #

    def write_fault_plans(
        self, schedule: FaultSchedule, epoch: float
    ) -> Dict[int, str]:
        """Write each member's fault-plan file (atomic rename so the
        member-side watcher never parses a partial write)."""
        plans = member_fault_plans(
            schedule,
            {record.name: record.address for record in self.members},
            epoch,
            seed=self.seed,
        )
        written: Dict[int, str] = {}
        for record in self.members:
            plan = plans.get(record.name)
            if plan is None:
                continue
            tmp = record.plan_path + ".tmp"
            plan.dump(tmp)
            os.replace(tmp, record.plan_path)
            written[record.index] = record.plan_path
        return written

    def kill(self, index: int) -> bool:
        """SIGKILL (a crash fault, not a graceful leave)."""
        return self._signal(index, signal.SIGKILL, "killed")

    def pause(self, index: int) -> bool:
        return self._signal(index, signal.SIGSTOP, "paused")

    def resume(self, index: int) -> bool:
        return self._signal(index, signal.SIGCONT, "running")

    def _signal(self, index: int, signum: int, new_state: str) -> bool:
        record = self.members[index]
        if not record.alive:
            return False
        try:
            record.process.send_signal(signum)
        except (ProcessLookupError, OSError) as exc:
            if isinstance(exc, OSError) and exc.errno not in (errno.ESRCH,):
                raise
            record.state = "exited"
            return False
        record.state = new_state
        return True

    def reap(self) -> List[MemberRecord]:
        """Collect exit statuses of dead children; returns members whose
        state changed (crash detection for the report)."""
        changed = []
        for record in self.members:
            if record.state in ("killed", "exited"):
                record.process.poll()
                continue
            if record.process.poll() is not None:
                record.state = "exited"
                changed.append(record)
        return changed

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #

    def terminate_all(self, grace: float = 5.0) -> None:
        """SIGTERM every survivor, wait up to ``grace``, SIGKILL the rest."""
        for record in self.members:
            if record.state == "paused":
                # A stopped process cannot run its SIGTERM handler.
                self._signal(record.index, signal.SIGCONT, "running")
            if record.alive:
                try:
                    record.process.terminate()
                except (ProcessLookupError, OSError):
                    pass
        deadline = time.time() + grace
        for record in self.members:
            remaining = deadline - time.time()
            try:
                record.process.wait(timeout=max(0.0, remaining))
            except subprocess.TimeoutExpired:
                try:
                    record.process.kill()
                except (ProcessLookupError, OSError):
                    pass
                record.process.wait()
            if record.state not in ("killed",):
                record.state = "exited"
        self._uninstall_cleanup()

    def _emergency_cleanup(self) -> None:
        for record in self.members:
            if record.process.poll() is None:
                try:
                    record.process.send_signal(signal.SIGCONT)
                    record.process.kill()
                except (ProcessLookupError, OSError):
                    pass

    def _install_cleanup(self) -> None:
        if self._cleanup_installed:
            return
        self._cleanup_installed = True
        atexit.register(self._emergency_cleanup)
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous = signal.getsignal(signum)
                self._prev_handlers[signum] = previous

                def handler(signo, frame, _previous=previous):
                    self._emergency_cleanup()
                    signal.signal(signo, _previous)  # type: ignore[arg-type]
                    os.kill(os.getpid(), signo)

                signal.signal(signum, handler)

    def _uninstall_cleanup(self) -> None:
        if not self._cleanup_installed:
            return
        self._cleanup_installed = False
        atexit.unregister(self._emergency_cleanup)
        if threading.current_thread() is threading.main_thread():
            for signum, previous in self._prev_handlers.items():
                signal.signal(signum, previous)  # type: ignore[arg-type]
        self._prev_handlers.clear()

    # Context-manager sugar: ``with SoakLauncher(...) as launcher:``
    def __enter__(self) -> "SoakLauncher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.terminate_all()
