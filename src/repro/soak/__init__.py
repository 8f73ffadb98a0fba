"""Real-cluster chaos soak harness (see docs/SOAK.md).

The simulator reproduces the paper's numbers in virtual time; this
package checks them against *reality*: it launches N genuine
:class:`~repro.transport.udp.UdpMember` processes on one host
(:mod:`~repro.soak.launcher`), executes a declarative JSON
:class:`~repro.faults.FaultSchedule` against them
(:mod:`~repro.soak.schedule`, :mod:`~repro.soak.chaos` — SIGKILL/SIGSTOP
at the process level, loss/partition at the transport's fault-plan
boundary), scrapes every
member's live ``/metrics`` and ``/events`` admin endpoints into one
merged wall-clock time-series (:mod:`~repro.soak.scraper`), and distils
a JSON+markdown soak report with per-phase detection latency, false
positive/negative counts and convergence time, paired against a
simulator run of the same schedule (:mod:`~repro.soak.report`,
:mod:`~repro.soak.sim_compare`).

Entry point: ``repro soak --members N --schedule file.json --duration S``
(:func:`~repro.soak.runner.run_soak`).
"""

from repro.soak.chaos import ChaosDriver
from repro.soak.launcher import MemberRecord, SoakLauncher
from repro.soak.report import SoakAnalysis, analyze, render_markdown
from repro.soak.runner import SoakParams, SoakResult, run_soak
from repro.soak.schedule import (
    REAL_FAULT_KINDS,
    member_fault_plan,
    validate_real_schedule,
)
from repro.soak.scraper import SoakScraper
from repro.soak.sim_compare import run_sim_comparison

__all__ = [
    "ChaosDriver",
    "MemberRecord",
    "REAL_FAULT_KINDS",
    "SoakAnalysis",
    "SoakLauncher",
    "SoakParams",
    "SoakResult",
    "SoakScraper",
    "analyze",
    "member_fault_plan",
    "render_markdown",
    "run_sim_comparison",
    "run_soak",
    "validate_real_schedule",
]
