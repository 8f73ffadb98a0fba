"""Distils a fault schedule and an event stream into a verdict.

The analysis mirrors the paper's evaluation metrics, measured against a
schedule's epoch on whatever clock the events carry — wall time for a
real cluster, virtual time for its simulator twin:

* **detection latency** per killed member — first FAILED event about the
  victim by any survivor after the kill, and full dissemination (last
  survivor's first FAILED event), both relative to the kill instant;
* **false positives** — FAILED events about members that were alive at
  the time. Those inside a chaos window touching the subject (block,
  partition, loss, plus a grace tail for in-flight suspicions) are
  *excused*: expected detector behaviour under injected faults. The rest
  are **healthy-phase false positives**, the number the paper drives to
  zero and the one the CI gate enforces;
* **false negatives** — killed members some survivor never declared
  failed;
* **convergence time** — launch to every member seeing the full group.

:func:`analyze` is the one scorer: the real soak and
:func:`~repro.soak.sim_compare.run_sim_comparison` both return its
:class:`SoakAnalysis`, and :func:`render_markdown` formats the pair into
the human-readable half of the report artifact.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.faults import FaultSchedule
from repro.metrics.analysis import first_failed_times
from repro.swim.events import EventKind, MemberEvent


def _median(values: Sequence[Optional[float]]) -> Optional[float]:
    clean = [v for v in values if v is not None]
    return statistics.median(clean) if clean else None


@dataclass
class SoakAnalysis:
    """The structured soak verdict (JSON half of the report artifact)."""

    members: int
    epoch: float
    duration: float
    convergence_time: Optional[float]
    #: Per killed member: victim, kill_t, first_detection,
    #: dissemination, detected_by, survivors, detected.
    kills: List[dict] = field(default_factory=list)
    #: Every FAILED event about a then-alive member.
    false_positives: List[dict] = field(default_factory=list)
    fp_total: int = 0
    fp_excused: int = 0
    fp_healthy: int = 0
    restored_events: int = 0
    events_total: int = 0
    phases: List[dict] = field(default_factory=list)

    @property
    def undetected(self) -> List[str]:
        return [k["victim"] for k in self.kills if not k["detected"]]

    def detection_median(self) -> Optional[float]:
        return _median([k["first_detection"] for k in self.kills])

    def dissemination_median(self) -> Optional[float]:
        return _median([k["dissemination"] for k in self.kills])

    def gate(self) -> dict:
        """The CI acceptance verdict: no healthy-phase false positives,
        every killed member detected by every survivor."""
        return {
            "ok": self.fp_healthy == 0 and not self.undetected,
            "healthy_false_positives": self.fp_healthy,
            "undetected_kills": self.undetected,
        }

    def as_dict(self) -> dict:
        return {
            **asdict(self),
            "detection_median": self.detection_median(),
            "dissemination_median": self.dissemination_median(),
            "gate": self.gate(),
        }


def _excuse_windows(
    schedule: FaultSchedule, epoch: float, subject: str, grace: float
) -> List[tuple]:
    """Windows, on ``epoch``'s clock, during which a FAILED event about
    ``subject`` is expected detector behaviour, not a healthy-phase FP."""
    windows = []
    for entry in schedule.entries:
        if entry.kind == "crash":
            continue
        tail = grace
        touches = subject in entry.members
        if entry.kind == "loss":
            # Heavy loss anywhere destabilises probes cluster-wide: the
            # prober's packets are as lossy as the victim's.
            touches = True
        if entry.kind == "partition":
            # Both sides of the cut legitimately declare the other side
            # failed, so every member is excused for the window — and
            # after the heal, stale suspect/dead claims from the far
            # side re-disseminate and run one more full suspicion cycle
            # before the victims' refutations win, so the tail is
            # doubled.
            touches = True
            tail = 2 * grace
        if touches:
            windows.append((epoch + entry.start, epoch + entry.end + tail))
    return windows


def analyze(
    schedule: FaultSchedule,
    epoch: float,
    events: Sequence[MemberEvent],
    member_names: Sequence[str],
    duration: float,
    convergence_time: Optional[float] = None,
    grace: float = 10.0,
    since: float = float("-inf"),
) -> SoakAnalysis:
    """Score ``events`` from ``since`` on against the schedule.

    The one scorer for a fault schedule and an event stream: event times
    share ``epoch``'s clock — wall time for a real soak (scraped records
    through :func:`wall_events`), virtual time for its simulator twin.
    """
    kill_time: Dict[str, float] = {}
    for entry in schedule.of_kind("crash"):
        for name in entry.members:
            kill_time.setdefault(name, epoch + entry.start)
    survivors = {name for name in member_names if name not in kill_time}

    analysis = SoakAnalysis(
        members=len(member_names),
        epoch=epoch,
        duration=duration,
        convergence_time=convergence_time,
        events_total=len(events),
        phases=[
            {
                "label": entry.label,
                "kind": entry.kind,
                "start": entry.start,
                "end": entry.end,
                "members": list(entry.members),
                "rate": entry.rate,
            }
            for entry in schedule.entries
        ],
    )

    for event in events:
        if event.time < since:
            continue
        if event.kind is EventKind.RESTORED:
            analysis.restored_events += 1
        if event.kind is not EventKind.FAILED:
            continue
        if event.time >= kill_time.get(event.subject, float("inf")):
            continue  # a detection, scored per kill below
        # Subject's process was alive: a false positive.
        excused = event.subject in member_names and any(
            start <= event.time <= end
            for start, end in _excuse_windows(
                schedule, epoch, event.subject, grace
            )
        )
        analysis.false_positives.append(
            {
                "t": event.time - epoch,
                "observer": event.observer,
                "subject": event.subject,
                "excused": excused,
            }
        )
        analysis.fp_total += 1
        if excused:
            analysis.fp_excused += 1
        else:
            analysis.fp_healthy += 1

    first_failed = first_failed_times(events, kill_time, survivors)
    for victim, kill_t in sorted(kill_time.items(), key=lambda kv: kv[1]):
        per_observer = first_failed[victim]
        detected = len(per_observer) == len(survivors) and bool(survivors)
        analysis.kills.append(
            {
                "victim": victim,
                "kill_t": kill_t - epoch,
                "first_detection": (
                    min(per_observer.values()) - kill_t if per_observer else None
                ),
                "dissemination": (
                    max(per_observer.values()) - kill_t if detected else None
                ),
                "detected_by": len(per_observer),
                "survivors": len(survivors),
                "detected": detected,
            }
        )
    return analysis


def wall_events(records: Sequence[dict]) -> List[MemberEvent]:
    """Scraped ``/events`` records as events on the scraper's wall clock
    (a record's ``t`` is member-local, ``wall_t`` the scraper's stamp)."""
    return [MemberEvent.from_record({**r, "t": r["wall_t"]}) for r in records]


# ---------------------------------------------------------------------- #
# Markdown rendering
# ---------------------------------------------------------------------- #

def _fmt(value: Optional[float], suffix: str = "s") -> str:
    return f"{value:.2f}{suffix}" if value is not None else "n/a"


def _comparison_rows(analysis: SoakAnalysis) -> List[tuple]:
    """What a real run and its simulator twin are read side by side on."""
    return [
        ("first-detection median", _fmt(analysis.detection_median())),
        ("dissemination median", _fmt(analysis.dissemination_median())),
        ("undetected kills", len(analysis.undetected)),
        ("false positives", analysis.fp_total),
        ("excused", analysis.fp_excused),
        ("healthy-phase", analysis.fp_healthy),
    ]


def render_markdown(
    analysis: SoakAnalysis,
    sim: Optional[SoakAnalysis] = None,
    chaos_log: Optional[List[dict]] = None,
) -> str:
    """The human-readable soak report (markdown)."""
    gate = analysis.gate()
    lines = [
        "# Soak report",
        "",
        f"**Gate: {'PASS' if gate['ok'] else 'FAIL'}** — "
        f"{analysis.fp_healthy} healthy-phase false positive(s), "
        f"{len(analysis.undetected)} undetected kill(s)",
        "",
        "## Run",
        "",
        f"- members: {analysis.members}",
        f"- soak duration: {analysis.duration:g}s after chaos epoch",
        f"- convergence: {_fmt(analysis.convergence_time)} "
        f"(launch to full membership everywhere)",
        f"- events collected: {analysis.events_total}",
        "",
        "## Chaos phases",
        "",
        "| phase | kind | window | members | rate |",
        "|---|---|---|---|---|",
    ]
    for phase in analysis.phases:
        members = ", ".join(phase["members"]) or "all"
        rate = f"{phase['rate']:g}" if phase["kind"] == "loss" else "-"
        window = (
            f"{phase['start']:g}s"
            if phase["kind"] == "crash"
            else f"{phase['start']:g}-{phase['end']:g}s"
        )
        lines.append(
            f"| {phase['label']} | {phase['kind']} | {window} "
            f"| {members} | {rate} |"
        )
    lines += [
        "",
        "## Failure detection",
        "",
        "| victim | killed at | first detection | full dissemination "
        "| detected by |",
        "|---|---|---|---|---|",
    ]
    for kill in analysis.kills:
        lines.append(
            f"| {kill['victim']} | {kill['kill_t']:g}s "
            f"| {_fmt(kill['first_detection'])} "
            f"| {_fmt(kill['dissemination'])} "
            f"| {kill['detected_by']}/{kill['survivors']} |"
        )
    if not analysis.kills:
        lines.append("| _no crash faults_ | | | | |")
    lines += [
        "",
        f"- first-detection median: {_fmt(analysis.detection_median())}",
        f"- dissemination median: {_fmt(analysis.dissemination_median())}",
        "",
        "## False positives",
        "",
        f"- total FAILED events about live members: {analysis.fp_total}",
        f"- excused (inside a chaos window + grace): {analysis.fp_excused}",
        f"- **healthy-phase: {analysis.fp_healthy}**",
        f"- restored events: {analysis.restored_events}",
    ]
    if sim is not None:
        lines += [
            "",
            "## Simulator comparison",
            "",
            "Same schedule replayed on the deterministic simulator "
            "(`repro.soak.sim_compare`) and scored by the same function "
            "with the same grace; wall-clock physics vs virtual time.",
            "",
            "| metric | real | sim |",
            "|---|---|---|",
        ]
        for (label, real), (_, twin) in zip(
            _comparison_rows(analysis), _comparison_rows(sim)
        ):
            lines.append(f"| {label} | {real} | {twin} |")
    if chaos_log:
        jitter = [entry["t"] - entry["planned_t"] for entry in chaos_log]
        lines += [
            "",
            "## Chaos execution",
            "",
            f"- actions executed: {len(chaos_log)}",
            f"- max signal jitter: {max(jitter):.3f}s",
        ]
    lines += [
        "",
        "## Gate",
        "",
        f"- healthy-phase false positives: {gate['healthy_false_positives']}",
        f"- undetected kills: "
        f"{', '.join(gate['undetected_kills']) or 'none'}",
        f"- verdict: {'PASS' if gate['ok'] else 'FAIL'}",
        "",
    ]
    return "\n".join(lines)
