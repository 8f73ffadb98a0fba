"""Distils a soak run's merged event record into a verdict.

The analysis mirrors the paper's evaluation metrics, but measured on a
*real* cluster in wall time:

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

:func:`analyze` produces a :class:`SoakAnalysis`; :func:`render_markdown`
formats it (with the paired simulator run, when present) into the
human-readable half of the report artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.faults import FaultSchedule

#: Median helper tolerant of empty/None-bearing samples.
def _median(values: Sequence[float]) -> Optional[float]:
    clean = sorted(v for v in values if v is not None)
    if not clean:
        return None
    mid = len(clean) // 2
    if len(clean) % 2:
        return clean[mid]
    return (clean[mid - 1] + clean[mid]) / 2.0


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
            "members": self.members,
            "epoch": self.epoch,
            "duration": self.duration,
            "convergence_time": self.convergence_time,
            "kills": self.kills,
            "false_positives": self.false_positives,
            "fp_total": self.fp_total,
            "fp_excused": self.fp_excused,
            "fp_healthy": self.fp_healthy,
            "restored_events": self.restored_events,
            "events_total": self.events_total,
            "phases": self.phases,
            "detection_median": self.detection_median(),
            "dissemination_median": self.dissemination_median(),
            "gate": self.gate(),
        }


def _excuse_windows(
    schedule: FaultSchedule, epoch: float, subject: str, grace: float
) -> List[tuple]:
    """Wall-clock windows during which a FAILED event about ``subject``
    is expected detector behaviour, not a healthy-phase FP."""
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
    events: List[dict],
    member_names: Sequence[str],
    duration: float,
    convergence_time: Optional[float] = None,
    grace: float = 10.0,
) -> SoakAnalysis:
    """Classify ``events`` (merged, wall-stamped, see
    :class:`~repro.soak.scraper.SoakScraper`) against the schedule."""
    kill_wall: Dict[str, float] = {}
    for entry in schedule.of_kind("crash"):
        for name in entry.members:
            kill_wall.setdefault(name, epoch + entry.start)
    killed = set(kill_wall)
    survivors = [name for name in member_names if name not in killed]

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

    # First FAILED about each subject per observer (for dissemination).
    first_failed: Dict[str, Dict[str, float]] = {}
    for event in events:
        kind = event.get("kind")
        if kind == "restored":
            analysis.restored_events += 1
        if kind != "failed":
            continue
        subject = event.get("subject", "")
        observer = event.get("observer", "")
        wall_t = event["wall_t"]
        victim_kill = kill_wall.get(subject)
        if victim_kill is not None and wall_t >= victim_kill:
            per_observer = first_failed.setdefault(subject, {})
            if observer not in per_observer or wall_t < per_observer[observer]:
                per_observer[observer] = wall_t
            continue
        # Subject's process was alive: a false positive.
        excused = subject in member_names and any(
            start <= wall_t <= end
            for start, end in _excuse_windows(schedule, epoch, subject, grace)
        )
        analysis.false_positives.append(
            {
                "t": wall_t - epoch,
                "observer": observer,
                "subject": subject,
                "excused": excused,
            }
        )
        analysis.fp_total += 1
        if excused:
            analysis.fp_excused += 1
        else:
            analysis.fp_healthy += 1

    for victim, kill_t in sorted(kill_wall.items(), key=lambda kv: kv[1]):
        per_observer = {
            observer: t
            for observer, t in first_failed.get(victim, {}).items()
            if observer in survivors
        }
        detected_by = len(per_observer)
        first = min(per_observer.values()) - kill_t if per_observer else None
        dissemination = (
            max(per_observer.values()) - kill_t
            if detected_by == len(survivors) and survivors
            else None
        )
        analysis.kills.append(
            {
                "victim": victim,
                "kill_t": kill_t - epoch,
                "first_detection": first,
                "dissemination": dissemination,
                "detected_by": detected_by,
                "survivors": len(survivors),
                "detected": detected_by == len(survivors) and bool(survivors),
            }
        )
    return analysis


# ---------------------------------------------------------------------- #
# Markdown rendering
# ---------------------------------------------------------------------- #

def _fmt(value: Optional[float], suffix: str = "s") -> str:
    return f"{value:.2f}{suffix}" if value is not None else "n/a"


def render_markdown(
    analysis: SoakAnalysis,
    sim: Optional[dict] = None,
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
            "(`repro.soak.sim_compare`); wall-clock physics vs virtual "
            "time.",
            "",
            "| metric | real | sim |",
            "|---|---|---|",
            f"| first-detection median | {_fmt(analysis.detection_median())} "
            f"| {_fmt(sim.get('detection_median'))} |",
            f"| dissemination median | {_fmt(analysis.dissemination_median())} "
            f"| {_fmt(sim.get('dissemination_median'))} |",
            f"| undetected kills | {len(analysis.undetected)} "
            f"| {len(sim.get('undetected', []))} |",
            f"| false positives | {analysis.fp_total} "
            f"| {sim.get('false_positives', 0)} |",
        ]
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
