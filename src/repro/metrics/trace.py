"""Persisting and reloading experiment traces.

Experiments produce two artifacts worth keeping: the membership event log
(the paper's per-agent DEBUG logs) and telemetry counters. This module
serializes both to portable JSON-lines / JSON so runs can be archived,
diffed across code versions, and re-analyzed without re-simulating.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

from repro.metrics.telemetry import Telemetry
from repro.swim.events import MemberEvent

PathLike = Union[str, Path]


def events_to_jsonl(events: Iterable[MemberEvent], path: PathLike) -> int:
    """Write events as JSON lines; returns the number written."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for event in events:
            record = event.as_record()
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            count += 1
    return count


def events_from_jsonl(path: PathLike) -> List[MemberEvent]:
    """Load events written by :func:`events_to_jsonl`."""
    events: List[MemberEvent] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(MemberEvent.from_record(json.loads(line)))
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{line_number}: malformed event record: {exc}"
                ) from exc
    return events


def telemetry_to_json(telemetry: Telemetry, path: PathLike) -> None:
    """Persist telemetry counters (including the per-kind breakdown)."""
    Path(path).write_text(json.dumps(telemetry.as_dict(), indent=2, sort_keys=True))


def telemetry_from_json(path: PathLike) -> Telemetry:
    """Load telemetry persisted by :func:`telemetry_to_json`.

    Counters the file lacks load as zero (see :meth:`Telemetry.from_dict`).
    """
    return Telemetry.from_dict(json.loads(Path(path).read_text()))
