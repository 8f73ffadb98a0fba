"""A per-run result ledger for the Interval and Threshold sweeps.

A sweep run through :meth:`Ledger.run` keeps one JSON row per run in
``<directory>/<experiment>.jsonl`` (``interval`` or ``threshold``),
appended as each run finishes, so a killed sweep keeps what it finished.
A row holds:

* the key: the experiment, the run's parameters (configuration, C, D,
  I, alpha, beta, seed, and the cluster size and test length that make
  a run at another scale another run) and its repetition index;
* what the run measured: FP, FP at healthy members and anomalous-subject
  events (with the per-observer FP split) plus messages and bytes by
  kind for an Interval run; the per-member detection and dissemination
  latencies for a Threshold run;
* the code ``fingerprint`` it was measured under.

A sweep reuses the row of a key already present under its own
fingerprint instead of simulating it again, and never reads a row
stamped with another fingerprint: before it appends, it rewrites the
file with its own fingerprint's rows only, so regenerating after a code
edit replaces the stale rows rather than adding to them. Results are
always rebuilt from rows, freshly simulated or not, so a resumed sweep
returns exactly what an uninterrupted one would.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import closing
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.harness import interval, threshold
from repro.harness.interval import IntervalParams, IntervalResult
from repro.harness.sweep import ordered_map
from repro.harness.threshold import ThresholdParams, ThresholdResult
from repro.metrics.analysis import DisseminationStats, FalsePositiveStats

Params = Union[IntervalParams, ThresholdParams]
Result = Union[IntervalResult, ThresholdResult]
Row = Dict[str, Any]

#: Experiment name -> its parameter class.
EXPERIMENTS = {"interval": IntervalParams, "threshold": ThresholdParams}


def _runner(experiment: str):
    # Looked up per sweep, through the modules.
    return interval.run_interval if experiment == "interval" else threshold.run_threshold


def row_key(experiment: str, params: Dict[str, Any], rep: int) -> str:
    """The identity of one run: what decides whether a row answers it."""
    return json.dumps([experiment, rep, params], sort_keys=True)


def repetitions(grid: Sequence[Params]) -> List[int]:
    """Each run's repetition index: how many runs before it in ``grid``
    share all its parameters but the seed."""
    seen: Dict[str, int] = {}
    reps = []
    for params in grid:
        cell = dataclasses.asdict(params)
        del cell["seed"]
        key = json.dumps(cell, sort_keys=True)
        reps.append(seen.get(key, 0))
        seen[key] = reps[-1] + 1
    return reps


def to_row(result: Result, rep: int, fingerprint: str) -> Row:
    """One run's row (see the module docstring)."""
    p = result.params
    row: Row = {
        "experiment": "interval" if isinstance(result, IntervalResult) else "threshold",
        "configuration": p.configuration,
        "C": p.concurrent,
        "D": p.duration,
        "I": getattr(p, "interval", None),
        "alpha": p.alpha,
        "beta": p.beta,
        "rep": rep,
        "seed": p.seed,
        "fingerprint": fingerprint,
        "params": dataclasses.asdict(p),
        "anomalous": list(result.anomalous),
    }
    if isinstance(result, IntervalResult):
        fp = result.false_positives
        row.update(
            fp=fp.fp_events,
            fp_healthy=fp.fp_healthy_events,
            anomalous_subject=fp.anomalous_subject_events,
            fp_by_observer=fp.fp_by_observer,
            msgs_sent=result.msgs_sent,
            bytes_sent=result.bytes_sent,
            test_time=result.test_time,
            msgs_by_kind=result.msgs_by_kind,
            bytes_by_kind=result.bytes_by_kind,
        )
    else:
        latencies = result.latencies
        row.update(
            first_detection=latencies.first_detection,
            full_dissemination=latencies.full_dissemination,
            undetected=latencies.undetected,
            recovered=result.recovered,
            recovery_time=result.recovery_time,
        )
    return row


def from_row(row: Row) -> Result:
    """The result a row was made from (inverse of :func:`to_row`)."""
    params = EXPERIMENTS[row["experiment"]](**row["params"])
    if isinstance(params, IntervalParams):
        return IntervalResult(
            params=params,
            anomalous=list(row["anomalous"]),
            false_positives=FalsePositiveStats(
                row["fp"],
                row["fp_healthy"],
                row["anomalous_subject"],
                dict(row["fp_by_observer"]),
            ),
            msgs_sent=row["msgs_sent"],
            bytes_sent=row["bytes_sent"],
            test_time=row["test_time"],
            msgs_by_kind=dict(row["msgs_by_kind"]),
            bytes_by_kind=dict(row["bytes_by_kind"]),
        )
    return ThresholdResult(
        params=params,
        anomalous=list(row["anomalous"]),
        latencies=DisseminationStats(
            dict(row["first_detection"]),
            dict(row["full_dissemination"]),
            list(row["undetected"]),
        ),
        recovered=row["recovered"],
        recovery_time=row["recovery_time"],
    )


class Ledger:
    """The rows under ``directory`` that carry ``fingerprint``."""

    def __init__(self, directory: Path, fingerprint: str) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        #: Runs simulated (not found in the ledger) since construction.
        self.simulated = 0
        self._rows: Dict[str, Dict[str, Row]] = {}

    def path(self, experiment: str) -> Path:
        return self.directory / f"{experiment}.jsonl"

    def rows(self, experiment: str) -> Dict[str, Row]:
        """This fingerprint's rows of ``experiment``, by key (a later row
        of a key wins)."""
        rows = self._rows.get(experiment)
        if rows is None:
            rows = self._rows[experiment] = {}
            path = self.path(experiment)
            if path.exists():
                for line in path.read_text().splitlines():
                    row = json.loads(line)
                    if row.get("fingerprint") == self.fingerprint:
                        rows[row_key(experiment, row["params"], row["rep"])] = row
        return rows

    def _drop_stale_rows(self, experiment: str) -> None:
        """Rewrite ``experiment``'s file with this fingerprint's rows
        only, in their order."""
        path = self.path(experiment)
        if not path.exists():
            return
        lines = path.read_text().splitlines()
        kept = [
            line for line in lines
            if json.loads(line).get("fingerprint") == self.fingerprint
        ]
        if len(kept) < len(lines):
            rewritten = path.with_name(path.name + ".tmp")
            rewritten.write_text("".join(line + "\n" for line in kept))
            rewritten.replace(path)

    def run(self, experiment: str, grid: Sequence[Params], workers: int) -> List[Result]:
        """Every run of ``grid``, in order: from its row where this
        fingerprint has one, else simulated (``workers`` wide) and
        appended, after the rows under any other fingerprint are dropped
        from the file."""
        rows = self.rows(experiment)
        reps = repetitions(grid)
        keys = [
            row_key(experiment, dataclasses.asdict(params), rep)
            for params, rep in zip(grid, reps)
        ]
        missing: List[Tuple[str, Params, int]] = [
            (key, params, rep)
            for key, params, rep in zip(keys, grid, reps)
            if key not in rows
        ]
        if missing:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._drop_stale_rows(experiment)
            results = ordered_map(
                _runner(experiment), [params for _, params, _ in missing], workers
            )
            with closing(results), self.path(experiment).open("a") as out:
                for (key, _params, rep), result in zip(missing, results):
                    row = to_row(result, rep, self.fingerprint)
                    out.write(json.dumps(row, separators=(",", ":")) + "\n")
                    out.flush()
                    # The row as a later sweep reads it back.
                    rows[key] = json.loads(json.dumps(row))
                    self.simulated += 1
        return [from_row(rows[key]) for key in keys]
