"""The per-run result ledger: rows written once, reused under the same
code fingerprint, never under another."""

import dataclasses
import json

import pytest

from repro.harness import interval, ledger, threshold
from repro.harness.interval import IntervalParams
from repro.harness.threshold import ThresholdParams

INTERVAL_GRID = [
    IntervalParams(
        "Lifeguard", n_members=8, concurrent=c, duration=0.5, interval=0.1,
        quiesce=1.0, min_test_time=3.0, seed=seed,
    )
    for c, seed in ((1, 1), (1, 2), (2, 3))
]
THRESHOLD_GRID = [
    ThresholdParams(
        "SWIM", n_members=8, concurrent=1, duration=4.0, quiesce=1.0,
        time_limit=8.0, seed=seed,
    )
    for seed in (1, 2)
]
GRIDS = {"interval": INTERVAL_GRID, "threshold": THRESHOLD_GRID}


def _measured(result):
    """Everything a result carries, in comparable form."""
    out = result.as_dict()
    if isinstance(result, interval.IntervalResult):
        out.update(
            anomalous_subject=result.false_positives.anomalous_subject_events,
            fp_by_observer=result.false_positives.fp_by_observer,
            msgs_by_kind=result.msgs_by_kind,
            bytes_by_kind=result.bytes_by_kind,
        )
    else:
        out.update(
            first_detection_by_member=result.latencies.first_detection,
            full_dissemination_by_member=result.latencies.full_dissemination,
        )
    return out


@pytest.fixture(scope="module")
def direct():
    """Each grid run straight through its runner, no ledger."""
    return {
        "interval": [interval.run_interval(p) for p in INTERVAL_GRID],
        "threshold": [threshold.run_threshold(p) for p in THRESHOLD_GRID],
    }


@pytest.mark.parametrize("experiment", ["interval", "threshold"])
def test_cold_writes_rows_warm_simulates_nothing(
    experiment, direct, tmp_path, monkeypatch
):
    grid = GRIDS[experiment]
    cold = ledger.Ledger(tmp_path, "code-a")
    results = cold.run(experiment, grid, workers=1)
    assert cold.simulated == len(grid)
    assert [_measured(r) for r in results] == [_measured(r) for r in direct[experiment]]

    rows = [json.loads(line) for line in cold.path(experiment).read_text().splitlines()]
    assert len(rows) == len(grid)
    assert {row["fingerprint"] for row in rows} == {"code-a"}
    assert [row["seed"] for row in rows] == [p.seed for p in grid]
    if experiment == "interval":
        first = rows[0]
        assert (first["C"], first["D"], first["I"], first["rep"]) == (1, 0.5, 0.1, 0)
        assert rows[1]["rep"] == 1  # same cell, next seed
        assert sum(first["msgs_by_kind"].values()) == first["msgs_sent"]
        assert sum(first["bytes_by_kind"].values()) == first["bytes_sent"]

    def no_simulation(_params):
        raise AssertionError("a run on record was simulated again")

    monkeypatch.setattr(interval, "run_interval", no_simulation)
    monkeypatch.setattr(threshold, "run_threshold", no_simulation)
    warm = ledger.Ledger(tmp_path, "code-a")
    assert [_measured(r) for r in warm.run(experiment, grid, workers=1)] == [
        _measured(r) for r in results
    ]
    assert warm.simulated == 0


def test_a_row_under_another_fingerprint_is_never_used(direct, tmp_path):
    grid = INTERVAL_GRID[:1]
    stale = ledger.Ledger(tmp_path, "code-a")
    stale.run("interval", grid, workers=1)
    # Tamper with the old row: were it read, the result would show it.
    path = stale.path("interval")
    row = json.loads(path.read_text())
    row["fp"] = 10_000
    path.write_text(json.dumps(row) + "\n")

    fresh = ledger.Ledger(tmp_path, "code-b")
    (result,) = fresh.run("interval", grid, workers=1)
    assert fresh.simulated == 1
    assert _measured(result) == _measured(direct["interval"][0])
    # The stale row is dropped, not kept beside the fresh one ...
    lines = path.read_text().splitlines()
    fingerprints = [json.loads(line)["fingerprint"] for line in lines]
    assert fingerprints == ["code-b"]

    # ... so "code-a" finds nothing to read back and simulates again,
    # and the tampered row never reaches a result.
    again = ledger.Ledger(tmp_path, "code-a")
    (result,) = again.run("interval", grid, workers=1)
    assert again.simulated == 1
    assert result.fp_events != 10_000
    assert _measured(result) == _measured(direct["interval"][0])
    lines = path.read_text().splitlines()
    assert [json.loads(line)["fingerprint"] for line in lines] == ["code-a"]


def test_a_run_at_another_scale_is_another_key(tmp_path):
    grid = INTERVAL_GRID[:1]
    book = ledger.Ledger(tmp_path, "code-a")
    book.run("interval", grid, workers=1)
    longer = [dataclasses.replace(grid[0], min_test_time=4.0)]
    book.run("interval", longer, workers=1)
    assert book.simulated == 2
