"""The fault-executor refactor pinned to its parent commit.

``parent_pins.json`` was recorded at the commit named inside it, *before*
the fuzzer's two hand-written fault drivers and two run loops were
replaced by :class:`repro.sim.faults.SimFaultExecutor` and one loop. The
rows together cover all ten fault kinds on flat and zoned clusters;
``checks_run`` counts every simulated event the oracles saw, so any
change in what a schedule does to a cluster — one extra scheduler
callback, one RNG draw out of order — moves it. Re-capture rule:
docs/CHECKING.md, *Tables recorded at a parent commit*.
"""

import json
import pathlib

import pytest

from repro.check.runner import run_scenario
from repro.check.scenarios import GeneratorParams, generate_scenario
from repro.faults import FAULT_KINDS

PINS = json.loads(
    (pathlib.Path(__file__).parent / "parent_pins.json").read_text()
)
ZONED = GeneratorParams(zone_counts=tuple(PINS["zone_counts"]))


def test_pins_cover_every_fault_kind():
    assert {kind for row in PINS["rows"] for kind in row["kinds"]} == set(
        FAULT_KINDS
    )


@pytest.mark.parametrize(
    "row", PINS["rows"], ids=[f"{r['arm']}-{r['seed']}" for r in PINS["rows"]]
)
def test_generated_seed_runs_as_at_parent(row):
    zoned = row["arm"] == "zoned"
    spec = generate_scenario(row["seed"], ZONED if zoned else None)
    assert sorted({entry.kind for entry in spec.faults}) == row["kinds"]
    result = run_scenario(spec)
    assert (result.ok, result.checks_run, result.sim_time) == (
        row["ok"], row["checks_run"], row["sim_time"],
    )
    # Flat runs reported executed scheduler events at the parent too;
    # zoned runs reported membership-log length there, so only the flat
    # figure is comparable.
    if not zoned:
        assert result.events == row["events"]
