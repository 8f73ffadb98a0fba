"""The scenario generator pinned to the commit before its two arms merged.

``generator_parent.json`` was captured at the commit named inside it,
while the zoned arm was still a separate function that re-implemented
the flat one draw for draw, by running this module against that tree::

    PYTHONPATH=<parent>/src:. python -m tests.check.test_generator_pin \
        tests/check/generator_parent.json

Each arm's digest is the sha256 of ``generate_scenario(seed,
params).to_json(indent=None)`` for seeds 0-1999, one line a seed, so
one RNG draw out of order on any seed moves it. Re-capture rule:
docs/CHECKING.md, *Tables recorded at a parent commit*.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.check.scenarios import GeneratorParams, generate_scenario
from repro.config import PROBE_SCHEDULER_NAMES

PIN = Path(__file__).parent / "generator_parent.json"
SEEDS = 2000

ARMS: Dict[str, GeneratorParams] = {
    "flat": GeneratorParams(),
    "zones-2": GeneratorParams(zone_counts=(2,)),
    "zones-3": GeneratorParams(zone_counts=(3,)),
    "zones-4": GeneratorParams(zone_counts=(4,)),
    "mixed-all-schedulers": GeneratorParams(
        zone_counts=(0, 2, 3, 4), schedulers=PROBE_SCHEDULER_NAMES
    ),
}


def arm_digest(params: GeneratorParams) -> str:
    digest = hashlib.sha256()
    for seed in range(SEEDS):
        digest.update(generate_scenario(seed, params).to_json(indent=None).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_generator_draws_as_at_parent(arm):
    pinned = json.loads(PIN.read_text())
    assert pinned["seeds"] == SEEDS
    assert arm_digest(ARMS[arm]) == pinned["arms"][arm]


def main(out: str) -> None:
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    table = {
        "parent": head,
        "seeds": SEEDS,
        "arms": {name: arm_digest(params) for name, params in ARMS.items()},
    }
    Path(out).write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
