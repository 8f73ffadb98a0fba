"""``/metrics`` and telemetry output pinned to the pre-spine collectors.

The fixtures were captured at the parent commit (see
``tests/ops/scrape_scenarios.py``), where ``NodeCollector`` and
``ZoneCollector`` copied every counter into stored registry children on
each scrape. The families now read their sources in place; what an
operator scrapes must not have moved.
"""

import json
from pathlib import Path

import pytest

from tests.ops.scrape_scenarios import SCENARIOS

FIXTURES = Path(__file__).parent / "fixtures"

#: Families this change exposes for the first time (``BridgeStats``
#: counters that were written and never read); absent from the fixtures.
NEW_FAMILIES = (
    "lifeguard_zone_claims_received_total",
    "lifeguard_zone_unreachable_cleared_total",
    "lifeguard_zone_verdicts_received_total",
)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scrape_matches_parent_capture(name):
    text, telemetry = SCENARIOS[name]()
    expected = (FIXTURES / f"{name}_metrics.txt").read_text()
    got = [
        line
        for line in text.splitlines()
        if not any(family in line for family in NEW_FAMILIES)
    ]
    # Series order within a family is not part of the exposition contract.
    assert sorted(got) == sorted(expected.splitlines())
    assert telemetry == json.loads((FIXTURES / f"{name}_telemetry.json").read_text())


def test_new_families_are_exposed_per_zone():
    text, _telemetry = SCENARIOS["zoned"]()
    for family in NEW_FAMILIES:
        values = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith(family + "{")
        ]
        assert len(values) == 3 and sum(values) > 0, family
