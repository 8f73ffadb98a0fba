"""Zoned scenario generation, the zone-convergence oracle and the sweep.

The acceptance bar for the zoned subsystem is the same one the flat
protocol cleared: a 100-seed generated-scenario sweep — now including
the ``zone_partition`` fault — with every oracle holding. The sweep is
the most expensive test in the suite (~1s/seed), so everything cheap
about zoned scenarios is asserted in the focused tests first, and tier 1
runs its first ten seeds (the hundred are marked ``slow``).
"""

import pytest

from repro.check.invariants import ZoneConvergenceOracle, default_oracles
from repro.check.runner import run_scenario, run_sweep
from repro.check.scenarios import (
    ZONED_FAULT_KINDS,
    FaultEntry,
    GeneratorParams,
    ScenarioSpec,
    generate_scenario,
)

ZONED_PARAMS = GeneratorParams(zone_counts=(3, 4))


class TestZonedGeneration:
    def test_generated_specs_are_zoned_and_valid(self):
        for seed in range(30):
            spec = generate_scenario(seed, ZONED_PARAMS)
            assert spec.zones in (3, 4)
            spec.validate()
            assert spec.n_members >= 2 * spec.zones
            for entry in spec.faults:
                assert entry.kind in ZONED_FAULT_KINDS

    def test_zone_partition_reachable(self):
        kinds = set()
        for seed in range(60):
            kinds.update(
                e.kind for e in generate_scenario(seed, ZONED_PARAMS).faults
            )
        assert "zone_partition" in kinds

    def test_mixed_zone_counts_interleave_flat_and_zoned(self):
        mixed = GeneratorParams(zone_counts=(0, 4))
        zones_seen = {
            generate_scenario(seed, mixed).zones for seed in range(40)
        }
        assert zones_seen == {0, 4}

    def test_round_trip_preserves_zones(self):
        spec = generate_scenario(7, ZONED_PARAMS)
        clone = ScenarioSpec.from_dict(spec.as_dict())
        assert clone == spec
        assert clone.zones == spec.zones

    def test_flat_spec_dict_omits_zones(self):
        spec = generate_scenario(7)
        assert spec.zones == 0
        assert "zones" not in spec.as_dict()

    def test_zone_partition_validation(self):
        base = dict(seed=1, n_members=12, zones=3, horizon=40.0)
        good = ScenarioSpec(
            faults=(FaultEntry("zone_partition", 5.0, 10.0, ("z000",)),),
            **base,
        )
        good.validate()
        with pytest.raises(ValueError):
            ScenarioSpec(
                faults=(
                    FaultEntry("zone_partition", 5.0, 10.0, ("z009",)),
                ),
                **base,
            ).validate()
        with pytest.raises(ValueError):
            # Isolating every zone is not a partition of the cluster.
            ScenarioSpec(
                faults=(
                    FaultEntry(
                        "zone_partition", 5.0, 10.0, ("z000", "z001", "z002")
                    ),
                ),
                **base,
            ).validate()

    def test_flat_params_reject_zone_partition_weight_only_when_zoned(self):
        # zone_partition weight is inert for flat scenarios but the
        # entry itself is a legal weight key.
        GeneratorParams(
            weights=(("block", 1.0), ("zone_partition", 2.0))
        ).validate()


class TestZoneConvergenceOracle:
    def test_registered_in_default_suite(self):
        assert any(
            isinstance(oracle, ZoneConvergenceOracle)
            for oracle in default_oracles()
        )

    def test_single_zoned_scenario_runs_clean(self):
        spec = generate_scenario(8, ZONED_PARAMS)
        result = run_scenario(spec)
        assert result.violations == []
        # `events` counts executed scheduler events, as on flat clusters
        # (not membership-log entries): at stride 1 the oracles run once
        # per event, so the two counters agree.
        assert result.events == result.checks_run > 1000


class TestZonedSweep:
    # Ten seeds in tier 1; the hundred (a minute and a half) with
    # ``pytest -m slow``. CI's fuzz-smoke sweeps 25 zoned seeds per PR.
    @pytest.mark.parametrize(
        "seeds", [10, pytest.param(100, marks=pytest.mark.slow)]
    )
    def test_sweep_is_clean(self, seeds):
        result = run_sweep(seeds, params=ZONED_PARAMS)
        assert result.seeds_run == seeds
        assert result.seeds_failed == 0, [
            (f.seed, f.result.violations[:2]) for f in result.failures
        ]
