"""The paired simulator run: fault mapping and determinism."""

import json
import pathlib

import pytest

from repro.faults import FaultEntry, FaultSchedule
from repro.soak.sim_compare import run_sim_comparison

FAST = dict(probe_interval=0.2, alpha=2.0, beta=6.0)


class TestSimComparison:
    def test_kill_detected_by_all_survivors(self):
        schedule = FaultSchedule((FaultEntry("crash", 2.0, members=("m001",)),))
        result = run_sim_comparison(
            schedule, 6, seed=1, duration=30.0, **FAST
        )
        (kill,) = result["kills"]
        assert kill["victim"] == "m001"
        assert kill["detected"]
        assert kill["detected_by"] == kill["survivors"] == 5
        assert 0 < kill["first_detection"] <= kill["dissemination"]
        assert result["undetected"] == []
        assert result["detection_median"] == kill["first_detection"]

    def test_deterministic_under_seed(self):
        schedule = FaultSchedule((
            FaultEntry("crash", 2.0, members=("m000",)),
            FaultEntry("loss", 5.0, 3.0, rate=0.2),
        ))
        a = run_sim_comparison(schedule, 5, seed=9, duration=25.0, **FAST)
        b = run_sim_comparison(schedule, 5, seed=9, duration=25.0, **FAST)
        assert a == b

    def test_pause_window_causes_failure_and_no_kill_rows(self):
        schedule = FaultSchedule((
            FaultEntry("block", 2.0, 10.0, members=("m002",)),
        ))
        result = run_sim_comparison(
            schedule, 5, seed=3, duration=25.0, **FAST
        )
        assert result["kills"] == []
        # A long unresponsive window is detected: counted as FPs (the
        # member's process is alive) exactly as the real analysis does.
        assert result["false_positives"] > 0

    def test_partition_cuts_and_heals(self):
        schedule = FaultSchedule((
            FaultEntry("partition", 2.0, 6.0, members=("m000", "m001")),
        ))
        result = run_sim_comparison(
            schedule, 6, seed=4, duration=40.0, **FAST
        )
        # Both sides declare the other failed during the cut.
        assert result["false_positives"] > 0
        assert result["undetected"] == []


@pytest.mark.parametrize(
    "example, members", [("soak_smoke", 12), ("soak_nightly", 30)]
)
def test_example_schedules_replay_as_at_parent(example, members):
    """``sim_compare_parent.json`` holds ``run_sim_comparison`` output
    recorded at the parent commit, when this module mapped the (then
    separate) soak schedule onto the simulator by hand; the shared
    executor must reproduce it exactly."""
    here = pathlib.Path(__file__).parent
    want = json.loads((here / "sim_compare_parent.json").read_text())[example]
    schedule = FaultSchedule.load(
        str(here.parent.parent / "examples" / f"{example}.json")
    )
    got = run_sim_comparison(schedule, members, seed=0)
    assert json.loads(json.dumps(got)) == want
