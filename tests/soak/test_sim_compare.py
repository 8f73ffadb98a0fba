"""The paired simulator run: fault mapping and determinism."""

import json
import pathlib

import pytest

from repro.faults import FaultEntry, FaultSchedule
from repro.soak.runner import SoakParams
from repro.soak.sim_compare import run_sim_comparison

FAST = dict(probe_interval=0.2, alpha=2.0, beta=6.0)


class TestSimComparison:
    def test_kill_detected_by_all_survivors(self):
        schedule = FaultSchedule((FaultEntry("crash", 2.0, members=("m001",)),))
        result = run_sim_comparison(
            schedule, 6, seed=1, duration=30.0, **FAST
        )
        (kill,) = result.kills
        assert kill["victim"] == "m001"
        assert kill["detected"]
        assert kill["detected_by"] == kill["survivors"] == 5
        assert 0 < kill["first_detection"] <= kill["dissemination"]
        assert result.undetected == []
        assert result.detection_median() == kill["first_detection"]

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
        assert result.kills == []
        # A long unresponsive window is detected: counted as FPs (the
        # member's process is alive) exactly as the real analysis does.
        assert result.fp_total > 0

    def test_partition_cuts_and_heals(self):
        schedule = FaultSchedule((
            FaultEntry("partition", 2.0, 6.0, members=("m000", "m001")),
        ))
        result = run_sim_comparison(
            schedule, 6, seed=4, duration=40.0, **FAST
        )
        # Both sides declare the other failed during the cut.
        assert result.fp_total > 0
        assert result.undetected == []


#: Recorded key -> where the shared scorer's :class:`SoakAnalysis` now
#: carries the same value.
RECORDED = {
    "members": lambda a: a.members,
    "virtual_duration": lambda a: a.duration,
    "kills": lambda a: a.kills,
    "undetected": lambda a: a.undetected,
    "detection_median": lambda a: a.detection_median(),
    "dissemination_median": lambda a: a.dissemination_median(),
    "false_positives": lambda a: a.fp_total,
    "events": lambda a: a.events_total,
}


@pytest.mark.parametrize(
    "example, members, excused, healthy",
    [("soak_smoke", 12, 0, 0), ("soak_nightly", 30, 938, 29)],
    ids=["soak_smoke-12", "soak_nightly-30"],
)
def test_example_schedules_replay_as_at_parent(example, members, excused, healthy):
    """``sim_compare_parent.json`` holds ``run_sim_comparison`` output
    recorded when this module mapped the (then separate) soak schedule
    onto the simulator by hand and scored the run with its own loops
    (re-capture rule: docs/CHECKING.md, *Tables recorded at a parent
    commit*); the shared executor and the
    shared scorer must reproduce every recorded value exactly. The
    excused / healthy-phase split is what the shared scorer adds, pinned
    at the grace the real soak derives for the same member count."""
    here = pathlib.Path(__file__).parent
    want = json.loads((here / "sim_compare_parent.json").read_text())[example]
    schedule = FaultSchedule.load(
        str(here.parent.parent / "examples" / f"{example}.json")
    )
    grace = SoakParams(members, schedule, duration=schedule.end + 30.0).grace()
    seed = want.pop("seed")
    got = run_sim_comparison(schedule, members, seed=seed, grace=grace)
    assert set(want) == set(RECORDED)
    for key, read in RECORDED.items():
        assert json.loads(json.dumps(read(got))) == want[key], key
    assert (got.fp_excused, got.fp_healthy) == (excused, healthy)
