"""Fault schedules on the real cluster: validation, JSON round-trip,
plan compilation, and the committed example schedules.
"""

import glob
import os

import pytest

from repro.faults import SCHEDULE_SCHEMA, FaultEntry, FaultPlan, FaultSchedule
from repro.sim.runtime import default_member_names
from repro.soak.runner import SoakParams
from repro.soak.schedule import (
    REAL_FAULT_KINDS,
    member_fault_plan,
    member_fault_plans,
    validate_real_schedule,
)

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def real(*entries):
    return validate_real_schedule(FaultSchedule(entries))


class TestRealEntryRules:
    """``FaultEntry`` construction rules, plus what
    ``validate_real_schedule`` refuses per entry."""

    def test_kill_is_permanent(self):
        with pytest.raises(ValueError, match="permanent"):
            real(FaultEntry("crash", 5.0, duration=3.0, members=("m001",)))

    def test_non_kill_needs_duration(self):
        with pytest.raises(ValueError, match="positive duration"):
            real(FaultEntry("block", 5.0, members=("m001",)))

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            real(FaultEntry("loss", 0.0, 5.0, rate=0.0))
        with pytest.raises(ValueError, match="rate"):
            real(FaultEntry("loss", 0.0, 5.0, rate=1.5))

    def test_rate_only_on_loss(self):
        with pytest.raises(ValueError, match="only meaningful"):
            real(FaultEntry("block", 0.0, 5.0, members=("m001",), rate=0.5))

    def test_targets_required_except_loss(self):
        with pytest.raises(ValueError, match="member"):
            real(FaultEntry("partition", 0.0, 5.0))
        # Cluster-wide loss is fine without members.
        real(FaultEntry("loss", 0.0, 5.0, rate=0.2))

    def test_duplicate_and_negative_targets(self):
        with pytest.raises(ValueError, match="duplicate"):
            real(FaultEntry("block", 0.0, 5.0, members=("m001", "m001")))
        # Names outside the launched cluster are caught before spawning.
        with pytest.raises(ValueError, match="m009"):
            SoakParams(
                members=4,
                schedule=FaultSchedule(
                    (FaultEntry("block", 0.0, 5.0, members=("m009",)),)
                ),
                duration=30.0,
            )

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            real(FaultEntry("reboot", 0.0, 5.0, members=("m001",)))

    def test_kill_window_is_unbounded(self):
        # However late, nothing may name a member after its crash.
        with pytest.raises(ValueError, match="after their crash"):
            real(
                FaultEntry("crash", 10.0, members=("m001",)),
                FaultEntry("block", 100.0, 5.0, members=("m001", "m002")),
            )

    @pytest.mark.parametrize(
        "kind", ["flap", "leave", "join", "cpu_stress", "link_loss", "zone_partition"]
    )
    def test_simulator_only_kinds_rejected_naming_the_accepted_ones(self, kind):
        entry = FaultEntry(
            kind,
            1.0,
            duration=0.0 if kind in ("leave", "join") else 5.0,
            members=("m001", "m002") if kind == "link_loss" else ("m001",),
            rate=0.5 if kind == "link_loss" else 0.0,
        )
        entry.validate()  # legal in the language, just not on real processes
        with pytest.raises(ValueError) as excinfo:
            real(entry)
        for accepted in REAL_FAULT_KINDS:
            assert accepted in str(excinfo.value)


class TestRealScheduleValidation:
    """``validate_real_schedule`` across entries: what may overlap and
    what may follow a crash."""

    def test_target_after_kill_rejected(self):
        with pytest.raises(ValueError, match="after their crash"):
            real(
                FaultEntry("crash", 5.0, members=("m001",)),
                FaultEntry("block", 10.0, 5.0, members=("m001",)),
            )

    def test_cluster_wide_loss_tolerates_dead_members(self):
        real(
            FaultEntry("crash", 5.0, members=("m001",)),
            FaultEntry("loss", 10.0, 5.0, rate=0.2),
        )

    def test_overlapping_process_phases_on_one_member(self):
        with pytest.raises(ValueError, match="signal faults"):
            real(
                FaultEntry("block", 0.0, 10.0, members=("m001",)),
                FaultEntry("block", 5.0, 10.0, members=("m001", "m002")),
            )

    def test_overlapping_same_kind_transport_phases(self):
        with pytest.raises(ValueError, match="merge them"):
            real(
                FaultEntry("loss", 0.0, 10.0, rate=0.1),
                FaultEntry("loss", 5.0, 10.0, rate=0.2, members=("m001",)),
            )

    def test_disjoint_phases_compose(self):
        schedule = real(
            FaultEntry("loss", 0.0, 5.0, rate=0.1),
            FaultEntry("loss", 6.0, 5.0, rate=0.2),
            FaultEntry("block", 2.0, 3.0, members=("m001",)),
            FaultEntry("block", 2.0, 3.0, members=("m002",)),
            FaultEntry("crash", 20.0, members=("m003",)),
        )
        assert schedule.end == 20.0
        assert [e.members for e in schedule.of_kind("crash")] == [("m003",)]
        assert schedule.members() == {"m001", "m002", "m003"}


class TestRoundTrip:
    def test_json_round_trip_exact(self):
        schedule = FaultSchedule((
            FaultEntry("loss", 5.0, 10.0, rate=0.1, name="ambient"),
            FaultEntry("crash", 20.0, members=("m001", "m002")),
            FaultEntry("partition", 30.0, 5.0, members=("m000", "m003")),
        ))
        assert FaultSchedule.loads(schedule.dumps()) == schedule
        assert schedule.as_dict()["schema"] == SCHEDULE_SCHEMA

    def test_file_round_trip(self, tmp_path):
        schedule = FaultSchedule((FaultEntry("crash", 1.0, members=("m000",)),))
        path = str(tmp_path / "schedule.json")
        schedule.dump(path)
        assert FaultSchedule.load(path) == schedule

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            FaultSchedule.from_dict({"schema": "bogus/v9", "faults": []})

    def test_retired_v1_soak_schema_rejected_naming_the_accepted_one(self):
        retired = {
            "schema": "repro-soak-schedule/v1",
            "phases": [{"kind": "kill", "start": 1.0, "targets": [1]}],
        }
        with pytest.raises(ValueError, match=SCHEDULE_SCHEMA):
            FaultSchedule.from_dict(retired)

    def test_name_label_omitted_when_empty(self):
        assert "name" not in FaultEntry("crash", 1.0, members=("m000",)).as_dict()
        named = FaultEntry("crash", 1.0, members=("m000",), name="boom")
        assert named.as_dict()["name"] == "boom"
        assert named.label == "boom"


ADDRS = {"m000": "h:1", "m001": "h:2", "m002": "h:3", "m003": "h:4"}


class TestMemberFaultPlan:
    def test_loss_targets_only_members_in_scope(self):
        schedule = FaultSchedule((
            FaultEntry("loss", 2.0, 4.0, rate=0.3, members=("m001",)),
        ))
        plan0 = member_fault_plan(schedule, "m000", ADDRS, epoch=100.0)
        plan1 = member_fault_plan(schedule, "m001", ADDRS, epoch=100.0)
        assert plan0.windows == ()
        assert len(plan1.windows) == 1
        window = plan1.windows[0]
        assert (window.kind, window.start, window.end, window.rate) == (
            "loss", 2.0, 6.0, 0.3,
        )

    def test_partition_far_side_is_symmetric(self):
        schedule = FaultSchedule((
            FaultEntry("partition", 5.0, 10.0, members=("m000", "m001")),
        ))
        inside = member_fault_plan(schedule, "m000", ADDRS, epoch=0.0)
        outside = member_fault_plan(schedule, "m002", ADDRS, epoch=0.0)
        assert inside.windows[0].peers == ("h:3", "h:4")
        assert outside.windows[0].peers == ("h:1", "h:2")

    def test_epoch_and_seed_flow_through(self):
        schedule = FaultSchedule((FaultEntry("loss", 0.0, 1.0, rate=0.5),))
        plan = member_fault_plan(schedule, "m002", ADDRS, epoch=123.0, seed=7)
        assert plan.epoch == 123.0
        assert plan.seed == 7 * 7919 + 2
        assert isinstance(plan, FaultPlan)

    def test_member_fault_plans_skips_empty(self):
        schedule = FaultSchedule((
            FaultEntry("loss", 0.0, 1.0, rate=0.5, members=("m001",)),
        ))
        plans = member_fault_plans(schedule, ADDRS, epoch=0.0)
        assert set(plans) == {"m001"}

    def test_kill_produces_no_transport_windows(self):
        schedule = FaultSchedule((FaultEntry("crash", 1.0, members=("m000",)),))
        assert member_fault_plans(schedule, ADDRS, epoch=0.0) == {}

    def test_compile_rejects_what_real_processes_cannot_run(self):
        schedule = FaultSchedule((
            FaultEntry("flap", 1.0, 5.0, members=("m001",)),
        ))
        with pytest.raises(ValueError, match="accepted kinds"):
            member_fault_plans(schedule, ADDRS, epoch=0.0)


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(EXAMPLES, "soak_*.json"))),
    ids=os.path.basename,
)
def test_committed_example_schedules_load_for_both_executors(path):
    """What the CI soak jobs would reject fails here in milliseconds,
    not minutes into ``soak-smoke``."""
    from repro.sim.faults import SimFaultExecutor
    from repro.sim.runtime import SimCluster

    schedule = validate_real_schedule(FaultSchedule.load(path))
    assert schedule.entries
    # The smallest cluster the schedule's names fit in, real side...
    members = 1 + max(int(name[1:]) for name in schedule.members())
    assert schedule.members() <= set(default_member_names(members))
    SoakParams(members=members, schedule=schedule, duration=schedule.end + 30.0)
    # ...and the simulator accepts it onto a cluster of that size.
    SimFaultExecutor(SimCluster(members), schedule).schedule()
