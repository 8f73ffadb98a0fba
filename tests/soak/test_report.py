"""Soak analysis: detection metrics, FP classification, the gate."""

import pytest

from repro.faults import FaultEntry, FaultSchedule
from repro.soak.report import analyze, render_markdown, wall_events
from repro.swim.events import EventKind, MemberEvent

NAMES = ["m000", "m001", "m002", "m003"]
EPOCH = 1000.0


def failed(observer, subject, wall_t):
    return MemberEvent(wall_t, observer, subject, EventKind.FAILED, 1)


class TestKillDetection:
    SCHEDULE = FaultSchedule((FaultEntry("crash", 10.0, members=("m001",)),))

    def test_full_detection(self):
        events = [
            failed("m000", "m001", EPOCH + 12.0),
            failed("m002", "m001", EPOCH + 13.0),
            failed("m003", "m001", EPOCH + 14.5),
        ]
        analysis = analyze(
            self.SCHEDULE, EPOCH, events, NAMES, duration=30.0
        )
        (kill,) = analysis.kills
        assert kill["victim"] == "m001"
        assert kill["first_detection"] == 2.0
        assert kill["dissemination"] == 4.5
        assert kill["detected"]
        assert analysis.gate()["ok"]

    def test_partial_detection_fails_gate(self):
        events = [failed("m000", "m001", EPOCH + 12.0)]
        analysis = analyze(
            self.SCHEDULE, EPOCH, events, NAMES, duration=30.0
        )
        (kill,) = analysis.kills
        assert kill["detected_by"] == 1
        assert kill["dissemination"] is None
        assert not kill["detected"]
        assert analysis.undetected == ["m001"]
        assert not analysis.gate()["ok"]

    def test_failed_event_before_kill_is_fp(self):
        events = [
            failed("m000", "m001", EPOCH + 5.0),  # victim still alive
            failed("m000", "m001", EPOCH + 12.0),
            failed("m002", "m001", EPOCH + 12.0),
            failed("m003", "m001", EPOCH + 12.0),
        ]
        analysis = analyze(
            self.SCHEDULE, EPOCH, events, NAMES, duration=30.0
        )
        assert analysis.fp_total == 1
        assert analysis.fp_healthy == 1
        assert not analysis.gate()["ok"]


class TestFalsePositiveClassification:
    def test_excused_inside_window_plus_grace(self):
        schedule = FaultSchedule((
            FaultEntry("block", 10.0, 5.0, members=("m002",)),
        ))
        events = [
            failed("m000", "m002", EPOCH + 12.0),   # during the pause
            failed("m001", "m002", EPOCH + 17.0),   # inside grace tail
            failed("m003", "m002", EPOCH + 40.0),   # long after: healthy FP
            failed("m000", "m001", EPOCH + 12.0),   # untargeted subject
        ]
        analysis = analyze(
            schedule, EPOCH, events, NAMES, duration=60.0, grace=3.0
        )
        assert analysis.fp_total == 4
        assert analysis.fp_excused == 2
        assert analysis.fp_healthy == 2

    def test_loss_and_partition_excuse_everyone(self):
        schedule = FaultSchedule((
            FaultEntry("loss", 5.0, 5.0, rate=0.3, members=("m000",)),
            FaultEntry("partition", 20.0, 5.0, members=("m003",)),
        ))
        events = [
            failed("m000", "m001", EPOCH + 7.0),    # during loss
            failed("m003", "m002", EPOCH + 22.0),   # during partition
            # Partition fallout lasts up to twice the grace tail.
            failed("m000", "m003", EPOCH + 25.0 + 5.0),
        ]
        analysis = analyze(
            schedule, EPOCH, events, NAMES, duration=60.0, grace=3.0
        )
        assert analysis.fp_healthy == 0
        assert analysis.fp_excused == 3
        assert analysis.gate()["ok"]

    def test_restored_events_counted(self):
        analysis = analyze(
            FaultSchedule(()),
            EPOCH,
            [MemberEvent(EPOCH + 1.0, "m000", "m001", EventKind.RESTORED, 2)],
            NAMES,
            duration=10.0,
        )
        assert analysis.restored_events == 1
        assert analysis.fp_total == 0


class TestRendering:
    def test_markdown_contains_gate_and_sim_sections(self):
        schedule = FaultSchedule((FaultEntry("crash", 5.0, members=("m000",)),))
        events = [
            failed(name, "m000", EPOCH + 7.0) for name in NAMES[1:]
        ]
        analysis = analyze(
            schedule, EPOCH, events, NAMES, duration=30.0,
            convergence_time=2.5,
        )
        sim = analyze(
            schedule, 2.0, [failed(name, "m000", 8.8) for name in NAMES[1:]]
            + [failed("m001", "m002", 20.0)],
            NAMES, duration=30.0, since=2.0,
        )
        text = render_markdown(
            analysis, sim,
            chaos_log=[{"t": EPOCH + 5.01, "planned_t": EPOCH + 5.0}],
        )
        assert "Gate: PASS" in text
        assert "Simulator comparison" in text
        assert "| first-detection median | 2.00s | 1.80s |" in text
        assert "| excused | 0 | 0 |" in text
        assert "| healthy-phase | 0 | 1 |" in text
        assert "max signal jitter" in text

    def test_as_dict_is_json_safe(self):
        import json

        analysis = analyze(
            FaultSchedule(()), EPOCH, [], NAMES, duration=10.0
        )
        json.dumps(analysis.as_dict())


class TestOneScorer:
    """A scraped record stream and a ``MemberEvent`` list of the same
    events score the same — what makes the simulator twin comparable."""

    SCHEDULE = FaultSchedule((
        FaultEntry("crash", 10.0, members=("m001",)),
        FaultEntry("block", 20.0, 5.0, members=("m002",)),
    ))
    EVENTS = [
        failed("m000", "m001", EPOCH + 5.0),    # before the kill: FP
        failed("m000", "m001", EPOCH + 12.0),
        failed("m003", "m001", EPOCH + 12.5),
        failed("m002", "m001", EPOCH + 13.0),
        failed("m002", "m001", EPOCH + 19.0),   # repeat: first one counts
        failed("m003", "m002", EPOCH + 22.0),   # excused by the block
        MemberEvent(EPOCH + 26.0, "m003", "m002", EventKind.RESTORED, 2),
        failed("m000", "m003", EPOCH + 50.0),   # healthy-phase
    ]

    @pytest.mark.parametrize("since", [float("-inf"), EPOCH + 6.0])
    def test_records_and_events_score_equal(self, since):
        # As the scraper stamps them: ``t`` on the member's own clock,
        # ``wall_t`` on the harness's, plus bookkeeping keys.
        records = [
            {**event.as_record(), "t": event.time - EPOCH - 3.25,
             "wall_t": event.time, "seq": seq, "member": 0}
            for seq, event in enumerate(self.EVENTS, 1)
        ]
        from_records, from_events = (
            analyze(
                self.SCHEDULE, EPOCH, events, NAMES, duration=60.0, grace=3.0,
                since=since,
            )
            for events in (wall_events(records), self.EVENTS)
        )
        assert from_records.as_dict() == from_events.as_dict()
        assert from_events.kills[0]["dissemination"] == 3.0
        assert from_events.fp_excused == 1
        assert from_events.fp_total == (3 if since < EPOCH else 2)
        assert from_events.restored_events == 1
