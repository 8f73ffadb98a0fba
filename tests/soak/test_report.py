"""Soak analysis: detection metrics, FP classification, the gate."""

from repro.soak.report import analyze, render_markdown
from repro.faults import FaultEntry, FaultSchedule

NAMES = ["m000", "m001", "m002", "m003"]
EPOCH = 1000.0


def failed(observer, subject, wall_t):
    return {
        "kind": "failed",
        "observer": observer,
        "subject": subject,
        "wall_t": wall_t,
    }


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
            [{"kind": "restored", "observer": "m000", "subject": "m001",
              "wall_t": EPOCH + 1.0}],
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
        sim = {
            "detection_median": 1.8,
            "dissemination_median": 2.2,
            "undetected": [],
            "false_positives": 0,
        }
        text = render_markdown(
            analysis, sim,
            chaos_log=[{"t": EPOCH + 5.01, "planned_t": EPOCH + 5.0}],
        )
        assert "Gate: PASS" in text
        assert "Simulator comparison" in text
        assert "first-detection median" in text
        assert "max signal jitter" in text

    def test_as_dict_is_json_safe(self):
        import json

        analysis = analyze(
            FaultSchedule(()), EPOCH, [], NAMES, duration=10.0
        )
        json.dumps(analysis.as_dict())
