"""Tests for the experiment CLI."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_cli_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    return json.loads(out)


SMALL = ["-n", "24", "--seed", "3"]


class TestThresholdCommand:
    def test_runs_and_reports(self, capsys):
        code, out = run_cli(
            capsys, "threshold", "--config", "SWIM", "-c", "2",
            "-d", "14.0", *SMALL,
        )
        assert code == 0
        assert "first detect" in out
        assert "recovered" in out

    def test_short_anomaly_shows_undetected(self, capsys):
        code, out = run_cli(
            capsys, "threshold", "--config", "SWIM", "-c", "2",
            "-d", "0.5", *SMALL,
        )
        assert code == 0
        assert "undetected    : 2" in out


class TestIntervalCommand:
    def test_runs_and_reports(self, capsys):
        code, out = run_cli(
            capsys, "interval", "--config", "SWIM", "-c", "2",
            "-d", "4.0", "-i", "0.001", "-t", "15", *SMALL,
        )
        assert code == 0
        assert "FP events" in out
        assert "messages sent" in out


class TestStressCommand:
    def test_runs_and_reports(self, capsys):
        code, out = run_cli(
            capsys, "stress", "--config", "Lifeguard", "--stressed", "2",
            "-t", "20", *SMALL,
        )
        assert code == 0
        assert "total FP" in out


class TestSchedulersCommand:
    def test_runs_and_reports(self, capsys):
        code, out = run_cli(
            capsys, "schedulers", "--config", "Lifeguard", "-c", "2",
            "-d", "14.0", "-r", "1", "-t", "15",
            "--strategies", "round-robin", "likelihood", *SMALL,
        )
        assert code == 0
        assert "Strategy comparison" in out
        assert "round-robin" in out
        assert "likelihood" in out
        assert "lhm-rtt" not in out

    def test_json_output(self, capsys):
        payload = run_cli_json(
            capsys, "schedulers", "--json", "--config", "Lifeguard",
            "-c", "2", "-d", "14.0", "-r", "1", "-t", "15",
            "--strategies", "lhm-rtt", *SMALL,
        )
        assert payload["kind"] == "scheduler-comparison"
        assert payload["params"]["schedulers"] == ["lhm-rtt"]
        [outcome] = payload["outcomes"]
        assert outcome["strategy"] == "lhm-rtt"
        assert outcome["samples"] + outcome["undetected"] == 2
        assert outcome["msgs_sent"] > 0

    def test_unknown_strategy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "schedulers", "--strategies", "fifo", *SMALL)


class TestCheckCommand:
    def test_scheduler_flag_reaches_sweep(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "check", "--seeds", "2", "--scheduler", "lhm-rtt",
            "--artifact-dir", str(tmp_path),
        )
        assert code == 0
        assert "2 seeds, 0 failed" in out
        assert list(tmp_path.glob("*.json")) == []

    def test_small_sweep_clean(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "check", "--seeds", "2", "--artifact-dir", str(tmp_path),
        )
        assert code == 0
        assert "2 seeds, 0 failed" in out
        assert list(tmp_path.glob("*.json")) == []

    def test_json_output(self, capsys, tmp_path):
        payload = run_cli_json(
            capsys, "check", "--seeds", "1", "--json",
            "--artifact-dir", str(tmp_path),
        )
        assert payload["kind"] == "check-sweep"
        assert payload["seeds_run"] == 1
        assert payload["seeds_failed"] == 0

    def test_replay_committed_repro(self, capsys):
        import pathlib

        repro = sorted(
            (pathlib.Path(__file__).parent / "check" / "repros").glob("*.json")
        )[0]
        code, out = run_cli(capsys, "check", "--replay", str(repro))
        assert code == 0
        assert "clean" in out


class TestCompareCommand:
    def test_lists_all_configurations(self, capsys):
        code, out = run_cli(
            capsys, "compare", "-c", "2", "-d", "4.0", "-i", "0.002",
            "-t", "10", *SMALL,
        )
        assert code == 0
        for name in ("SWIM", "LHA-Probe", "LHA-Suspicion", "Buddy System",
                     "Lifeguard"):
            assert name in out


class TestPacketbenchCommand:
    FAST = ["--in-process", "--duration", "0.05", "-r", "1"]

    def test_runs_and_reports(self, capsys):
        code, out = run_cli(capsys, "packetbench", *self.FAST)
        assert code == 0
        assert "backend=asyncio" in out
        assert "msgs/s=" in out
        assert "syscalls:" in out

    def test_batched_backend_json(self, capsys):
        payload = run_cli_json(
            capsys, "packetbench", "--backend", "batched", "--json",
            *self.FAST,
        )
        assert payload["kind"] == "packetbench"
        assert payload["backend"] == "batched"
        assert payload["msgs_per_sec"] > 0
        assert payload["round_trips"] > 0
        assert payload["isolated"] is False

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["packetbench", "--backend", "turbo"])


class TestJsonOutput:
    """--json emits the shared ops-plane envelope on every subcommand."""

    def test_threshold_json(self, capsys):
        payload = run_cli_json(
            capsys, "threshold", "--json", "--config", "SWIM", "-c", "2",
            "-d", "14.0", *SMALL,
        )
        assert payload["schema"] == "lifeguard-repro/v1"
        assert payload["kind"] == "threshold-result"
        assert payload["params"]["configuration"] == "SWIM"
        assert payload["params"]["n_members"] == 24
        assert len(payload["anomalous"]) == 2
        assert "50.0" in payload["first_detection"]
        assert isinstance(payload["recovered"], bool)

    def test_interval_json(self, capsys):
        payload = run_cli_json(
            capsys, "interval", "--json", "--config", "SWIM", "-c", "2",
            "-d", "4.0", "-i", "0.001", "-t", "15", *SMALL,
        )
        assert payload["kind"] == "interval-result"
        assert payload["msgs_sent"] > 0
        assert payload["bytes_sent"] > 0
        assert payload["test_time"] >= 15

    def test_stress_json(self, capsys):
        payload = run_cli_json(
            capsys, "stress", "--json", "--config", "Lifeguard",
            "--stressed", "2", "-t", "20", *SMALL,
        )
        assert payload["kind"] == "stress-result"
        assert len(payload["stressed"]) == 2
        assert payload["total_false_positives"] >= 0

    def test_compare_json_covers_all_configurations(self, capsys):
        payload = run_cli_json(
            capsys, "compare", "--json", "-c", "2", "-d", "4.0",
            "-i", "0.002", "-t", "10", *SMALL,
        )
        assert payload["kind"] == "compare-result"
        names = [r["params"]["configuration"] for r in payload["results"]]
        assert names == ["SWIM", "LHA-Probe", "LHA-Suspicion", "Buddy System",
                         "Lifeguard"]


class TestArgumentValidation:
    def test_unknown_config_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["interval", "--config", "Nonsense"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])
