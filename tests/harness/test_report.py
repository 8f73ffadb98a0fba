"""Edge inputs of the results renderers that no committed results file
exercises (``tests/test_bench_results.py`` pins every committed one)."""

from repro.harness.report import render


class TestTableRenderers:
    def test_table_v_handles_missing_config(self):
        row = {"first": {"50.0": 12.4}, "full": {"50.0": 12.9}}
        lines = render("table5_latency", {"SWIM": row}).splitlines()
        assert [line.split()[0] for line in lines[2:]] == ["SWIM"]
        assert lines[2].split()[1:4] == ["12.40", "n/a", "n/a"]

    def test_table_vii_missing_combo_shows_na(self):
        lines = render("table7_tuning", {"a2b2": {"fp": 50.0}}).splitlines()
        fp = next(line for line in lines if line.startswith("FP "))
        assert fp.split()[1:] == ["50.0"] + ["n/a"] * 8


class TestFigureRenderers:
    def test_figure_2_series(self):
        """Concurrency columns come out in numeric, not string, order."""
        payload = {"SWIM": {"16": 7, "8": 3}, "Lifeguard": {"8": 0}}
        lines = render("fig2_fp_by_concurrency", payload).splitlines()
        assert lines[1].split() == ["Configuration", "C=8", "C=16"]
        assert lines[2].split() == ["SWIM", "3", "7"]
        assert lines[3].split() == ["Lifeguard", "0", "n/a"]
