"""Every committed results file is what its JSON renders to, and every
results block in EXPERIMENTS.md is its file (ROADMAP aim 3: results
match code)."""

import json
import os
from pathlib import Path

import pytest

from benchmarks import conftest
from repro.harness import report

ROOT = Path(__file__).parent.parent
RESULTS = ROOT / "benchmarks" / "results"
#: Every result, by its path without suffix: a ``.txt`` or ``.json``
#: without its other half fails. (The per-run ledger's ``.jsonl`` rows
#: are inputs, not results.)
RESULT_NAMES = sorted(
    {
        p.relative_to(RESULTS).with_suffix("").as_posix()
        for p in RESULTS.glob("**/*.*")
        if p.suffix in (".json", ".txt")
    }
)


@pytest.mark.parametrize("name", RESULT_NAMES)
def test_text_is_rendered_from_its_json(name):
    payload = json.loads((RESULTS / f"{name}.json").read_text())
    expected = report.render(Path(name).name, payload)
    assert (RESULTS / f"{name}.txt").read_text() == expected


def test_experiments_blocks_are_their_files():
    blocks = report.BLOCK.findall((ROOT / "EXPERIMENTS.md").read_text())
    assert blocks
    for path, text in blocks:
        assert text == (ROOT / path).read_text(), path


def test_a_result_off_the_default_scale_carries_its_scale(tmp_path, monkeypatch):
    results = tmp_path / "benchmarks" / "results"
    (tmp_path / "EXPERIMENTS.md").write_text("")
    monkeypatch.setattr(conftest, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(conftest, "RESULTS_DIR", results)
    monkeypatch.setattr(conftest, "EXPERIMENTS", tmp_path / "EXPERIMENTS.md")
    for key in os.environ:
        if key.startswith("REPRO_"):
            monkeypatch.delenv(key)
    payload = json.loads((RESULTS / "table5_latency.json").read_text())
    text = (RESULTS / "table5_latency.txt").read_text()

    conftest.publish("table5_latency", payload)
    assert json.loads((results / "table5_latency.json").read_text()) == payload
    assert (results / "table5_latency.txt").read_text() == text

    monkeypatch.setenv("REPRO_WORKERS", "7")  # not a scale
    conftest.publish("table5_latency", payload)
    assert json.loads((results / "table5_latency.json").read_text()) == payload

    monkeypatch.setenv("REPRO_TEST_TIME", "30")
    conftest.publish("table5_latency", payload)
    header = "scale: REPRO_FULL=0 reps=1 n=128 test_time=30s"
    assert json.loads((results / "table5_latency.json").read_text()) == {
        "scale": header,
        "results": payload,
    }
    assert (results / "table5_latency.txt").read_text() == f"# {header}\n{text}"


def test_the_ledger_fingerprint_covers_the_code_behind_its_rows():
    files = set(conftest.fingerprinted_files())
    package = ROOT / "src" / "repro"
    for module in (
        "harness/interval.py",
        "harness/threshold.py",
        "harness/configurations.py",
        "metrics/analysis.py",
        "sim/anomaly.py",
        "swim/node.py",
        "core/lhm.py",
    ):
        assert package / module in files, module
    assert set(conftest.GOLDEN_FILES) <= files


def test_the_ledger_fingerprint_moves_with_any_module_or_golden(
    tmp_path, monkeypatch
):
    package = tmp_path / "src" / "repro"
    (package / "metrics").mkdir(parents=True)
    module = package / "metrics" / "analysis.py"
    module.write_text("SCALE = 1\n")
    golden = tmp_path / "golden_traces.json"
    golden.write_text("{}\n")
    monkeypatch.setattr(conftest, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(conftest, "SOURCE_DIR", package)
    monkeypatch.setattr(conftest, "GOLDEN_FILES", (golden,))

    seen = {conftest.code_fingerprint()}
    module.write_text("SCALE = 2\n")
    seen.add(conftest.code_fingerprint())
    golden.write_text('{"a": 1}\n')
    seen.add(conftest.code_fingerprint())
    (package / "sweep.py").write_text("")
    seen.add(conftest.code_fingerprint())
    assert len(seen) == 4
