"""Every committed results file is what its JSON renders to, and every
results block in EXPERIMENTS.md is its file (ROADMAP aim 3: results
match code)."""

import json
from pathlib import Path

import pytest

from repro.harness import report

ROOT = Path(__file__).parent.parent
RESULTS = ROOT / "benchmarks" / "results"
#: Every result, by its path without suffix: a ``.txt`` or ``.json``
#: without its other half fails.
RESULT_NAMES = sorted(
    {p.relative_to(RESULTS).with_suffix("").as_posix() for p in RESULTS.glob("**/*.*")}
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
