"""Committed benchmark result files must be what the committed code
renders (ROADMAP aim 3: results match code)."""

import json
from pathlib import Path

from benchmarks import bench_packet_path, bench_scale

RESULTS = Path(__file__).parent.parent / "benchmarks" / "results"


def test_packet_path_text_is_rendered_from_its_json():
    rows = json.loads((RESULTS / "packet_path.json").read_text())
    assert (RESULTS / "packet_path.txt").read_text() == (
        bench_packet_path.render(rows) + "\n"
    )


def test_scale_throughput_text_is_rendered_from_its_json():
    payload = json.loads((RESULTS / "scale_throughput.json").read_text())
    assert (RESULTS / "scale_throughput.txt").read_text() == (
        bench_scale.render(payload) + "\n"
    )


def test_scale_sharded_text_is_rendered_from_its_json():
    data = json.loads((RESULTS / "scale_sharded.json").read_text())
    assert (RESULTS / "scale_sharded.txt").read_text() == (
        bench_scale.render_sharded(data) + "\n"
    )
