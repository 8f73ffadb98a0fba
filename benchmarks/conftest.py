"""Shared infrastructure for the reproduction benchmarks.

Heavy experiment sweeps run once per session in scoped fixtures; each
benchmark aggregates that shared data into a JSON payload, publishes
it and asserts the paper's directional claims. Every published result is

* written to ``benchmarks/results/<name>.json`` and, rendered by
  :func:`repro.harness.report.render`, to ``<name>.txt`` — under
  ``REPRO_FULL=1`` to ``benchmarks/results/full/`` instead, with the
  scale in each file's header, so a full-grid run never overwrites the
  reduced results;
* copied into its marked block in EXPERIMENTS.md, if it has one;
* printed (visible with ``pytest -s``) and echoed in the terminal
  summary at the end of the run, so plain
  ``pytest benchmarks/ --benchmark-only`` output contains the tables.

Scale control (see ``repro.harness.sweep.env_scale``): ``REPRO_FULL=1``
for the paper's complete grids, ``REPRO_WORKERS=<n>`` for process-pool
width, ``REPRO_N`` / ``REPRO_REPS`` / ``REPRO_TEST_TIME`` /
``REPRO_STRESS_TIME`` for finer control.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List

import pytest

from repro.harness import report
from repro.harness.configurations import CONFIGURATION_NAMES
from repro.harness.interval import run_interval
from repro.harness.stress import run_stress
from repro.harness.sweep import (
    TUNING_COMBINATIONS,
    Scale,
    env_scale,
    interval_grid,
    run_many,
    stress_grid,
    threshold_grid,
)
from repro.harness.threshold import run_threshold

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
EXPERIMENTS = REPO_ROOT / "EXPERIMENTS.md"

#: Rendered results accumulated for the terminal summary.
_RENDERED: List[str] = []


def scale_header(scale: Scale) -> str:
    """One line naming the grid a result was measured on."""
    return (
        f"scale: REPRO_FULL={int(scale.full)} reps={scale.reps} "
        f"n={scale.n_members} test_time={scale.min_test_time:g}s"
    )


def publish(name: str, payload: object) -> None:
    """Write ``name``'s payload and its rendered text, refresh its block
    in EXPERIMENTS.md and queue the text for the summary.

    The payload is rendered as read back from JSON, so the text file is
    what the JSON file renders to."""
    scale = env_scale()
    directory = RESULTS_DIR
    if scale.full:
        directory = RESULTS_DIR / "full"
        payload = {"scale": scale_header(scale), "results": payload}
    encoded = json.dumps(payload, indent=2)
    text = report.render(name, json.loads(encoded))
    print("\n" + text)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.json").write_text(encoded)
    path = directory / f"{name}.txt"
    path.write_text(text)
    block = path.relative_to(REPO_ROOT).as_posix()
    EXPERIMENTS.write_text(report.embed(EXPERIMENTS.read_text(), block, text))
    _RENDERED.append(text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RENDERED:
        return
    terminalreporter.section("paper reproduction results")
    for rendered in _RENDERED:
        terminalreporter.write_line(rendered)
        terminalreporter.write_line("")


# --------------------------------------------------------------------- #
# Session-scoped experiment sweeps
# --------------------------------------------------------------------- #

@pytest.fixture(scope="session")
def scale():
    return env_scale()


@pytest.fixture(scope="session")
def interval_data(scale) -> Dict[str, list]:
    """Interval-experiment sweep for all five configurations
    (drives Table IV, Figures 2-3 and Table VI)."""
    results = {}
    for configuration in CONFIGURATION_NAMES:
        grid = interval_grid(configuration, scale)
        results[configuration] = run_many(run_interval, grid, scale.workers)
    return results


@pytest.fixture(scope="session")
def threshold_data(scale) -> Dict[str, list]:
    """Threshold-experiment sweep for all five configurations (Table V)."""
    results = {}
    for configuration in CONFIGURATION_NAMES:
        grid = threshold_grid(configuration, scale)
        results[configuration] = run_many(run_threshold, grid, scale.workers)
    return results


@pytest.fixture(scope="session")
def stress_data(scale) -> Dict[str, list]:
    """CPU-exhaustion sweep for SWIM and full Lifeguard (Figure 1)."""
    counts_env = os.environ.get("REPRO_STRESS_COUNTS", "1,2,4,8,16,32")
    counts = tuple(int(c) for c in counts_env.split(","))
    results = {}
    for configuration in ("SWIM", "Lifeguard"):
        grid = stress_grid(configuration, scale, stressed_counts=counts)
        results[configuration] = run_many(run_stress, grid, scale.workers)
    return results


def _tuning_interval_grid(configuration, scale, alpha, beta):
    return interval_grid(
        configuration, scale, alpha=alpha, beta=beta, concurrency=[16]
    )


@pytest.fixture(scope="session")
def tuning_data(scale, interval_data, threshold_data):
    """Lifeguard under every (alpha, beta) of Table VII, plus the SWIM
    baseline on the matching slices of the shared sweeps.

    The tuning sweep uses the C=16 slice of the Interval grid (Table VII
    normalizes against SWIM on the same experiments, so the baseline is
    the same slice of the shared SWIM sweep).
    """
    def c16(results):
        return [r for r in results if r.params.concurrent == 16]

    data = {
        "baseline": {
            "interval": c16(interval_data["SWIM"]),
            "threshold": threshold_data["SWIM"],
        },
        "tunings": {},
    }
    for alpha, beta in TUNING_COMBINATIONS:
        if (alpha, beta) == (5.0, 6.0):
            # The paper-default tuning IS the shared Lifeguard sweep.
            entry = {
                "interval": c16(interval_data["Lifeguard"]),
                "threshold": threshold_data["Lifeguard"],
            }
        else:
            entry = {
                "interval": run_many(
                    run_interval,
                    _tuning_interval_grid("Lifeguard", scale, alpha, beta),
                    scale.workers,
                ),
                "threshold": run_many(
                    run_threshold,
                    threshold_grid("Lifeguard", scale, alpha=alpha, beta=beta),
                    scale.workers,
                ),
            }
        data["tunings"][(alpha, beta)] = entry
    return data
