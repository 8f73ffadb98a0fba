"""Experiment harness reproducing the paper's evaluation (Section V).

* :mod:`repro.harness.configurations` — the five test configurations of
  Table I.
* :mod:`repro.harness.threshold` — the Threshold experiment (V-D1):
  one synchronized set of anomalies, measuring detection/dissemination
  latency (Table V).
* :mod:`repro.harness.interval` — the Interval experiment (V-D2): cyclic
  anomalies, measuring false positives (Table IV, Figures 2-3) and
  message load (Table VI).
* :mod:`repro.harness.stress` — the CPU-exhaustion scenario (Figure 1).
* :mod:`repro.harness.schedulers` — probe-scheduling strategy comparison
  (detection latency and false positives per strategy; see
  docs/PROBE_SCHEDULING.md).
* :mod:`repro.harness.sweep` — parameter-sweep driver with optional
  multiprocess fan-out, plus the reduced/full grids.
* :mod:`repro.harness.paper_data` — the numbers printed in the paper,
  for side-by-side comparison; the only copy of them in the repository.
* :mod:`repro.harness.report` — one renderer per results file: each
  ``benchmarks/results/<name>.txt`` is ``render(name, payload)`` of its
  ``.json``, and EXPERIMENTS.md embeds those texts verbatim.
"""

from repro.harness.configurations import CONFIGURATION_NAMES, make_config
from repro.harness.interval import IntervalParams, IntervalResult, run_interval
from repro.harness.schedulers import (
    SchedulerComparisonParams,
    SchedulerComparisonResult,
    run_scheduler_comparison,
)
from repro.harness.stress import StressParams, StressResult, run_stress
from repro.harness.threshold import ThresholdParams, ThresholdResult, run_threshold

__all__ = [
    "CONFIGURATION_NAMES",
    "IntervalParams",
    "IntervalResult",
    "SchedulerComparisonParams",
    "SchedulerComparisonResult",
    "StressParams",
    "StressResult",
    "ThresholdParams",
    "ThresholdResult",
    "make_config",
    "run_interval",
    "run_scheduler_comparison",
    "run_stress",
    "run_threshold",
]
