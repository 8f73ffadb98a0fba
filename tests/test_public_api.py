"""The public API surface stays importable and coherent."""

import importlib
import os
import subprocess
import sys

import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.config",
            "repro.runtime",
            "repro.core",
            "repro.core.lhm",
            "repro.core.suspicion",
            "repro.core.buddy",
            "repro.swim",
            "repro.swim.node",
            "repro.swim.codec",
            "repro.swim.broadcast",
            "repro.swim.member_map",
            "repro.swim.roster",
            "repro.swim.messages",
            "repro.swim.events",
            "repro.swim.state",
            "repro.sim",
            "repro.sim.clock",
            "repro.sim.scheduler",
            "repro.sim.network",
            "repro.sim.anomaly",
            "repro.sim.runtime",
            "repro.transport",
            "repro.transport.sim",
            "repro.transport.inmem",
            "repro.transport.udp",
            "repro.metrics",
            "repro.metrics.telemetry",
            "repro.metrics.event_log",
            "repro.metrics.analysis",
            "repro.harness",
            "repro.harness.configurations",
            "repro.harness.threshold",
            "repro.harness.interval",
            "repro.harness.stress",
            "repro.harness.sweep",
            "repro.harness.report",
            "repro.harness.paper_data",
            "repro.baselines",
            "repro.baselines.estimators",
            "repro.baselines.heartbeat",
            "repro.baselines.local_aware",
            "repro.baselines.runtime",
            "repro.metrics.trace",
            "repro.zones",
            "repro.zones.topology",
            "repro.zones.bridge",
            "repro.zones.cluster",
            "repro.zones.sharded",
            "repro.zones.metrics",
            "repro.faults",
            "repro.soak",
            "repro.soak.schedule",
            "repro.soak.launcher",
            "repro.soak.chaos",
            "repro.soak.scraper",
            "repro.soak.report",
            "repro.soak.sim_compare",
            "repro.soak.runner",
            "repro.soak.member_main",
            "repro.cli",
        ],
    )
    def test_module_imports(self, module):
        importlib.import_module(module)

    def test_quickstart_snippet_from_docstring(self):
        """The snippet in the package docstring actually runs."""
        from repro import SimCluster, SwimConfig

        cluster = SimCluster(n_members=8, config=SwimConfig.lifeguard(), seed=1)
        cluster.start()
        cluster.run_for(5.0)
        cluster.anomalies.block_windows(
            ["m000"], start=cluster.now, end=cluster.now + 10.0
        )
        cluster.run_for(15.0)
        # It's a short anomaly in a small cluster: no failure required,
        # but the machinery must run end to end.
        assert cluster.now > 0


_BLOCKED_IMPORT_PROBE = """
import importlib, pkgutil, sys

for name in ("numpy", "networkx"):
    sys.modules[name] = None  # any `import name` now raises ImportError

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":  # importing it runs the CLI
        importlib.import_module(info.name)

from repro.config import SwimConfig
from repro.sim.runtime import SimCluster

try:
    SimCluster(n_members=4, config=SwimConfig.lifeguard()).install_gossip_overlay(2)
except ImportError as exc:
    assert "overlay" in str(exc), exc
else:
    raise AssertionError("overlay installed without networkx")
print("ok")
"""


class TestOptionalDependencies:
    """The package is standard-library only: ``numpy`` is a test-time
    reference and ``networkx`` an extra one method imports lazily."""

    def _run(self, code):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        return subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )

    def test_every_module_imports_with_numpy_and_networkx_blocked(self):
        done = self._run(_BLOCKED_IMPORT_PROBE)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"

    def test_import_repro_loads_no_third_party_module(self):
        done = self._run(
            "import sys, repro; "
            "print([m for m in ('numpy', 'networkx') if m in sys.modules])"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
