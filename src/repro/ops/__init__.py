"""Live operations plane: metrics, exposition, admin API, event streaming.

The paper's evaluation substrate is Consul/memberlist operated as a real
service — the Figure 1 flapping incident was diagnosed from live agent
telemetry and per-agent DEBUG logs. This package gives the reproduction
the same operational surface:

* :mod:`repro.ops.registry` — a dependency-free metrics registry
  (labelled counters, gauges, fixed-bucket histograms) plus
  :class:`~repro.ops.registry.NodeCollector`, which attaches a
  :class:`~repro.swim.node.SwimNode` and its
  :class:`~repro.metrics.telemetry.Telemetry` to the families as
  sources read in place at scrape time.
* :mod:`repro.ops.exposition` — Prometheus text-format rendering.
* :mod:`repro.ops.http` — a minimal asyncio HTTP/1.1 admin server
  (``/metrics``, ``/members``, ``/suspicions``, ``/info``, ``/health``,
  ``/events``).
* :mod:`repro.ops.events` — a bounded ring buffer of membership events
  with monotonically increasing sequence numbers, streamable as JSON
  lines and resumable via ``/events?since=<seq>``.
* :mod:`repro.ops.schema` — the shared payload schema used by both the
  admin API and the CLI's ``--json`` output.

The registry works against *any* node, simulated or real: the sim
runtime installs it via
:meth:`SimCluster.install_ops_registry <repro.sim.runtime.SimCluster.install_ops_registry>`
(so experiments can assert on the same metric names an operator would
scrape), and :class:`~repro.transport.udp.UdpMember` serves it over HTTP
when ``admin_port`` is set on :class:`~repro.config.SwimConfig`.
"""

from repro.ops.events import EventStream
from repro.ops.exposition import CONTENT_TYPE, render_text
from repro.ops.http import AdminServer
from repro.ops.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NodeCollector,
)
from repro.ops.schema import SCHEMA_VERSION, envelope

__all__ = [
    "AdminServer",
    "CONTENT_TYPE",
    "Counter",
    "EventStream",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NodeCollector",
    "SCHEMA_VERSION",
    "envelope",
    "render_text",
]
