"""Prometheus text exposition format (version 0.0.4), no third-party deps.

Renders a :class:`~repro.ops.registry.MetricsRegistry` into the plain
text format Prometheus scrapes::

    # HELP lifeguard_lhm_score Current Local Health Multiplier score.
    # TYPE lifeguard_lhm_score gauge
    lifeguard_lhm_score{node="node-0"} 2

Histograms render cumulative ``_bucket`` series (with the mandatory
``+Inf`` bucket) plus ``_sum`` and ``_count``, exactly as the format
specification requires.
"""

from __future__ import annotations

from repro.ops.registry import MetricsRegistry

#: Value for the HTTP ``Content-Type`` header on ``/metrics`` responses.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_HELP_ESCAPES = {"\\": "\\\\", "\n": "\\n"}
_LABEL_ESCAPES = {"\\": "\\\\", "\n": "\\n", '"': '\\"'}


def _escape(value: str, table: dict) -> str:
    out = value
    for char, replacement in table.items():
        out = out.replace(char, replacement)
    return out


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float) and value == int(value)):
        return str(int(value))
    return repr(float(value))


def _format_labels(label_pairs) -> str:
    if not label_pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape(str(value), _LABEL_ESCAPES)}"'
        for name, value in label_pairs
    )
    return "{" + inner + "}"


def render_text(registry: MetricsRegistry) -> str:
    """Render every family in ``registry``, reading live sources in place."""
    lines = []
    for metric in registry.collect():
        if metric.help:
            lines.append(f"# HELP {metric.name} {_escape(metric.help, _HELP_ESCAPES)}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for sample_name, label_pairs, value in metric.samples():
            lines.append(
                f"{sample_name}{_format_labels(label_pairs)} {_format_value(value)}"
            )
    return "\n".join(lines) + "\n"
