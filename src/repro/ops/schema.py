"""The shared JSON payload schema for the ops plane and the CLI.

Both the admin API's structured endpoints (``/info``, ``/members``,
``/suspicions``) and the CLI's ``--json`` experiment output wrap their
payload in the same envelope::

    {"schema": "lifeguard-repro/v1", "kind": "<payload kind>", ...payload}

so downstream tooling can dispatch on ``kind`` and version-check on
``schema`` regardless of whether the data came from a live member or a
simulated experiment run.
"""

from __future__ import annotations

from typing import Dict, List

from repro.swim.state import MemberState

#: Version tag carried in every envelope.
SCHEMA_VERSION = "lifeguard-repro/v1"


def envelope(kind: str, payload: Dict[str, object]) -> Dict[str, object]:
    """Wrap ``payload`` in the shared schema envelope."""
    out: Dict[str, object] = {"schema": SCHEMA_VERSION, "kind": kind}
    out.update(payload)
    return out


def member_records(node) -> List[Dict[str, object]]:
    """This node's membership table as JSON-safe records."""
    return [
        {
            "name": member.name,
            "address": member.address,
            "state": member.state.name.lower(),
            "incarnation": member.incarnation,
            "state_changed_at": member.state_changed_at,
        }
        for member in node.members.members()
    ]


def node_info(node) -> Dict[str, object]:
    """The ``/info`` payload for one node (live or simulated)."""
    members = node.members
    lhm = node.local_health
    config = node.config
    state_counts = {
        state.name.lower(): members.num_in_state(state)
        for state in MemberState
        if members.num_in_state(state)
    }
    telemetry = node.telemetry
    return envelope(
        "node-info",
        {
            "name": node.name,
            "address": members.local.address,
            "incarnation": node.incarnation,
            "running": node.running,
            "now": node.now(),
            "lhm": {
                "score": lhm.score,
                "max": lhm.max_value,
                "multiplier": lhm.multiplier,
                "healthy": lhm.healthy,
                "saturated": lhm.saturated,
            },
            "probe": {
                "base_interval": config.probe_interval,
                "base_timeout": config.probe_timeout,
                "interval": node.current_probe_interval(),
                "timeout": node.current_probe_timeout(),
            },
            "members": {
                "total": len(members),
                "alive": members.num_alive(),
                "by_state": state_counts,
            },
            "suspicions": node.suspicion_count,
            "flags": {
                "lha_probe": config.flags.lha_probe,
                "lha_suspicion": config.flags.lha_suspicion,
                "buddy_system": config.flags.buddy_system,
            },
            "telemetry": {
                "msgs_sent": telemetry.msgs_sent,
                "bytes_sent": telemetry.bytes_sent,
                "msgs_received": telemetry.msgs_received,
                "bytes_received": telemetry.bytes_received,
            },
        },
    )


def members_payload(node) -> Dict[str, object]:
    return envelope(
        "members", {"name": node.name, "members": member_records(node)}
    )


def suspicions_payload(node) -> Dict[str, object]:
    return envelope(
        "suspicions",
        {"name": node.name, "suspicions": node.suspicion_snapshot()},
    )
