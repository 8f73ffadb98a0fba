"""What the datagram path put on the wire at the parent of PR 20.

``fixtures/probe_path_parent.json`` was captured at commit ``125886b``,
*before* the encoders were fused, the probe kinds left the decode cache
and a send with nothing to carry stopped building a compound, by running
this module against that tree::

    PYTHONPATH=<parent>/src:. python -m tests.swim.probe_path_vectors \
        tests/swim/fixtures/probe_path_parent.json

``test_probe_path.py`` holds the change to it: one wire vector per wire
tag, the error every truncation of a probe packet raises, and every
packet a seeded 16-member run hands its transports. Re-capture rule:
docs/CHECKING.md, *Tables recorded at a parent commit*.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

from repro.config import SwimConfig
from repro.sim.runtime import SimCluster
from repro.swim import codec
from repro.swim.messages import (
    Ack,
    Alive,
    Compound,
    Dead,
    Message,
    Nack,
    Ping,
    PingReq,
    PushPull,
    Suspect,
    UserEvent,
    ZoneClaim,
    ZoneDigest,
)

#: One message per wire tag, all 13 (a zoneless ``Alive`` is ``T_ALIVE``,
#: a zoned one ``T_ALIVE_Z``), keyed by the tag's name in ``codec``.
MESSAGES: Dict[str, Message] = {
    "T_PING": Ping(0xDEADBEEF, "m007", "mémbre-012"),
    "T_PING_REQ": PingReq(77, "m007", "m012", True),
    "T_ACK": Ack(0xFFFFFFFF, "m007"),
    "T_NACK": Nack(0, "m012"),
    "T_SUSPECT": Suspect(2**64 - 1, "m007", "m012"),
    "T_ALIVE": Alive(3, "m007", "127.0.0.1:7946", b"\x00meta\xff"),
    "T_DEAD": Dead(9, "m007", "m007"),
    "T_PUSH_PULL": PushPull(
        "m012",
        (
            ("m007", "127.0.0.1:7946", 3, 0, b"", 1500),
            ("m008", "127.0.0.1:7947", 4, 1, b"role=db", 0),
        ),
        True,
        False,
    ),
    "T_COMPOUND": Compound(
        (Ping(5, "m007", "m012"), Suspect(3, "m007", "m001"), Ack(6, "m012"))
    ),
    "T_USER_EVENT": UserEvent("m012", 41, b"deploy 7f3a"),
    "T_ALIVE_Z": Alive(3, "m007", "127.0.0.1:7946", b"", "z001"),
    "T_ZONE_DIGEST": ZoneDigest("z001", "m012", 60, 2, 1, 1, 17, 0xFEEDFACECAFEBEEF),
    "T_ZONE_CLAIM": ZoneClaim("z001", "m007", 12, 2),
}

#: The four sequence-numbered kinds the decode cache no longer holds.
PROBE_TAGS = ("T_PING", "T_PING_REQ", "T_ACK", "T_NACK")


def wire_vectors() -> Dict[str, str]:
    return {tag: codec.encode(message).hex() for tag, message in MESSAGES.items()}


def truncation_errors() -> Dict[str, List[str]]:
    """``str(CodecError)`` for every proper prefix of each probe packet,
    shortest first."""
    errors: Dict[str, List[str]] = {}
    for tag in PROBE_TAGS:
        wire = codec.encode(MESSAGES[tag])
        errors[tag] = []
        for cut in range(len(wire)):
            try:
                codec.decode(wire[:cut])
            except codec.CodecError as exc:
                errors[tag].append(str(exc))
            else:  # pragma: no cover - a prefix that decodes is a finding
                errors[tag].append("<decoded>")
    return errors


def recorded_run() -> List[str]:
    """Every packet a 16-member Lifeguard cluster hands its transports,
    in order, as ``"source>destination U|R hex"`` (``R``: reliable; a
    packet too long for the decode cache — a push-pull snapshot — is
    recorded as ``sha256:<first 16 hex digits>/<length>``).

    ``m003`` is blocked from t=0.5 to t=4 (suspicions are raised,
    gossiped, confirmed and refuted, and pings to it carry the Buddy
    System's suspect payload), ``m001`` broadcasts a user event at t=1.5
    (the second queue) and push-pull runs every 3 s — so the run has bare
    sends, piggybacked gossip from both queues, mandatory payloads and
    reliable sends, on both sides of the bare/compound choice."""
    config = SwimConfig.lifeguard(push_pull_interval=3.0)
    cluster = SimCluster(n_members=16, config=config, seed=20)
    packets: List[str] = []
    send = cluster.network.send

    def recording_send(src, dst, payload, reliable=False):
        payload = bytes(payload)
        body = (
            payload.hex() if len(payload) <= 96
            else f"sha256:{hashlib.sha256(payload).hexdigest()[:16]}/{len(payload)}"
        )
        packets.append(f"{src}>{dst} {'R' if reliable else 'U'} {body}")
        send(src, dst, payload, reliable)

    cluster.network.send = recording_send  # type: ignore[method-assign]
    cluster.anomalies.block_window("m003", 0.5, 4.0)
    cluster.start()
    cluster.run_until(1.5)
    cluster.nodes["m001"].broadcast_event(b"deploy 7f3a")
    cluster.run_until(5.5)
    cluster.stop()
    return packets


def capture() -> Dict[str, object]:
    return {
        "wire": wire_vectors(),
        "truncations": truncation_errors(),
        "run": recorded_run(),
    }


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(capture(), indent=0) + "\n")
