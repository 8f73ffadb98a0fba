"""SWIM protocol substrate with memberlist's production features.

This package implements the full protocol the paper evaluates on:

* the SWIM failure detector (``ping`` / ``ping-req`` / ``ack`` and, with
  LHA-Probe, ``nack``), with round-robin probe target selection;
* the suspicion subprotocol with incarnation numbers and refutation;
* gossip-based dissemination with MTU-limited piggybacking and
  ``lambda * log(n)`` retransmissions;
* memberlist's additions: a dedicated gossip tick, anti-entropy push/pull
  state sync over a reliable channel, retention of dead members' state,
  and a reliable-channel fallback probe.

The central class is :class:`~repro.swim.node.SwimNode`, which is sans-IO:
it is driven entirely through a clock, a timer scheduler, an RNG and a
transport, so the identical code runs under the discrete-event simulator
(:mod:`repro.sim`) and under asyncio UDP (:mod:`repro.transport.udp`).
"""

from repro.swim.member_map import Member, MemberMap
from repro.swim.messages import (
    Ack,
    Alive,
    Compound,
    Dead,
    Nack,
    Ping,
    PingReq,
    PushPull,
    Suspect,
)
from repro.swim.node import SwimNode
from repro.swim.roster import Roster
from repro.swim.state import MemberState

__all__ = [
    "Ack",
    "Alive",
    "Compound",
    "Dead",
    "Member",
    "MemberMap",
    "MemberState",
    "Nack",
    "Ping",
    "PingReq",
    "PushPull",
    "Roster",
    "Suspect",
    "SwimNode",
]
