"""Anti-entropy state synchronisation (memberlist extensions).

The paper's evaluation substrate, HashiCorp memberlist, layers three
reconciliation mechanisms on top of SWIM's epidemic gossip, and Lifeguard
runs on all of them (PAPER.md / DESIGN.md Section 2):

* **push-pull anti-entropy** — every ``push_pull_interval`` a member
  exchanges its full state table with one random live peer over the
  reliable channel, bounding how long two views can stay divergent even
  if every gossip retransmission was lost;
* **reconnect offers** — a member periodically offers a full sync to one
  written-off (DEAD) member so fully partitioned halves re-discover each
  other once connectivity returns;
* **TCP fallback probes** — a direct-probe timeout fires one
  reliable-channel ping before the indirect ping-req round, so pure UDP
  loss does not start the suspicion subprotocol against a healthy peer.

:class:`repro.sync.engine.SyncEngine` owns the first two. The third is
a stage of the node's probe round
(:meth:`repro.swim.node.SwimNode._probe_timeout`), between the direct
and indirect stages. The precedence rules themselves live in
:meth:`repro.swim.member_map.MemberMap.merge_claim` and are shared
with the gossip handlers, so sync and gossip cannot diverge. This package
is kept ``mypy --strict``-clean (enforced in CI).
"""

from repro.sync.engine import SyncEngine

__all__ = ["SyncEngine"]
