"""Protocol configuration for SWIM and the Lifeguard extensions.

The defaults mirror the values used in the paper's evaluation (Section IV
and V of Dadgar et al., DSN 2018), which in turn mirror HashiCorp's
memberlist defaults:

* ``BaseProbeInterval`` = 1 second, ``BaseProbeTimeout`` = 500 ms.
* Local Health Multiplier saturation ``S`` = 8, so the probe interval and
  timeout back off as high as 9 s and 4.5 s respectively.
* Suspicion timeout ``Min = alpha * log10(n) * ProbeInterval`` and
  ``Max = beta * Min`` with the paper's defaults ``alpha`` = 5 and
  ``beta`` = 6; plain SWIM is equivalent to ``alpha`` = 5, ``beta`` = 1.
* ``K`` = 3 independent suspicions drive the timeout down to ``Min``.

All durations are in (virtual or wall-clock) seconds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.core.lhm import DEFAULT_LHM_MAX
from repro.core.suspicion import (
    DEFAULT_SUSPICION_ALPHA,
    DEFAULT_SUSPICION_BETA,
    DEFAULT_SUSPICION_K,
    SWIM_SUSPICION_BETA,
)

#: Selectable probe-target scheduling strategies (see
#: :mod:`repro.swim.probe_scheduler` and docs/PROBE_SCHEDULING.md). Kept
#: here rather than imported: config must stay import-light, and a test
#: pins this tuple against the scheduler registry's keys.
PROBE_SCHEDULER_NAMES = ("round-robin", "likelihood", "lhm-rtt")

#: Selectable real-network datagram backends (see
#: :mod:`repro.transport.fastudp` and docs/PERFORMANCE.md).
#: ``"asyncio"`` is the stock per-datagram path and the default;
#: ``"batched"`` moves N datagrams per syscall via recvmmsg/sendmmsg
#: (portable fallback where unavailable).
TRANSPORT_BACKEND_NAMES = ("asyncio", "batched")


@dataclass(frozen=True)
class LifeguardFlags:
    """Which Lifeguard components are enabled.

    The paper's five test configurations (Table I) are combinations of
    these three switches; see :mod:`repro.harness.configurations`.
    """

    lha_probe: bool = False
    lha_suspicion: bool = False
    buddy_system: bool = False

    @classmethod
    def swim(cls) -> "LifeguardFlags":
        """Plain SWIM: every Lifeguard component disabled."""
        return cls()

    @classmethod
    def lifeguard(cls) -> "LifeguardFlags":
        """Full Lifeguard: every component enabled."""
        return cls(lha_probe=True, lha_suspicion=True, buddy_system=True)

    @property
    def any_enabled(self) -> bool:
        return self.lha_probe or self.lha_suspicion or self.buddy_system


@dataclass(frozen=True)
class SwimConfig:
    """Tunable parameters of a SWIM / Lifeguard member.

    Instances are immutable; use :meth:`replace` to derive variants.
    """

    # ------------------------------------------------------------------ #
    # Failure detector (Section III-A)
    # ------------------------------------------------------------------ #
    #: Base interval between successive liveness probes (seconds). With
    #: LHA-Probe enabled the effective interval is scaled by ``LHM + 1``.
    probe_interval: float = 1.0
    #: Base timeout for receiving an ``ack`` to a direct probe (seconds).
    probe_timeout: float = 0.5
    #: Number of peers enlisted for an indirect probe (``k`` in the paper).
    indirect_probes: int = 3
    #: Whether to attempt a direct probe over the reliable (TCP) channel
    #: when the direct UDP probe times out, as memberlist does. The
    #: fallback fires *before* the indirect ping-req round (see
    #: ``repro.swim.node.FALLBACK_PROBE_WAIT``); a reliable ack completes
    #: the probe and suppresses the indirect round entirely.
    tcp_fallback_probe: bool = True
    #: Probe-target selection strategy: ``"round-robin"`` (classic SWIM,
    #: the default), ``"likelihood"`` (weights targets by time since last
    #: confirmation, per arXiv:1302.0792) or ``"lhm-rtt"`` (likelihood
    #: weighting biased by observed probe RTT and suspicion state). See
    #: docs/PROBE_SCHEDULING.md.
    probe_scheduler: str = "round-robin"

    # ------------------------------------------------------------------ #
    # Suspicion subprotocol (Sections III-A and IV-B)
    # ------------------------------------------------------------------ #
    #: ``alpha``: multiplier on ``log10(n) * probe_interval`` giving the
    #: minimum suspicion timeout.
    suspicion_alpha: float = DEFAULT_SUSPICION_ALPHA
    #: ``beta``: the maximum suspicion timeout is ``beta`` times the minimum.
    #: Plain SWIM corresponds to ``beta == 1`` (a fixed timeout).
    suspicion_beta: float = DEFAULT_SUSPICION_BETA
    #: ``K``: independent suspicions needed to drive the timeout to its
    #: minimum. Only meaningful when LHA-Suspicion is enabled.
    suspicion_k: int = DEFAULT_SUSPICION_K

    # ------------------------------------------------------------------ #
    # Local Health Aware Probe (Section IV-A)
    # ------------------------------------------------------------------ #
    #: ``S``: saturation limit of the Local Health Multiplier.
    lhm_max: int = DEFAULT_LHM_MAX
    #: Fraction of the probe timeout after which a ``ping-req`` recipient
    #: sends a ``nack`` if it has not yet seen an ``ack`` (80% per the paper).
    nack_timeout_fraction: float = 0.8

    # ------------------------------------------------------------------ #
    # Gossip / dissemination (Section III-B)
    # ------------------------------------------------------------------ #
    #: ``lambda``: retransmission multiplier. Each broadcast is sent
    #: ``lambda * ceil(log10(n + 1))`` times.
    retransmit_mult: int = 4
    #: Master switch for epidemic dissemination: when ``False`` the
    #: dedicated gossip tick never runs and no gossip is piggybacked on
    #: probe traffic, leaving anti-entropy push-pull as the only
    #: state-propagation channel (used to test sync in isolation).
    gossip_enabled: bool = True
    #: Interval of the dedicated gossip tick (memberlist gossips on its own
    #: schedule in addition to piggybacking on probe traffic).
    gossip_interval: float = 0.2
    #: Number of random peers to gossip to on each dedicated gossip tick.
    gossip_fanout: int = 3
    #: How long recently-dead members continue to receive gossip, which
    #: speeds their reintegration after a false positive (seconds).
    gossip_to_dead: float = 30.0
    #: Maximum UDP payload size; piggybacked gossip is limited to the space
    #: remaining under this limit.
    max_packet_size: int = 1400

    # ------------------------------------------------------------------ #
    # Anti-entropy (memberlist push/pull state sync)
    # ------------------------------------------------------------------ #
    #: Interval between full push/pull state syncs over the reliable
    #: channel. ``0`` disables anti-entropy.
    push_pull_interval: float = 30.0
    #: How long dead members are retained in the member table so their
    #: state can be conveyed during push/pull sync and so reconnection
    #: after a long partition remains possible (seconds).
    dead_member_reclaim: float = 600.0
    #: Interval between reconnection attempts to a random dead member
    #: (the serf/Consul behaviour that lets fully written-off partitions
    #: merge once connectivity returns). ``0`` disables reconnection.
    reconnect_interval: float = 30.0

    # ------------------------------------------------------------------ #
    # Reliable channel (real-network transport only; see
    # :mod:`repro.transport.udp`). The simulator models the reliable
    # channel abstractly and ignores these.
    # ------------------------------------------------------------------ #
    #: Maximum idle TCP connections retained per peer. Concurrent sends may
    #: open more; the surplus is closed instead of pooled.
    reliable_pool_size: int = 2
    #: Idle pooled connections older than this are reaped (seconds).
    reliable_idle_timeout: float = 30.0
    #: Per-attempt TCP connect timeout (seconds).
    reliable_connect_timeout: float = 2.0
    #: Connect retries after the first failed attempt (0 disables retry).
    reliable_connect_retries: int = 2
    #: First retry backoff (seconds); doubled per attempt, with jitter.
    reliable_backoff_base: float = 0.05
    #: Ceiling on the per-attempt backoff (seconds).
    reliable_backoff_max: float = 1.0
    #: Window over which reliable-send failures to distinct peers are
    #: correlated into a local-health signal (seconds).
    reliable_failure_window: float = 30.0
    #: Distinct peers whose reliable sends must fail within the window
    #: before the node counts one LHM event (>=2 avoids blaming ourselves
    #: for a single dead peer).
    reliable_failure_peer_threshold: int = 2
    #: Datagram backend for the real-network transport: one of
    #: :data:`TRANSPORT_BACKEND_NAMES`. The default ``"asyncio"``
    #: preserves the historical per-datagram behaviour exactly.
    transport_backend: str = "asyncio"
    #: Max datagrams moved per ``recvmmsg``/``sendmmsg`` syscall on the
    #: ``"batched"`` backend (also sizes its preallocated slot arrays).
    #: Ignored by the other backends.
    transport_batch_size: int = 32

    # ------------------------------------------------------------------ #
    # Ops / admin plane (real-network members only; see :mod:`repro.ops`).
    # The simulator exposes the same metrics registry directly, without
    # the HTTP server.
    # ------------------------------------------------------------------ #
    #: TCP port for the admin HTTP API (``/metrics``, ``/health``, ...).
    #: ``None`` disables the admin server; ``0`` binds an ephemeral port.
    admin_port: Optional[int] = None
    #: Interface the admin server binds to. Loopback by default — the
    #: admin API is unauthenticated, so exposing it wider is a deliberate
    #: deployment decision.
    admin_host: str = "127.0.0.1"
    #: ``/health`` reports degraded (HTTP 503) while the Local Health
    #: Multiplier score exceeds this value: an overloaded member keeps
    #: liveness but sheds readiness.
    admin_degraded_lhm: int = 2

    # ------------------------------------------------------------------ #
    # Hierarchical zones (see :mod:`repro.zones` and docs/ZONES.md).
    # Flat clusters keep every default: ``zone == ""`` means "no zone"
    # and leaves the wire format and all seeded traces untouched.
    # ------------------------------------------------------------------ #
    #: Name of the zone this member belongs to (``""`` = flat cluster).
    zone: str = ""
    #: Total number of zones in the deployment (``0`` = flat cluster).
    #: Informational on a member; drives topology construction in
    #: :class:`repro.zones.ZonedCluster`.
    zone_count: int = 0
    #: How many members per zone run the cross-zone bridge layer.
    bridges_per_zone: int = 1
    #: Interval between cross-zone digest rounds (seconds). Under the
    #: sharded simulation driver this is also the epoch length, i.e. the
    #: fixed cross-zone latency floor.
    cross_zone_interval: float = 1.0

    # ------------------------------------------------------------------ #
    # Lifeguard component switches
    # ------------------------------------------------------------------ #
    flags: LifeguardFlags = dataclasses.field(default_factory=LifeguardFlags)

    def __post_init__(self) -> None:
        if self.probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        if self.probe_timeout <= 0:
            raise ValueError("probe_timeout must be positive")
        if self.probe_timeout > self.probe_interval:
            raise ValueError("probe_timeout must not exceed probe_interval")
        if self.indirect_probes < 0:
            raise ValueError("indirect_probes must be non-negative")
        if self.suspicion_alpha <= 0:
            raise ValueError("suspicion_alpha must be positive")
        if self.suspicion_beta < 1:
            raise ValueError("suspicion_beta must be >= 1")
        if self.suspicion_k < 0:
            raise ValueError("suspicion_k must be non-negative")
        if self.lhm_max < 0:
            raise ValueError("lhm_max must be non-negative")
        if not 0.0 < self.nack_timeout_fraction < 1.0:
            raise ValueError("nack_timeout_fraction must be in (0, 1)")
        if self.probe_scheduler not in PROBE_SCHEDULER_NAMES:
            known = ", ".join(PROBE_SCHEDULER_NAMES)
            raise ValueError(
                f"probe_scheduler must be one of: {known}"
            )
        if self.retransmit_mult < 1:
            raise ValueError("retransmit_mult must be >= 1")
        if self.gossip_interval <= 0:
            raise ValueError("gossip_interval must be positive")
        if self.gossip_fanout < 1:
            raise ValueError("gossip_fanout must be >= 1")
        if self.max_packet_size < 128:
            raise ValueError("max_packet_size must be >= 128 bytes")
        if self.reliable_pool_size < 1:
            raise ValueError("reliable_pool_size must be >= 1")
        if self.reliable_idle_timeout <= 0:
            raise ValueError("reliable_idle_timeout must be positive")
        if self.reliable_connect_timeout <= 0:
            raise ValueError("reliable_connect_timeout must be positive")
        if self.reliable_connect_retries < 0:
            raise ValueError("reliable_connect_retries must be non-negative")
        if self.reliable_backoff_base <= 0:
            raise ValueError("reliable_backoff_base must be positive")
        if self.reliable_backoff_max < self.reliable_backoff_base:
            raise ValueError(
                "reliable_backoff_max must be >= reliable_backoff_base"
            )
        if self.reliable_failure_window <= 0:
            raise ValueError("reliable_failure_window must be positive")
        if self.reliable_failure_peer_threshold < 1:
            raise ValueError("reliable_failure_peer_threshold must be >= 1")
        if self.transport_backend not in TRANSPORT_BACKEND_NAMES:
            known = ", ".join(TRANSPORT_BACKEND_NAMES)
            raise ValueError(
                f"transport_backend must be one of: {known}"
            )
        if not 1 <= self.transport_batch_size <= 1024:
            raise ValueError("transport_batch_size must be in [1, 1024]")
        if self.admin_port is not None and not 0 <= self.admin_port <= 65535:
            raise ValueError("admin_port must be in [0, 65535]")
        if not self.admin_host:
            raise ValueError("admin_host must be non-empty")
        if self.admin_degraded_lhm < 0:
            raise ValueError("admin_degraded_lhm must be non-negative")
        if len(self.zone.encode("utf-8")) > 255:
            raise ValueError("zone must encode to <= 255 bytes")
        if self.zone_count < 0:
            raise ValueError("zone_count must be non-negative")
        if self.bridges_per_zone < 1:
            raise ValueError("bridges_per_zone must be >= 1")
        if self.cross_zone_interval <= 0:
            raise ValueError("cross_zone_interval must be positive")

    def replace(self, **changes: object) -> "SwimConfig":
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    # Convenience constructors ------------------------------------------------

    @classmethod
    def swim_baseline(cls, **overrides: object) -> "SwimConfig":
        """The paper's ``SWIM`` baseline: fixed suspicion timeout with
        ``alpha`` = 5, ``beta`` = 1 and no Lifeguard components."""
        params: dict = dict(
            suspicion_alpha=DEFAULT_SUSPICION_ALPHA,
            suspicion_beta=SWIM_SUSPICION_BETA,
            flags=LifeguardFlags.swim(),
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def lifeguard(
        cls,
        alpha: float = DEFAULT_SUSPICION_ALPHA,
        beta: float = DEFAULT_SUSPICION_BETA,
        **overrides: object,
    ) -> "SwimConfig":
        """Full Lifeguard with the given suspicion timeout tuning."""
        params: dict = dict(
            suspicion_alpha=alpha,
            suspicion_beta=beta,
            flags=LifeguardFlags.lifeguard(),
        )
        params.update(overrides)
        return cls(**params)
