"""Fault scenarios: a serializable spec and a seeded generator.

A scenario is a small cluster plus a timed schedule of
:class:`~repro.faults.FaultEntry` faults drawn from the failure modes
the paper studies (Section V): process freezes (``block``),
oversubscribed CPU (``cpu_stress``), network partitions, symmetric and
asymmetric packet loss, crash/restart flapping, graceful departure and
mid-run joins. The schedule is plain data — it round-trips through JSON,
which is what makes counterexamples replayable and shrinkable
(:mod:`repro.check.runner`).

Determinism contract: ``generate_scenario(seed, params)`` is a pure
function of its arguments, and replaying a :class:`ScenarioSpec` drives
the simulation with RNG streams derived only from ``spec.seed`` — the
same spec always produces the same run, violation for violation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from random import Random
from typing import List, Optional, Sequence, Tuple

from repro.config import PROBE_SCHEDULER_NAMES
from repro.faults import FAULT_KINDS, FaultEntry
from repro.sim.runtime import default_member_names

SCENARIO_SCHEMA = "repro-check-scenario/v1"

#: Fault kinds the zoned runner supports. Zone-local faults plus the
#: zone-level partition; ``partition``/``link_loss`` address the flat
#: network fabric and ``join`` the flat namespace, so zoned scenarios
#: exclude them.
ZONED_FAULT_KINDS = frozenset(
    {"block", "loss", "flap", "crash", "leave", "zone_partition"}
)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, replayable experiment definition."""

    seed: int
    n_members: int
    configuration: str = "Lifeguard"
    alpha: float = 5.0
    beta: float = 6.0
    horizon: float = 40.0
    settle: float = 150.0
    loss_rate: float = 0.0
    faults: Tuple[FaultEntry, ...] = ()
    #: Whether push-pull anti-entropy (and the reconnect offers built on
    #: it) runs during the scenario. Sweeps exercise both regimes: with
    #: sync off, convergence rests on gossip alone, which is exactly the
    #: coverage the pre-sync fuzzer provided.
    sync: bool = True
    #: Probe-target scheduling strategy every member runs (see
    #: :mod:`repro.swim.probe_scheduler`). The invariant oracles are
    #: strategy-agnostic and must hold for every value.
    scheduler: str = "round-robin"
    #: Zone count for hierarchical scenarios (0 = flat). Zoned specs run
    #: on a :class:`~repro.zones.cluster.ZonedCluster`: member names come
    #: from the zone layout and only :data:`ZONED_FAULT_KINDS` apply.
    zones: int = 0

    def validate(self) -> None:
        if self.n_members < 2:
            raise ValueError("need at least 2 members")
        if self.scheduler not in PROBE_SCHEDULER_NAMES:
            raise ValueError(f"unknown probe scheduler {self.scheduler!r}")
        if self.horizon <= 0 or self.settle < 0:
            raise ValueError("horizon must be > 0 and settle >= 0")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("ambient loss_rate must be in [0, 1)")
        if self.zones < 0:
            raise ValueError("zones must be >= 0")
        zone_names: set = set()
        if self.zones:
            if self.n_members < 2 * self.zones:
                raise ValueError(
                    "zoned scenarios need n_members >= 2 * zones"
                )
            from repro.zones.topology import build_layout

            layout = build_layout(self.n_members, self.zones)
            base = set(layout.roster())
            zone_names = {zone.name for zone in layout.zones}
        else:
            base = set(default_member_names(self.n_members))
        joined: set = set()
        for entry in self.faults:
            entry.validate()
            if entry.end > self.horizon + 1e-9:
                raise ValueError(
                    f"fault {entry.kind}@{entry.start} ends after the horizon"
                )
            if self.zones and entry.kind not in ZONED_FAULT_KINDS:
                raise ValueError(
                    f"fault kind {entry.kind!r} is not supported in zoned "
                    "scenarios"
                )
            if entry.kind == "zone_partition":
                if not self.zones:
                    raise ValueError("zone_partition needs a zoned scenario")
                unknown = set(entry.members) - zone_names
                if unknown:
                    raise ValueError(
                        f"zone_partition references unknown zones {sorted(unknown)}"
                    )
                if not 0 < len(entry.members) < self.zones:
                    raise ValueError(
                        "zone_partition must isolate a strict, non-empty "
                        "subset of the zones"
                    )
                continue
            if entry.kind == "join":
                joined.update(entry.members)
                continue
            known = base | joined
            for name in entry.members:
                if name not in known:
                    raise ValueError(
                        f"fault {entry.kind}@{entry.start} references unknown "
                        f"member {name!r}"
                    )

    @property
    def total_time(self) -> float:
        return self.horizon + self.settle

    def as_dict(self) -> dict:
        out = {
            "schema": SCENARIO_SCHEMA,
            "seed": self.seed,
            "n_members": self.n_members,
            "configuration": self.configuration,
            "alpha": self.alpha,
            "beta": self.beta,
            "horizon": self.horizon,
            "settle": self.settle,
            "loss_rate": self.loss_rate,
            "sync": self.sync,
            "scheduler": self.scheduler,
            "faults": [entry.as_dict() for entry in self.faults],
        }
        # Omitted when flat so historical artifacts and fuzz-trace goldens
        # (which hash this dict) stay byte-identical.
        if self.zones:
            out["zones"] = self.zones
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        schema = data.get("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise ValueError(f"unsupported scenario schema {schema!r}")
        spec = cls(
            seed=int(data["seed"]),
            n_members=int(data["n_members"]),
            configuration=data.get("configuration", "Lifeguard"),
            alpha=float(data.get("alpha", 5.0)),
            beta=float(data.get("beta", 6.0)),
            horizon=float(data.get("horizon", 40.0)),
            settle=float(data.get("settle", 150.0)),
            loss_rate=float(data.get("loss_rate", 0.0)),
            sync=bool(data.get("sync", True)),
            scheduler=data.get("scheduler", "round-robin"),
            zones=int(data.get("zones", 0)),
            faults=tuple(
                FaultEntry.from_dict(entry) for entry in data.get("faults", ())
            ),
        )
        spec.validate()
        return spec

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs and weights for the random scenario generator."""

    min_members: int = 5
    max_members: int = 10
    min_faults: int = 1
    max_faults: int = 5
    horizon: float = 40.0
    settle: float = 150.0
    configurations: Tuple[str, ...] = (
        "Lifeguard",
        "SWIM",
        "LHA-Probe",
        "LHA-Suspicion",
        "Buddy System",
    )
    #: Relative likelihood of each fault kind.
    weights: Tuple[Tuple[str, float], ...] = (
        ("block", 3.0),
        ("cpu_stress", 1.5),
        ("partition", 1.5),
        ("loss", 1.0),
        ("link_loss", 1.5),
        ("flap", 1.5),
        ("crash", 1.0),
        ("leave", 1.0),
        ("join", 1.0),
        # Meaningless in flat scenarios; zero weight keeps flat draws
        # byte-identical (zero-weight kinds never consume RNG). The zoned
        # path substitutes a positive default when left at zero.
        ("zone_partition", 0.0),
    )
    max_window: float = 20.0
    max_loss_rate: float = 0.5
    #: Fraction of generated scenarios that disable push-pull sync, so
    #: sweeps keep covering the gossip-only convergence path.
    sync_off_fraction: float = 0.25
    #: At most this fraction of the initial group may crash/flap/leave
    #: (keeps a stable core so convergence remains well-defined).
    max_churn_fraction: float = 0.34
    #: Probe-scheduling strategies the sweep may assign (uniformly). The
    #: single-entry default keeps historical seeds byte-identical; pass
    #: several (or one non-default) to fuzz the other strategies.
    schedulers: Tuple[str, ...] = ("round-robin",)
    #: Zone counts the sweep may assign (uniformly); ``0`` means flat.
    #: The single-entry default consumes no RNG, preserving historical
    #: seeds. Pass e.g. ``(4,)`` for all-zoned sweeps or ``(0, 4)`` to
    #: mix flat and zoned scenarios.
    zone_counts: Tuple[int, ...] = (0,)

    def validate(self) -> None:
        if not 2 <= self.min_members <= self.max_members:
            raise ValueError("need 2 <= min_members <= max_members")
        if not 0 <= self.min_faults <= self.max_faults:
            raise ValueError("need 0 <= min_faults <= max_faults")
        if not self.configurations:
            raise ValueError("need at least one configuration")
        if any(kind not in FAULT_KINDS for kind, _ in self.weights):
            raise ValueError("weights reference an unknown fault kind")
        if all(weight <= 0 for _, weight in self.weights):
            raise ValueError("need at least one positive weight")
        if not 0.0 <= self.sync_off_fraction <= 1.0:
            raise ValueError("sync_off_fraction must be in [0, 1]")
        if not self.schedulers:
            raise ValueError("need at least one probe scheduler")
        for name in self.schedulers:
            if name not in PROBE_SCHEDULER_NAMES:
                raise ValueError(f"unknown probe scheduler {name!r}")
        if not self.zone_counts:
            raise ValueError("need at least one zone count")
        for count in self.zone_counts:
            if count != 0 and count < 2:
                raise ValueError("zone counts must be 0 (flat) or >= 2")


def _weighted_choice(rng: Random, weights: Sequence[Tuple[str, float]]) -> str:
    total = sum(w for _, w in weights if w > 0)
    mark = rng.uniform(0, total)
    acc = 0.0
    for kind, weight in weights:
        if weight <= 0:
            continue
        acc += weight
        if mark <= acc:
            return kind
    return weights[-1][0]


def generate_scenario(
    seed: int, params: Optional[GeneratorParams] = None
) -> ScenarioSpec:
    """Deterministically derive a scenario from ``seed``.

    A zoned scenario draws its members from a zone layout, restricts
    faults to :data:`ZONED_FAULT_KINDS`, and may cut whole zones off
    with ``zone_partition`` windows; otherwise both kinds draw alike.
    """
    params = params or GeneratorParams()
    params.validate()
    # Decorrelate the schedule stream from the simulation streams (which
    # also derive from `seed`) so nearby seeds explore different schedules.
    rng = Random((seed * 0x9E3779B1 + 0x7F4A7C15) & 0xFFFFFFFF)
    # Drawn first, but the single-entry default consumes no RNG — flat
    # sweeps (and every historical seed) are byte-for-byte unchanged.
    if len(params.zone_counts) == 1:
        zones = params.zone_counts[0]
    else:
        zones = params.zone_counts[rng.randrange(len(params.zone_counts))]
    lo = max(params.min_members, 2 * zones)
    n = rng.randint(lo, max(params.max_members, lo))
    if zones:
        from repro.zones.topology import build_layout

        layout = build_layout(n, zones)
        names = list(layout.roster())
        zone_names = [zone.name for zone in layout.zones]
        weights = [
            (kind, weight)
            for kind, weight in params.weights
            if kind in ZONED_FAULT_KINDS and weight > 0
        ]
        if not any(kind == "zone_partition" for kind, _ in weights):
            weights.append(("zone_partition", 1.5))
        # Each zone's first member doubles as its first bridge and its
        # rejoin anchor: keeping it out of churn guarantees every zone
        # retains a live claim forwarder, which is what makes cross-zone
        # convergence a checkable obligation rather than a best-effort hope.
        anchors = {zone.members[0] for zone in layout.zones}
    else:
        names = default_member_names(n)
        weights = list(params.weights)
        # names[0] is the join anchor and is never churned.
        anchors = {names[0]}
    configuration = params.configurations[
        rng.randrange(len(params.configurations))
    ]
    horizon = params.horizon

    churn_budget = max(1, int(n * params.max_churn_fraction))
    churned: set = set()
    joins = 0
    faults: List[FaultEntry] = []
    n_faults = rng.randint(params.min_faults, params.max_faults)
    for _ in range(n_faults):
        kind = _weighted_choice(rng, weights)
        if kind in ("crash", "flap", "leave") and len(churned) >= churn_budget:
            kind = "block"
        start = round(rng.uniform(0.5, horizon * 0.75), 3)
        window = round(rng.uniform(1.5, min(params.max_window, horizon - start)), 3)
        if kind == "block":
            count = rng.randint(1, max(1, min(3, n - 2)))
            members = tuple(rng.sample(names, count))
            faults.append(FaultEntry("block", start, window, members))
        elif kind == "cpu_stress":
            member = names[rng.randrange(n)]
            faults.append(FaultEntry("cpu_stress", start, window, (member,)))
        elif kind == "partition":
            count = rng.randint(1, max(1, n // 2))
            members = tuple(rng.sample(names, count))
            faults.append(FaultEntry("partition", start, window, members))
        elif kind == "loss":
            rate = round(rng.uniform(0.15, params.max_loss_rate), 3)
            faults.append(FaultEntry("loss", start, window, (), rate))
        elif kind == "link_loss":
            src, dst = rng.sample(names, 2)
            rate = round(rng.uniform(0.5, 1.0), 3)
            faults.append(FaultEntry("link_loss", start, window, (src, dst), rate))
        elif kind == "zone_partition" and zones:
            # A flat arm has no zones to cut: a drawn zone_partition adds
            # nothing there.
            count = rng.randint(1, max(1, zones // 2))
            isolated = tuple(rng.sample(zone_names, count))
            faults.append(FaultEntry("zone_partition", start, window, isolated))
        elif kind in ("flap", "crash", "leave"):
            candidates = [
                m for m in names if m not in anchors and m not in churned
            ]
            if not candidates:
                continue
            member = candidates[rng.randrange(len(candidates))]
            churned.add(member)
            if kind == "flap":
                outage = round(rng.uniform(2.0, min(15.0, horizon - start)), 3)
                faults.append(FaultEntry("flap", start, outage, (member,)))
            else:
                faults.append(FaultEntry(kind, start, 0.0, (member,)))
        elif kind == "join":
            member = f"j{joins:02d}"
            joins += 1
            faults.append(FaultEntry("join", start, 0.0, (member,)))
    faults.sort(key=lambda entry: (entry.start, entry.kind, entry.members))
    # Drawn last so adding this knob left every pre-existing seed's fault
    # schedule byte-for-byte unchanged.
    sync = rng.random() >= params.sync_off_fraction
    # Same discipline as `sync`, one knob later: with the single-entry
    # default no RNG is consumed, so historical seeds stay untouched.
    if len(params.schedulers) == 1:
        scheduler = params.schedulers[0]
    else:
        scheduler = params.schedulers[rng.randrange(len(params.schedulers))]

    spec = ScenarioSpec(
        seed=seed,
        n_members=n,
        configuration=configuration,
        horizon=horizon,
        settle=params.settle,
        faults=tuple(faults),
        sync=sync,
        scheduler=scheduler,
        zones=zones,
    )
    spec.validate()
    return spec


def shrink_candidates(spec: ScenarioSpec) -> List[ScenarioSpec]:
    """Smaller variants of ``spec``, most aggressive first.

    Used by the runner's shrinker: each candidate drops a fault, halves a
    window or trims the group. Every candidate is a valid spec with the
    *same seed*, so re-running it is deterministic.
    """
    out: List[ScenarioSpec] = []
    faults = spec.faults
    # Drop each fault.
    for index in range(len(faults)):
        out.append(
            replace(spec, faults=faults[:index] + faults[index + 1:])
        )
    # Halve each meaningfully long duration.
    for index, entry in enumerate(faults):
        if entry.duration >= 3.0:
            shorter = replace(entry, duration=round(entry.duration / 2, 3))
            out.append(
                replace(
                    spec,
                    faults=faults[:index] + (shorter,) + faults[index + 1:],
                )
            )
    # Trim members not referenced by any fault (always keep >= 2, plus the
    # join anchor m000 slot).
    referenced = 1
    for entry in faults:
        for name in entry.members:
            if name.startswith("m"):
                try:
                    referenced = max(referenced, int(name[1:]) + 1)
                except ValueError:
                    referenced = spec.n_members
    needed = max(2, referenced)
    if needed < spec.n_members:
        out.append(replace(spec, n_members=needed))
        # Also try a one-step trim in case the full cut no longer fails.
        if spec.n_members - 1 > needed:
            out.append(replace(spec, n_members=spec.n_members - 1))
    valid: List[ScenarioSpec] = []
    for candidate in out:
        try:
            candidate.validate()
        except ValueError:
            continue
        valid.append(candidate)
    return valid
