"""Frozen, content-addressed experiment specifications.

An :class:`ExperimentSpec` pins **every** input that determines a
cycle-accurate simulation's outcome: the topology (a catalog symbol, a
node-count request, or a structural fingerprint of an ad-hoc
:class:`~repro.topos.base.Topology`), the traffic source, the packet
size, the full :class:`~repro.sim.SimConfig`, the routing scheme, the
RNG seed, and the warmup/measure/drain windows.

The traffic source is a tagged union of five kinds:
:class:`SyntheticTraffic` (a pattern acronym plus an offered load,
Figures 10-14/19), its non-stationary variants :class:`BurstTraffic`,
:class:`HotspotTraffic` and :class:`TransientTraffic` (Figure 20), and
:class:`WorkloadTraffic` (a PARSEC/SPLASH benchmark model, Figure 18 /
Table 6).  The kinds share one codec: a source serializes as its
``kind`` followed by its dataclass fields, and
:func:`traffic_from_dict` reads any kind back by that tag, so a new
kind declares its fields and nothing else.  The codec also holds the
one load check: ``load``, ``off_load`` and ``intensity_scale`` must be
finite and non-negative, so a NaN or negative load fails where the spec
is built or decoded, never in a worker or the store.  Workload specs
hash the *full* parameter set of the benchmark's
:class:`~repro.traffic.workloads.WorkloadSpec` — retuning a benchmark
in :data:`~repro.traffic.workloads.WORKLOADS` invalidates its cache
entries, exactly like editing a synthetic pattern's code would require
a :data:`SPEC_VERSION` bump.

Because the simulator is deterministic given these inputs, the spec's
:meth:`~ExperimentSpec.content_hash` is a *content address* for its
result: two specs with equal hashes produce byte-identical serialized
results, which is what makes the on-disk cache
(:mod:`repro.engine.store`) and the process-pool runner
(:mod:`repro.engine.runner`) safe.

Specs round-trip through JSON (:meth:`~ExperimentSpec.to_dict` /
:meth:`~ExperimentSpec.from_dict`) so they can cross process boundaries
and be stored next to their results for auditability.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import ClassVar, Iterable, Iterator, Union

from ..routing import (
    DeflectionRouting,
    DimensionOrderRouting,
    RoutingAlgorithm,
    StaticMinimalRouting,
    UGALRouting,
    ValiantRouting,
    XYAdaptiveRouting,
    default_routing,
)
from ..sim import NoCSimulator, SimConfig, SimResult
from ..topos.base import Topology, topology_fingerprint
from ..traffic import (
    WORKLOADS,
    BurstSource,
    HotspotSource,
    SyntheticSource,
    TransientSource,
    WorkloadSource,
    WorkloadSpec,
)

#: Bump when the *meaning* of a spec changes (e.g. a simulator fix that
#: alters results for identical inputs) so stale cache entries miss.
#: Version 2: ``SimConfig`` grew the ``fast_forward`` knob (results are
#: unchanged, but the serialized config — and thus every hash — moved).
#: Version 3: the traffic source became a tagged union (``source``
#: replaces the top-level ``pattern``/``load`` fields) so trace-driven
#: ``WorkloadSource`` experiments flow through the engine; synthetic
#: results are unchanged, but every serialized spec — and hash — moved.
#: Version 4: non-stationary traffic kinds (burst/hotspot/transient) and
#: the adaptive routing names (``deflect``, ``xy-adapt``) joined the
#: union.  Serialization is *minimum-required-version*: a spec writes
#: the oldest version that can express it (see
#: :meth:`ExperimentSpec.min_spec_version`), so every version-3-shaped
#: spec keeps its exact version-3 hash and cache entry — pinned by
#: ``tests/golden/spec_hashes.json``.
SPEC_VERSION = 4

#: The last spec version before the version-4 additions; specs using
#: only pre-4 features serialize as this version so their hashes and
#: cache entries survive the bump.
_LEGACY_SPEC_VERSION = 3

#: Spec versions the current code still *writes* (and therefore still
#: looks up): minimum-required-version serialization keeps version-3
#: entries reachable, so ``cache gc``/``stats`` must not count them as
#: reclaimable (see :func:`~repro.engine.store.base.entry_is_unreachable`).
LIVE_SPEC_VERSIONS = frozenset({_LEGACY_SPEC_VERSION, SPEC_VERSION})

#: Routing names that already existed at version 3.  A spec naming any
#: other routing needs version 4.
LEGACY_ROUTINGS = frozenset(
    {"default", "minimal", "dor", "valiant", "ugal-l", "ugal-g"}
)

#: Topology tokens carrying a structural fingerprint instead of a catalog
#: symbol.  Fingerprinted topologies cannot be rebuilt from the token
#: alone — the runner ships the live object to workers (see
#: :func:`repro.engine.runner.ExperimentEngine.run`).
FINGERPRINT_PREFIX = "fp:"

#: Routing schemes a worker process can rebuild by name.
ROUTING_BUILDERS = {
    "default": lambda topo: default_routing(topo),
    "minimal": lambda topo: StaticMinimalRouting(topo, num_vcs=max(2, topo.diameter)),
    "dor": lambda topo: DimensionOrderRouting(topo),
    "valiant": lambda topo: ValiantRouting(topo),
    "ugal-l": lambda topo: UGALRouting(topo, global_info=False),
    "ugal-g": lambda topo: UGALRouting(topo, global_info=True),
    "deflect": lambda topo: DeflectionRouting(topo),
    "xy-adapt": lambda topo: XYAdaptiveRouting(topo),
}


def _require_routing_name(name: str) -> None:
    if not isinstance(name, str) or name not in ROUTING_BUILDERS:
        raise ValueError(
            f"unknown routing {name!r}; options: {sorted(ROUTING_BUILDERS)}"
        )


def build_routing(name: str, topology: Topology) -> RoutingAlgorithm:
    """Instantiate a named routing scheme for ``topology``."""
    _require_routing_name(name)
    return ROUTING_BUILDERS[name](topology)


def topology_token(topology: Topology | str) -> str:
    """Spec token for a topology: symbols pass through, objects fingerprint."""
    if isinstance(topology, str):
        return topology
    return FINGERPRINT_PREFIX + topology_fingerprint(topology)


def resolve_topology(token: str, layout: str | None = None) -> Topology:
    """Rebuild a topology from its spec token (catalog symbol or node count).

    Fingerprint tokens are *not* resolvable — the object must be supplied
    out-of-band by whoever created the spec.
    """
    from ..topos import make_network  # local: topos.catalog imports core

    if token.startswith(FINGERPRINT_PREFIX):
        raise LookupError(
            f"topology {token!r} is a fingerprint; the caller must supply "
            "the live Topology object"
        )
    if token.isdigit():
        from ..core.slimnoc import SlimNoC, design_for_nodes

        config = design_for_nodes(int(token))
        sn_layout = layout or ("sn_gr" if config.square_group_grid else "sn_subgr")
        return SlimNoC(config.q, config.concentration, layout=sn_layout)
    return make_network(token, layout=layout)


#: Traffic kind -> its spec class, filled by :func:`_traffic_kind`.
_TRAFFIC_KINDS: dict[str, type] = {}

#: Load fields that must be finite and non-negative in every kind.
_LOAD_FIELDS = ("load", "off_load", "intensity_scale")


class _TrafficCodec:
    """The one codec and load check of every traffic spec kind.

    A spec serializes as ``kind`` followed by every dataclass field in
    declaration order, tuples as lists; :func:`traffic_from_dict` reads
    that form back through :data:`_TRAFFIC_KINDS`.
    """

    kind: ClassVar[str]
    #: Dataclass field names, precomputed: ``to_dict`` runs once per
    #: spec hash.
    _field_names: ClassVar[tuple[str, ...]]

    def __post_init__(self) -> None:
        for name in _LOAD_FIELDS:
            value = getattr(self, name, 0.0)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")

    @property
    def mean_load(self) -> float:
        """Mean offered load in flits/node/cycle: the load term of
        :func:`predicted_cost`."""
        return self.load

    def to_dict(self) -> dict:
        payload = {"kind": self.kind}
        for name in self._field_names:
            value = getattr(self, name)
            payload[name] = list(value) if isinstance(value, tuple) else value
        return payload


def _traffic_kind(cls: type) -> type:
    """Register a traffic spec dataclass under its ``kind``."""
    cls._field_names = tuple(f.name for f in fields(cls))
    _TRAFFIC_KINDS[cls.kind] = cls
    return cls


@_traffic_kind
@dataclass(frozen=True)
class SyntheticTraffic(_TrafficCodec):
    """Synthetic-pattern traffic: a pattern acronym at one offered load."""

    kind: ClassVar[str] = "synthetic"
    min_spec_version: ClassVar[int] = 3

    pattern: str
    load: float

    @property
    def label(self) -> str:
        return f"{self.pattern} load={self.load:g}"

    def build(self, topology: Topology, packet_flits: int, seed: int):
        return SyntheticSource(
            topology, self.pattern, self.load, packet_flits, seed=seed
        )


@_traffic_kind
@dataclass(frozen=True)
class BurstTraffic(_TrafficCodec):
    """Bursty on/off traffic: ``load`` is the *mean* offered load, so a
    burst curve shares its x-axis with the steady curve it stresses; the
    on-phase rate is scaled up by the duty cycle (see
    :class:`~repro.traffic.nonstationary.BurstSource`)."""

    kind: ClassVar[str] = "burst"
    min_spec_version: ClassVar[int] = 4

    pattern: str
    load: float
    on_cycles: int = 64
    off_cycles: int = 192
    off_load: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.on_cycles < 1 or self.off_cycles < 0:
            raise ValueError("need on_cycles >= 1 and off_cycles >= 0")

    @property
    def label(self) -> str:
        return (
            f"burst:{self.pattern}:{self.on_cycles}+{self.off_cycles} "
            f"load={self.load:g}"
        )

    def build(self, topology: Topology, packet_flits: int, seed: int):
        return BurstSource(
            topology,
            self.pattern,
            self.load,
            packet_flits,
            on_cycles=self.on_cycles,
            off_cycles=self.off_cycles,
            off_load=self.off_load,
            seed=seed,
        )


@_traffic_kind
@dataclass(frozen=True)
class HotspotTraffic(_TrafficCodec):
    """Hotspot-concentrated traffic: a ``fraction`` of the destination
    mass goes to a fixed hotspot node set, the rest to ``pattern``."""

    kind: ClassVar[str] = "hotspot"
    min_spec_version: ClassVar[int] = 4

    pattern: str
    load: float
    hotspots: tuple[int, ...] = (0,)
    fraction: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "hotspots", tuple(self.hotspots))
        if not self.hotspots:
            raise ValueError("need at least one hotspot node")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")

    @property
    def label(self) -> str:
        return (
            f"hotspot:{self.pattern}:{self.fraction:g}x{len(self.hotspots)} "
            f"load={self.load:g}"
        )

    def build(self, topology: Topology, packet_flits: int, seed: int):
        return HotspotSource(
            topology,
            self.pattern,
            self.load,
            packet_flits,
            hotspots=self.hotspots,
            fraction=self.fraction,
            seed=seed,
        )


@_traffic_kind
@dataclass(frozen=True)
class TransientTraffic(_TrafficCodec):
    """Transient permutation swaps: ``patterns[k]`` is active for cycles
    ``[k*period, (k+1)*period)``, cycling through the tuple."""

    kind: ClassVar[str] = "transient"
    min_spec_version: ClassVar[int] = 4

    patterns: tuple[str, ...]
    load: float
    period: int = 256

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "patterns", tuple(self.patterns))
        if not self.patterns:
            raise ValueError("need at least one pattern")
        if self.period < 1:
            raise ValueError("period must be >= 1")

    @property
    def label(self) -> str:
        return (
            f"transient:{'+'.join(self.patterns)}:{self.period} "
            f"load={self.load:g}"
        )

    def build(self, topology: Topology, packet_flits: int, seed: int):
        return TransientSource(
            topology,
            self.patterns,
            self.load,
            packet_flits,
            period=self.period,
            seed=seed,
        )


@_traffic_kind
@dataclass(frozen=True)
class WorkloadTraffic(_TrafficCodec):
    """Trace-substitute traffic: one PARSEC/SPLASH benchmark model.

    ``intensity_scale`` multiplies the benchmark's injection intensity
    (load-scaling knob for sensitivity studies); message mix, sizes, and
    causality stay the benchmark's own.
    """

    kind: ClassVar[str] = "workload"
    min_spec_version: ClassVar[int] = 3

    bench: str
    intensity_scale: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.bench not in WORKLOADS:
            raise ValueError(
                f"unknown benchmark {self.bench!r}; options: {sorted(WORKLOADS)}"
            )

    @property
    def label(self) -> str:
        if self.intensity_scale == 1.0:
            return self.bench
        return f"{self.bench} x{self.intensity_scale:g}"

    @property
    def mean_load(self) -> float:
        """Intensity (messages/node/100 cycles) scaled into the same
        ballpark as a synthetic load."""
        return WORKLOADS[self.bench].intensity * self.intensity_scale / 100.0

    def to_dict(self) -> dict:
        # The benchmark's full parameter set rides along so the content
        # hash covers it: retuning a WorkloadSpec in WORKLOADS moves every
        # affected cache key instead of silently serving stale results.
        # It is never read back: the local table is the source of truth.
        payload = super().to_dict()
        params = WORKLOADS[self.bench]
        payload["params"] = {name: getattr(params, name) for name in _WORKLOAD_FIELDS}
        return payload

    def build(self, topology: Topology, packet_flits: int, seed: int):
        return WorkloadSource(
            topology, self.bench, seed=seed, intensity_scale=self.intensity_scale
        )


TrafficSpec = Union[
    SyntheticTraffic, BurstTraffic, HotspotTraffic, TransientTraffic, WorkloadTraffic
]


def traffic_from_dict(payload: dict) -> TrafficSpec:
    """Rebuild a traffic source from its tagged-union dict form; absent
    fields take their defaults and unknown keys are ignored."""
    cls = _TRAFFIC_KINDS.get(payload.get("kind"))
    if cls is None:
        raise ValueError(f"unknown traffic source kind {payload.get('kind')!r}")
    kwargs = {name: payload[name] for name in cls._field_names if name in payload}
    try:
        return cls(**kwargs)
    except TypeError as exc:  # a required field is missing or mistyped
        raise ValueError(f"bad {cls.kind} traffic source: {exc}") from None


#: ``SimConfig``'s and ``WorkloadSpec``'s field names in declaration
#: order.  Every field is a scalar (int, float, bool or str), so reading
#: them one by one gives the same dict as the recursive ``asdict`` copy,
#: for a fraction of the cost — ``to_dict`` runs once per spec hash.
_CONFIG_FIELDS = tuple(f.name for f in fields(SimConfig))
_WORKLOAD_FIELDS = tuple(f.name for f in fields(WorkloadSpec))


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation point, fully pinned and hashable.

    Attributes:
        topology: Catalog symbol (``"sn200"``), decimal node count
            (``"800"``), or ``"fp:<hash>"`` fingerprint token.
        source: Traffic source — :class:`SyntheticTraffic` or
            :class:`WorkloadTraffic` (see the :meth:`synthetic` /
            :meth:`workload` constructors).
        packet_flits: Packet size in flits (synthetic traffic; workload
            models carry their own per-message sizes).
        config: Full simulator configuration.
        routing: Routing scheme name from :data:`ROUTING_BUILDERS`.
        seed: Simulator RNG seed (injection + randomized destinations).
        warmup / measure / drain: Simulation windows in cycles.
        layout: SN layout override (catalog-symbol topologies only).
    """

    topology: str
    source: TrafficSpec
    packet_flits: int = 6
    config: SimConfig = field(default_factory=SimConfig)
    routing: str = "default"
    seed: int = 1
    warmup: int = 300
    measure: int = 800
    drain: int = 1500
    layout: str | None = None

    def __post_init__(self) -> None:
        # Fail at construction, before the spec is hashed or looked up:
        # only a routing name can be rebuilt in a worker or cached.
        _require_routing_name(self.routing)

    @classmethod
    def synthetic(
        cls, topology: str, pattern: str, load: float, **kw
    ) -> "ExperimentSpec":
        """Convenience constructor for a synthetic-pattern point."""
        return cls(topology=topology, source=SyntheticTraffic(pattern, load), **kw)

    @classmethod
    def workload(
        cls, topology: str, bench: str, intensity_scale: float = 1.0, **kw
    ) -> "ExperimentSpec":
        """Convenience constructor for a benchmark-model point."""
        return cls(
            topology=topology,
            source=WorkloadTraffic(bench, intensity_scale),
            **kw,
        )

    def min_spec_version(self) -> int:
        """The oldest :data:`SPEC_VERSION` that can express this spec.

        Serialization (and therefore :meth:`content_hash`) writes this
        version, not the current one: a spec using only version-3
        features keeps the exact bytes — and cache entries — it had
        before the version-4 traffic/routing additions.  Only specs
        naming a new traffic kind or routing move to 4.
        """
        version = getattr(type(self.source), "min_spec_version", SPEC_VERSION)
        if self.routing not in LEGACY_ROUTINGS:
            version = max(version, 4)
        return version

    def to_dict(self) -> dict:
        return {
            "topology": self.topology,
            "source": self.source.to_dict(),
            "packet_flits": self.packet_flits,
            "config": {name: getattr(self.config, name) for name in _CONFIG_FIELDS},
            "routing": self.routing,
            "seed": self.seed,
            "warmup": self.warmup,
            "measure": self.measure,
            "drain": self.drain,
            "layout": self.layout,
            "spec_version": self.min_spec_version(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        payload = dict(payload)
        payload.pop("spec_version", None)
        payload["config"] = SimConfig(**payload["config"])
        if "source" in payload:
            payload["source"] = traffic_from_dict(payload["source"])
        else:  # pre-version-3 payload with top-level pattern/load
            payload["source"] = SyntheticTraffic(
                pattern=payload.pop("pattern"), load=payload.pop("load")
            )
        return cls(**payload)

    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical JSON form (the cache key).

        Memoized per instance (the dataclass is frozen, so the hash can
        never go stale) — the runner and cache consult it repeatedly.
        """
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            cached = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            self.__dict__["_content_hash"] = cached
        return cached

    def execute(self, topology: Topology | None = None) -> SimResult:
        """Run the simulation this spec describes (in any process).

        ``topology`` short-circuits token resolution and is mandatory for
        fingerprint specs.
        """
        topo = topology
        if topo is None:
            topo = resolve_topology(self.topology, self.layout)
        routing = build_routing(self.routing, topo)
        sim = NoCSimulator(topo, self.config, routing=routing, seed=self.seed)
        source = self.source.build(topo, self.packet_flits, self.seed)
        return sim.run(
            source, warmup=self.warmup, measure=self.measure, drain=self.drain
        )


def iter_spec_keys(specs: Iterable[ExperimentSpec]) -> Iterator[str]:
    """Content hashes for ``specs`` in order — the store keys."""
    for spec in specs:
        yield spec.content_hash()


#: Baseline activity of an idle-ish network relative to its offered load
#: (router bookkeeping, warmup/drain overhead): keeps the predicted cost
#: of near-zero-load points realistically non-zero.
COST_BASE_ACTIVITY = 0.25


def predicted_cost(spec: ExperimentSpec, num_nodes: int | None = None) -> float:
    """Cost estimate for one simulation point.

    The model is deliberately crude — simulated work scales with how
    many cycles run, how many nodes inject, and how loaded the network
    is::

        cost = (warmup + measure + drain) * num_nodes * (base + load)

    It exists for *ordering* and *weighting*, not prediction: the work
    queue hands out the heaviest specs first
    (:func:`~repro.engine.queue.jobs_for_specs`) so a 0.45-load point
    near saturation, which costs many times a 0.02-load one, does not
    start last and gate the whole campaign; the ``--progress`` ETA
    weights done and pending specs by it.  Only ratios between specs
    matter, so the units are arbitrary.

    ``num_nodes`` comes from the campaign layer, which holds the live
    topology objects; without it the model still orders same-network
    specs correctly (the common case — one campaign, one grid).
    """
    cycles = spec.warmup + spec.measure + spec.drain
    activity = COST_BASE_ACTIVITY + spec.source.mean_load
    return float(cycles) * float(num_nodes or 1) * activity
