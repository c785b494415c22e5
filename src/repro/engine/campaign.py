"""Sweep/compare/workload campaign builders on top of the experiment engine.

A *campaign* expands a grid — (network × pattern × load) for synthetic
sweeps, (network × benchmark) for workload runs — into
:class:`~repro.engine.spec.ExperimentSpec`\\ s, submits them through an
:class:`~repro.engine.runner.ExperimentEngine`, and assembles the paper's
latency-load curves (:class:`~repro.analysis.sweep.SweepResult`) or
per-benchmark result tables (Figure 18 / Table 6).

Early stop on saturation ("we omit performance data for points after
network saturation") is handled as *staged batches*: loads are submitted
in chunks sized to the engine's worker count, each curve stops extending
once a chunk contains a saturated point, and the assembled curve is
truncated at the first saturated load.  Because every point is simulated
deterministically from its spec, a staged parallel campaign is
point-for-point identical to the serial sweep — parallelism can only
compute (and cache) a few extra post-saturation points, never change the
curve.

Very large campaigns can additionally be *sharded* across independent
invocations (processes or hosts): ``shard=(index, count)`` restricts a
campaign to the specs whose content hash lands in shard ``index`` (see
:func:`shard_specs` — disjoint, covering, and stable under spec-list
reordering).  A sharded run computes the full grid for its slice (no
saturation staging: that would need the other shards' results) and is a
cache-population pass; after ``cache merge`` — or a shared ``repro
serve`` rendezvous store — brings the shard results together, the
unsharded rerun assembles the real curves as a pure cache read.

Shards balance by point count by default (``balance="hash"``); with
``balance="cost"`` the partition weighs each spec by its predicted cost
(:func:`~repro.engine.spec.predicted_cost` — load × network size ×
simulated cycles) so hosts finish together instead of one shard drawing
every near-saturation point.  Both partitions are pure functions of the
spec set, so independent hosts agree on ownership with no coordination.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from ..obs import CostCalibration
from ..sim import SimConfig, SimResult
from ..topos.base import Topology
from ..traffic import PATTERNS
from .runner import ExperimentEngine
from .spec import (
    BurstTraffic,
    ExperimentSpec,
    HotspotTraffic,
    SyntheticTraffic,
    TransientTraffic,
    TrafficSpec,
    WorkloadTraffic,
    iter_spec_keys,
    predicted_cost,
    resolve_topology,
    shard_for_key,
    spec_load,
    topology_token,
)

#: Valid ``balance`` arguments for :func:`shard_specs`.
SHARD_BALANCE_MODES = ("hash", "cost")


def _validate_shard(shard: tuple[int, int]) -> tuple[int, int]:
    index, count = shard
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"invalid shard {index}/{count}: need count >= 1 and "
            "0 <= index < count"
        )
    return index, count


def _spec_costs(
    unique: dict[str, ExperimentSpec],
    node_counts: Mapping[str, int] | None,
    calibration: CostCalibration | None,
) -> tuple[dict[str, float], bool]:
    """Per-key costs for LPT balancing: ``(costs, calibrated)``.

    Calibrated costs are measured wall seconds; heuristic costs are
    abstract units.  The two must never mix inside one partition (a
    4e-5-seconds spec would be dwarfed by a 500000-unit one), so
    calibration applies **all-or-nothing**: every spec's bucket must be
    present in the table, otherwise the whole batch falls back to the
    heuristic.  Either way the costs — and thus the partition — are a
    deterministic function of (spec set, calibration table).
    """
    nodes = node_counts or {}
    if calibration is not None:
        calibrated: dict[str, float] | None = {}
        for key, spec in unique.items():
            num_nodes = nodes.get(spec.topology)
            seconds = (
                None
                if num_nodes is None
                else calibration.seconds_for(
                    num_nodes,
                    spec.warmup + spec.measure + spec.drain,
                    spec_load(spec),
                )
            )
            if seconds is None:
                calibrated = None
                break
            calibrated[key] = seconds
        if calibrated is not None:
            return calibrated, True
    return {
        key: predicted_cost(spec, nodes.get(spec.topology))
        for key, spec in unique.items()
    }, False


def estimate_campaign_seconds(
    specs: Sequence[ExperimentSpec],
    node_counts: Mapping[str, int] | None = None,
    calibration: CostCalibration | None = None,
) -> float | None:
    """Calibrated wall-seconds estimate for a batch of specs.

    Returns ``None`` unless *every* spec's calibration bucket has been
    observed (same all-or-nothing rule as cost balancing) — a partial
    estimate would silently understate the campaign.  Cache hits are not
    modelled; this is the cost of simulating everything.
    """
    unique: dict[str, ExperimentSpec] = {}
    for key, spec in zip(iter_spec_keys(specs), specs):
        unique.setdefault(key, spec)
    costs, calibrated = _spec_costs(unique, node_counts, calibration)
    if not calibrated:
        return None
    return sum(costs.values())


def _cost_balanced_keys(
    unique: dict[str, ExperimentSpec],
    index: int,
    count: int,
    node_counts: Mapping[str, int] | None,
    calibration: CostCalibration | None = None,
) -> set[str]:
    """Keys owned by shard ``index`` under greedy cost balancing (LPT).

    Specs are placed heaviest-first onto the currently lightest shard —
    the classic longest-processing-time heuristic, which bounds the
    spread between shards by one spec's cost.  The placement order is
    ``(-cost, key)``, a pure function of the spec *set* (and, when
    given, the calibration table — see :func:`_spec_costs`), so every
    host slicing the same campaign computes the same assignment with no
    coordination (exactly the property hash sharding has) — provided
    calibrated hosts share the same table.
    """
    costs, _ = _spec_costs(unique, node_counts, calibration)
    weighted = sorted(
        ((costs[key], key) for key in unique),
        key=lambda item: (-item[0], item[1]),
    )
    totals = [0.0] * count
    owned: set[str] = set()
    for cost, key in weighted:
        target = min(range(count), key=totals.__getitem__)
        totals[target] += cost
        if target == index:
            owned.add(key)
    return owned


def shard_specs(
    specs: Sequence[ExperimentSpec],
    index: int,
    count: int,
    *,
    balance: str = "hash",
    node_counts: Mapping[str, int] | None = None,
    calibration: CostCalibration | None = None,
) -> list[ExperimentSpec]:
    """The subset of ``specs`` owned by shard ``index`` of ``count``.

    Both balance modes are pure functions of the spec *set*: the shards
    are disjoint, cover the whole list, and are stable under reordering
    — every host slicing the same campaign agrees on who owns which
    point, with no coordination.

    * ``balance="hash"`` (default) partitions by spec content hash —
      even point *counts*, membership independent of the other specs.
    * ``balance="cost"`` weighs each spec with the predicted-cost model
      (:func:`~repro.engine.spec.predicted_cost`: load × network size ×
      simulated cycles) and places specs heaviest-first onto the
      lightest shard, so shards carry even expected *work* — the
      near-saturation points that dominate wall time spread across
      hosts.  ``node_counts`` maps topology tokens to node counts (the
      campaign layer passes it; without it, network size drops out of
      the weights).  An optional ``calibration`` table upgrades the
      weights to measured wall seconds when every spec's bucket has
      been observed (see :func:`_spec_costs`) — hosts must share the
      table for their partitions to agree.
    """
    _validate_shard((index, count))
    if balance == "hash":
        return [
            spec
            for key, spec in zip(iter_spec_keys(specs), specs)
            if shard_for_key(key, count) == index
        ]
    if balance != "cost":
        raise ValueError(
            f"unknown shard balance {balance!r}; options: "
            f"{', '.join(SHARD_BALANCE_MODES)}"
        )
    unique: dict[str, ExperimentSpec] = {}
    for key, spec in zip(iter_spec_keys(specs), specs):
        unique.setdefault(key, spec)
    owned = _cost_balanced_keys(unique, index, count, node_counts, calibration)
    return [spec for key, spec in zip(iter_spec_keys(specs), specs) if key in owned]


def _node_counts(topo_map: Mapping[str, Topology]) -> dict[str, int]:
    """Token → node-count map for the cost model, from live topologies."""
    return {token: topo.num_nodes for token, topo in topo_map.items()}


def _resolve_entry(
    topology: Topology | str, layout: str | None
) -> tuple[str, Topology]:
    """Canonical (token, object) pair for a campaign network.

    Catalog symbols are resolved to live objects here, in the parent,
    and *every* campaign spec is keyed by the structural fingerprint —
    so a sweep launched from the CLI (symbol) and one launched from the
    harness (live object) share cache entries for the same network.
    """
    if isinstance(topology, str):
        topology = resolve_topology(topology, layout)
    return topology_token(topology), topology


#: Defaults for the non-stationary traffic token grammar (below).
DEFAULT_BURST_PHASES = (64, 192)
DEFAULT_HOTSPOT_FRACTION = 0.25
DEFAULT_HOTSPOT_COUNT = 4
DEFAULT_TRANSIENT_PERIOD = 256


def _spread_hotspots(num_nodes: int, count: int) -> tuple[int, ...]:
    """``count`` hotspot nodes spread evenly across the node space, so
    the token form names the same deterministic set on every host."""
    count = max(1, min(count, num_nodes))
    return tuple(sorted({(i * num_nodes) // count for i in range(count)}))


def traffic_for_token(
    token: str, load: float, num_nodes: int
) -> TrafficSpec:
    """Parse a CLI traffic token into a tagged-union traffic source.

    Grammar (everything after the pattern acronym is optional)::

        RND                         plain stationary pattern
        burst:ADV1[:ON+OFF[:OFFLOAD]]   on/off phases (cycles), mean load
        hotspot:RND[:FRAC[:COUNT]]      FRAC of traffic to COUNT hotspots
        transient:ADV1+ADV2[:PERIOD]    pattern swap every PERIOD cycles

    ``load`` is always the mean offered load in flits/node/cycle;
    ``num_nodes`` places the deterministic hotspot set.
    """
    kind, _, rest = token.partition(":")
    try:
        if kind == "burst":
            pattern, _, tail = rest.partition(":")
            on, off = DEFAULT_BURST_PHASES
            off_load = 0.0
            if tail:
                phases, _, extra = tail.partition(":")
                on_text, _, off_text = phases.partition("+")
                on, off = int(on_text), int(off_text)
                if extra:
                    off_load = float(extra)
            _require_pattern(pattern, token)
            return BurstTraffic(
                pattern, load, on_cycles=on, off_cycles=off, off_load=off_load
            )
        if kind == "hotspot":
            pattern, _, tail = rest.partition(":")
            fraction = DEFAULT_HOTSPOT_FRACTION
            count = DEFAULT_HOTSPOT_COUNT
            if tail:
                frac_text, _, count_text = tail.partition(":")
                fraction = float(frac_text)
                if count_text:
                    count = int(count_text)
            _require_pattern(pattern, token)
            return HotspotTraffic(
                pattern,
                load,
                hotspots=_spread_hotspots(num_nodes, count),
                fraction=fraction,
            )
        if kind == "transient":
            names, _, period_text = rest.partition(":")
            patterns = tuple(p for p in names.split("+") if p)
            period = int(period_text) if period_text else DEFAULT_TRANSIENT_PERIOD
            for pattern in patterns:
                _require_pattern(pattern, token)
            if not patterns:
                raise ValueError("needs at least one pattern")
            return TransientTraffic(patterns, load, period=period)
    except ValueError as exc:
        if str(exc).startswith("bad traffic token"):
            raise  # _require_pattern already formatted the full message
        raise ValueError(
            f"bad traffic token {token!r}: {exc} "
            "(grammar: PATTERN | burst:PATTERN[:ON+OFF[:OFFLOAD]] | "
            "hotspot:PATTERN[:FRAC[:COUNT]] | transient:PAT1+PAT2[:PERIOD])"
        ) from exc
    _require_pattern(token, token)
    return SyntheticTraffic(token, load)


def _require_pattern(pattern: str, token: str) -> None:
    if pattern not in PATTERNS:
        raise ValueError(
            f"bad traffic token {token!r}: unknown pattern {pattern!r} "
            f"(options: {', '.join(sorted(PATTERNS))}; variants: "
            "burst:PATTERN[:ON+OFF[:OFFLOAD]], hotspot:PATTERN[:FRAC[:COUNT]], "
            "transient:PAT1+PAT2[:PERIOD])"
        )


def _spec_for(
    token: str,
    pattern: str,
    load: float,
    *,
    config: SimConfig | None,
    packet_flits: int,
    routing: str,
    seed: int,
    warmup: int,
    measure: int,
    drain: int,
    layout: str | None,
    num_nodes: int,
) -> ExperimentSpec:
    return ExperimentSpec(
        topology=token,
        source=traffic_for_token(pattern, load, num_nodes),
        packet_flits=packet_flits,
        config=config if config is not None else SimConfig(),
        routing=routing,
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain=drain,
        layout=layout,
    )


def build_sweep_specs(
    topology: Topology | str,
    pattern: str,
    loads: Sequence[float],
    *,
    config: SimConfig | None = None,
    packet_flits: int = 6,
    routing: str = "default",
    seed: int = 1,
    warmup: int = 300,
    measure: int = 800,
    drain: int = 1500,
    layout: str | None = None,
) -> tuple[list[ExperimentSpec], dict[str, Topology]]:
    """Specs for one (network, pattern) sweep, plus the topology map the
    engine needs to hand the fingerprinted networks to workers."""
    token, topology = _resolve_entry(topology, layout)
    topologies = {token: topology}
    # The fingerprint token already encodes the layout's wire lengths, so
    # the spec's layout field stays None — keeping cache keys identical no
    # matter how the caller named the network.
    specs = [
        _spec_for(
            token,
            pattern,
            load,
            config=config,
            packet_flits=packet_flits,
            routing=routing,
            seed=seed,
            warmup=warmup,
            measure=measure,
            drain=drain,
            layout=None,
            num_nodes=topology.num_nodes,
        )
        for load in sorted(loads)
    ]
    return specs, topologies


def assemble_curve(
    name: str,
    pattern: str,
    loads: Sequence[float],
    results: Sequence[SimResult],
    stop_after_saturation: bool = True,
):
    """Fold per-load results into a :class:`SweepResult`, truncating after
    the first saturated point when early stop is requested."""
    from ..analysis.sweep import SweepPoint, SweepResult

    curve = SweepResult(network=name, pattern=pattern)
    for load, outcome in zip(loads, results):
        point = SweepPoint(
            load=load,
            latency=outcome.avg_latency,
            throughput=outcome.throughput,
            saturated=outcome.saturated,
        )
        curve.points.append(point)
        if point.saturated and stop_after_saturation:
            break
    return curve


def run_sweep(
    engine: ExperimentEngine,
    topology: Topology | str,
    pattern: str,
    loads: Sequence[float],
    *,
    config: SimConfig | None = None,
    packet_flits: int = 6,
    routing: str = "default",
    seed: int = 1,
    warmup: int = 300,
    measure: int = 800,
    drain: int = 1500,
    layout: str | None = None,
    stop_after_saturation: bool = True,
    name: str | None = None,
    shard: tuple[int, int] | None = None,
    shard_balance: str = "hash",
    progress=None,
):
    """One latency-load curve through the engine (cached + parallel).

    ``shard=(index, count)`` runs only this invocation's slice of the
    grid (a cache-population pass; see :func:`run_compare`), split by
    content hash or, with ``shard_balance="cost"``, by predicted cost.
    """
    curves = run_compare(
        engine,
        {_label(name, topology): topology},
        pattern,
        loads,
        config=config,
        packet_flits=packet_flits,
        routing=routing,
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain=drain,
        layout=layout,
        stop_after_saturation=stop_after_saturation,
        shard=shard,
        shard_balance=shard_balance,
        progress=progress,
    )
    return next(iter(curves.values()))


def _label(name: str | None, topology: Topology | str) -> str:
    if name is not None:
        return name
    return topology if isinstance(topology, str) else topology.name


def run_compare(
    engine: ExperimentEngine,
    topologies: Mapping[str, Topology | str],
    pattern: str,
    loads: Sequence[float],
    *,
    configs: Mapping[str, SimConfig] | None = None,
    config: SimConfig | None = None,
    packet_flits: int = 6,
    routing: str = "default",
    seed: int = 1,
    warmup: int = 300,
    measure: int = 800,
    drain: int = 1500,
    layout: str | None = None,
    stop_after_saturation: bool = True,
    shard: tuple[int, int] | None = None,
    shard_balance: str = "hash",
    progress=None,
):
    """Sweep several labeled networks under one pattern (Figures 12-14).

    All still-unsaturated networks contribute their next chunk of loads
    to each engine batch, so a multi-worker engine parallelizes across
    networks *and* loads while preserving per-network early stop.

    With ``shard=(index, count)`` the call becomes one slice of a
    distributed campaign: the *full* (network × load) grid is built (no
    saturation staging — that would need the other shards' results),
    only the specs owned by this shard are executed, and the returned
    curves cover just those points.  ``shard_balance`` picks the
    partition (see :func:`shard_specs`): ``"hash"`` for even point
    counts, ``"cost"`` for even predicted work.  Merge the shard stores
    — or write them all into one ``repro serve`` endpoint — and rerun
    unsharded to assemble the complete curves from cache.
    """
    loads = sorted(loads)
    # layout is consumed by _resolve_entry; fingerprint-keyed specs carry
    # layout=None so cache keys don't depend on how the network was named.
    spec_kw = dict(
        packet_flits=packet_flits,
        routing=routing,
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain=drain,
        layout=None,
    )
    per_label: dict[str, dict] = {}
    topo_map: dict[str, Topology] = {}
    for label, topology in topologies.items():
        token, topology = _resolve_entry(topology, layout)
        topo_map[token] = topology
        per_label[label] = {
            "token": token,
            "nodes": topology.num_nodes,
            "config": (configs or {}).get(label, config),
            "results": [],
            "next": 0,
            "done": not loads,
        }

    if shard is not None:
        index, count = _validate_shard(shard)
        grid: list[tuple[str, float, ExperimentSpec]] = []
        for label, info in per_label.items():
            for load in loads:
                spec = _spec_for(
                    info["token"],
                    pattern,
                    load,
                    config=info["config"],
                    num_nodes=info["nodes"],
                    **spec_kw,
                )
                grid.append((label, load, spec))
        owned = set(
            iter_spec_keys(
                shard_specs(
                    [spec for _, _, spec in grid],
                    index,
                    count,
                    balance=shard_balance,
                    node_counts=_node_counts(topo_map),
                    calibration=engine.calibration,
                )
            )
        )
        batch = []
        specs = []
        for label, load, spec in grid:
            if spec.content_hash() in owned:
                batch.append((label, load))
                specs.append(spec)
        results = engine.run(specs, topologies=topo_map, progress=progress)
        shard_points: dict[str, list] = {label: [] for label in per_label}
        for (label, load), outcome in zip(batch, results):
            shard_points[label].append((load, outcome))
        # Partial curves over this shard's own points only (no truncation
        # — the gaps belong to other shards).
        return {
            label: assemble_curve(
                label,
                pattern,
                [load for load, _ in points],
                [outcome for _, outcome in points],
                stop_after_saturation=False,
            )
            for label, points in shard_points.items()
        }

    active = [label for label, info in per_label.items() if not info["done"]]
    while active:
        if stop_after_saturation:
            chunk = max(1, math.ceil(engine.max_workers / len(active)))
        else:
            chunk = len(loads)
        batch: list[tuple[str, float]] = []
        specs: list[ExperimentSpec] = []
        for label in active:
            info = per_label[label]
            for load in loads[info["next"] : info["next"] + chunk]:
                batch.append((label, load))
                specs.append(
                    _spec_for(
                        info["token"],
                        pattern,
                        load,
                        config=info["config"],
                        num_nodes=info["nodes"],
                        **spec_kw,
                    )
                )
            info["next"] += chunk
        results = engine.run(specs, topologies=topo_map, progress=progress)
        for (label, _load), outcome in zip(batch, results):
            per_label[label]["results"].append(outcome)
        for label in active:
            info = per_label[label]
            saturated = stop_after_saturation and any(
                r.saturated for r in info["results"]
            )
            if saturated or info["next"] >= len(loads):
                info["done"] = True
        active = [label for label, info in per_label.items() if not info["done"]]

    return {
        label: assemble_curve(
            label,
            pattern,
            loads[: len(info["results"])],
            info["results"],
            stop_after_saturation,
        )
        for label, info in per_label.items()
    }


def _workload_spec_for(
    token: str,
    bench: str,
    *,
    config: SimConfig | None,
    intensity_scale: float,
    packet_flits: int,
    routing: str,
    seed: int,
    warmup: int,
    measure: int,
    drain: int,
) -> ExperimentSpec:
    # Like the sweep builders, fingerprint-keyed specs carry layout=None
    # so cache keys don't depend on how the network was named.
    return ExperimentSpec(
        topology=token,
        source=WorkloadTraffic(bench, intensity_scale),
        packet_flits=packet_flits,
        config=config if config is not None else SimConfig(),
        routing=routing,
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain=drain,
        layout=None,
    )


def build_workload_specs(
    topology: Topology | str,
    benches: Sequence[str],
    *,
    config: SimConfig | None = None,
    intensity_scale: float = 1.0,
    packet_flits: int = 6,
    routing: str = "default",
    seed: int = 1,
    warmup: int = 300,
    measure: int = 800,
    drain: int = 1500,
    layout: str | None = None,
) -> tuple[list[ExperimentSpec], dict[str, Topology]]:
    """Specs for one network across several benchmark models, plus the
    topology map the engine needs for the fingerprinted network."""
    token, topology = _resolve_entry(topology, layout)
    specs = [
        _workload_spec_for(
            token,
            bench,
            config=config,
            intensity_scale=intensity_scale,
            packet_flits=packet_flits,
            routing=routing,
            seed=seed,
            warmup=warmup,
            measure=measure,
            drain=drain,
        )
        for bench in benches
    ]
    return specs, {token: topology}


def workload_compare(
    engine: ExperimentEngine,
    topologies: Mapping[str, Topology | str],
    benches: Sequence[str],
    *,
    configs: Mapping[str, SimConfig] | None = None,
    config: SimConfig | None = None,
    intensity_scale: float = 1.0,
    packet_flits: int = 6,
    routing: str = "default",
    seed: int = 1,
    warmup: int = 300,
    measure: int = 800,
    drain: int = 1500,
    layout: str | None = None,
    shard: tuple[int, int] | None = None,
    shard_balance: str = "hash",
    progress=None,
) -> dict[str, dict[str, SimResult]]:
    """Run every (network × benchmark) point as one engine batch.

    Returns ``{label: {bench: SimResult}}``.  Unlike load sweeps there is
    no saturation early stop — each benchmark is a single point — so the
    whole grid is submitted at once: a multi-worker engine fans it out,
    and every point is individually content-addressed in the cache.

    With ``shard=(index, count)`` only this shard's slice of the grid is
    executed (partitioned by content hash, or by predicted cost with
    ``shard_balance="cost"``), and the returned table holds just those
    cells — a cache-population pass for distributed campaigns (merge the
    shard stores, or share a ``repro serve`` store, then rerun unsharded
    for the full table).
    """
    if shard is not None:
        shard = _validate_shard(shard)
    topo_map: dict[str, Topology] = {}
    grid: list[tuple[str, str, ExperimentSpec]] = []
    for label, topology in topologies.items():
        token, topology = _resolve_entry(topology, layout)
        topo_map[token] = topology
        label_config = (configs or {}).get(label, config)
        for bench in benches:
            spec = _workload_spec_for(
                token,
                bench,
                config=label_config,
                intensity_scale=intensity_scale,
                packet_flits=packet_flits,
                routing=routing,
                seed=seed,
                warmup=warmup,
                measure=measure,
                drain=drain,
            )
            grid.append((label, bench, spec))
    if shard is not None:
        owned = set(
            iter_spec_keys(
                shard_specs(
                    [spec for _, _, spec in grid],
                    shard[0],
                    shard[1],
                    balance=shard_balance,
                    node_counts=_node_counts(topo_map),
                    calibration=engine.calibration,
                )
            )
        )
        grid = [cell for cell in grid if cell[2].content_hash() in owned]
    batch = [(label, bench) for label, bench, _ in grid]
    specs = [spec for _, _, spec in grid]
    results = engine.run(specs, topologies=topo_map, progress=progress)
    table: dict[str, dict[str, SimResult]] = {label: {} for label in topologies}
    for (label, bench), outcome in zip(batch, results):
        table[label][bench] = outcome
    return table
