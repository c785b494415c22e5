"""Latency-curve and workload campaigns on top of the experiment engine.

A *campaign* expands a grid — (network × pattern × load) for synthetic
sweeps, (network × benchmark) for workload runs — into
:class:`~repro.engine.spec.ExperimentSpec`\\ s, submits them through an
:class:`~repro.engine.runner.ExperimentEngine`, and assembles the paper's
latency-load curves (:class:`~repro.analysis.sweep.SweepResult`) or
per-benchmark result tables (Figure 18 / Table 6).

Early stop on saturation ("we omit performance data for points after
network saturation") is handled as *staged batches* (:func:`run_curves`,
the one loop behind every latency curve: the CLI's campaigns,
:func:`run_compare`, the adaptive study and each figure's grid):
each round submits the next loads of every still-unsaturated curve as
one engine batch, chunked so a round is at least as wide as the
engine's worker count; a curve stops extending once a chunk contains a
saturated point, and the assembled curve is truncated at the first
saturated load.  Because every point is simulated deterministically
from its spec, a staged parallel campaign is point-for-point identical
to the serial sweep — parallelism can only compute (and cache) a few
extra post-saturation points, never change the curve.

To spread one campaign across hosts, submit its grid to a work queue
(:mod:`repro.engine.queue`) instead: workers on any host lease and
simulate the specs into the coordinator's store, and rerunning the
campaign against that store assembles the curves as a pure cache read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence

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
    resolve_topology,
    topology_token,
)

if TYPE_CHECKING:
    from ..analysis.sweep import SweepResult


def resolve_network(topology: Topology | str, layout: str | None) -> str:
    """The fingerprint token of a campaign network.

    Catalog symbols are resolved to live objects here, in the parent,
    and *every* campaign spec is keyed by the structural fingerprint —
    so a sweep launched from the CLI (symbol) and one launched from the
    harness (live object) share cache entries for the same network.
    The token resolves back to the object through
    :func:`~repro.engine.spec.resolve_topology`.
    """
    if isinstance(topology, str):
        topology = resolve_topology(topology, layout)
    return topology_token(topology)


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


@dataclass(frozen=True)
class CurveSpec:
    """One latency-load curve of a staged campaign: the network's
    fingerprint token (see :func:`resolve_network`), the traffic token,
    the routing and the simulator config (``None``: the default).
    ``name`` labels the assembled :class:`SweepResult`."""

    name: str
    token: str
    pattern: str
    routing: str
    config: SimConfig | None


def study_curves(
    networks: Sequence[str],
    routings: Sequence[str],
    patterns: Sequence[str],
    *,
    config: SimConfig | None = None,
    configs: Mapping[str, SimConfig] | None = None,
) -> dict[tuple[str, str, str], CurveSpec]:
    """One curve per (network, routing, pattern), keyed by that triple.
    ``networks`` are catalog symbols, which also name the curves;
    ``configs`` overrides ``config`` per symbol."""
    curves: dict[tuple[str, str, str], CurveSpec] = {}
    for network in networks:
        token = resolve_network(network, None)
        network_config = (configs or {}).get(network, config)
        for routing in routings:
            for pattern in patterns:
                curves[(network, routing, pattern)] = CurveSpec(
                    network, token, pattern, routing, network_config
                )
    return curves


def curve_spec(
    curve: CurveSpec,
    load: float,
    *,
    packet_flits: int,
    seed: int,
    warmup: int,
    measure: int,
    drain: int,
) -> ExperimentSpec:
    """The spec of ``curve`` at ``load``: the one place a curve point's
    spec is built."""
    # The fingerprint token already encodes the layout's wire lengths, so
    # the spec's layout field stays None — keeping cache keys identical no
    # matter how the caller named the network.
    return ExperimentSpec(
        topology=curve.token,
        source=traffic_for_token(
            curve.pattern, load, resolve_topology(curve.token).num_nodes
        ),
        packet_flits=packet_flits,
        config=curve.config if curve.config is not None else SimConfig(),
        routing=curve.routing,
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain=drain,
        layout=None,
    )


def curve_specs(
    curves: Iterable[CurveSpec],
    loads: Sequence[float],
    **window: int,
) -> list[ExperimentSpec]:
    """Every spec of every curve, curve by curve in ascending load: the
    whole grid a :func:`run_curves` campaign may run, which a work queue
    or a progress line over the campaign is sized by.  ``window`` is the
    keyword arguments of :func:`curve_spec`."""
    return [
        curve_spec(curve, load, **window)
        for curve in curves
        for load in sorted(loads)
    ]


def run_curves(
    engine: ExperimentEngine,
    curves: Mapping[Hashable, CurveSpec],
    loads: Sequence[float],
    *,
    packet_flits: int = 6,
    seed: int = 1,
    warmup: int = 300,
    measure: int = 800,
    drain: int = 1500,
    stop_after_saturation: bool = True,
    progress=None,
) -> dict[Hashable, SweepResult]:
    """Sweep every curve over ``loads`` as one staged campaign.

    Each round submits the next chunk of loads of every still-active
    curve as one engine batch; the chunk is sized so the round is at
    least as wide as the engine's worker count.  A curve stops once a
    chunk holds a saturated point.

    ``progress`` is the engine's :data:`~repro.engine.runner.ProgressFn`.
    If it also has a ``skip(specs)`` method (as
    :class:`~repro.obs.progress.ProgressLine` does), that is called once
    per curve cut short by saturation, with the specs it will never run.

    Returns ``{key: SweepResult}`` in the order of ``curves``.
    """
    from ..analysis.sweep import SweepPoint, SweepResult

    loads = sorted(loads)

    def spec(curve: CurveSpec, load: float) -> ExperimentSpec:
        return curve_spec(
            curve,
            load,
            packet_flits=packet_flits,
            seed=seed,
            warmup=warmup,
            measure=measure,
            drain=drain,
        )

    skip = getattr(progress, "skip", None)
    results: dict[Hashable, list[SimResult]] = {key: [] for key in curves}
    active = list(curves) if loads else []
    while active:
        if stop_after_saturation:
            chunk = max(1, math.ceil(engine.max_workers / len(active)))
        else:
            chunk = len(loads)
        batch = [
            (key, load)
            for key in active
            for load in loads[len(results[key]) : len(results[key]) + chunk]
        ]
        outcomes = engine.run(
            [spec(curves[key], load) for key, load in batch], progress=progress
        )
        for (key, _load), outcome in zip(batch, outcomes):
            results[key].append(outcome)
        still_active = []
        for key in active:
            left = loads[len(results[key]) :]
            if stop_after_saturation and any(r.saturated for r in results[key]):
                if left and skip is not None:
                    skip([spec(curves[key], load) for load in left])
            elif left:
                still_active.append(key)
        active = still_active

    # With early stop, a curve ends at its first saturated point; the
    # points its last chunk ran past it stay cached but out of the curve.
    assembled: dict[Hashable, SweepResult] = {}
    for key, curve in curves.items():
        assembled[key] = sweep = SweepResult(curve.name, curve.pattern)
        for load, outcome in zip(loads, results[key]):
            sweep.points.append(
                SweepPoint(
                    load, outcome.avg_latency, outcome.throughput, outcome.saturated
                )
            )
            if outcome.saturated and stop_after_saturation:
                break
    return assembled


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
    stop_after_saturation: bool = True,
    progress=None,
):
    """Sweep several labeled networks under one pattern (Figures 12-14).

    One staged campaign (:func:`run_curves`): all still-unsaturated
    networks contribute their next chunk of loads to each engine batch,
    so a multi-worker engine parallelizes across networks *and* loads
    while preserving per-network early stop.
    """
    curves: dict[str, CurveSpec] = {}
    for label, topology in topologies.items():
        token = resolve_network(topology, None)
        curves[label] = CurveSpec(
            label, token, pattern, routing, (configs or {}).get(label, config)
        )
    return run_curves(
        engine,
        curves,
        loads,
        packet_flits=packet_flits,
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain=drain,
        stop_after_saturation=stop_after_saturation,
        progress=progress,
    )


def build_workload_specs(
    topologies: Mapping[Hashable, Topology | str],
    benches: Sequence[str],
    *,
    configs: Mapping[Hashable, SimConfig] | None = None,
    config: SimConfig | None = None,
    intensity_scale: float = 1.0,
    packet_flits: int = 6,
    routing: str = "default",
    seed: int = 1,
    warmup: int = 300,
    measure: int = 800,
    drain: int = 1500,
) -> list[ExperimentSpec]:
    """Every (network × benchmark) spec, benchmarks in order within each
    labeled network in order: the one place a workload point's spec is
    built, and the whole grid :func:`workload_compare` runs.  ``configs``
    overrides ``config`` per label."""
    specs = []
    for label, topology in topologies.items():
        token = resolve_network(topology, None)
        label_config = (configs or {}).get(label, config)
        for bench in benches:
            # Like :func:`curve_spec`, fingerprint-keyed specs carry
            # layout=None so cache keys don't depend on how the network
            # was named.
            specs.append(
                ExperimentSpec(
                    topology=token,
                    source=WorkloadTraffic(bench, intensity_scale),
                    packet_flits=packet_flits,
                    config=label_config if label_config is not None else SimConfig(),
                    routing=routing,
                    seed=seed,
                    warmup=warmup,
                    measure=measure,
                    drain=drain,
                    layout=None,
                )
            )
    return specs


def workload_compare(
    engine: ExperimentEngine,
    topologies: Mapping[Hashable, Topology | str],
    benches: Sequence[str],
    *,
    progress=None,
    **grid,
) -> dict[Hashable, dict[str, SimResult]]:
    """Run every (network × benchmark) point as one engine batch.

    Returns ``{label: {bench: SimResult}}``.  Unlike load sweeps there is
    no saturation early stop — each benchmark is a single point — so the
    whole :func:`build_workload_specs` grid (``grid`` is its keyword
    arguments) is submitted at once: a multi-worker engine fans it out,
    and every point is individually content-addressed in the cache.
    """
    specs = build_workload_specs(topologies, benches, **grid)
    results = engine.run(specs, progress=progress)
    table: dict[Hashable, dict[str, SimResult]] = {label: {} for label in topologies}
    for (label, bench), outcome in zip(itertools.product(topologies, benches), results):
        table[label][bench] = outcome
    return table
