"""Simplified latency/throughput model for large networks (N = 1296).

The paper's own methodology (section 5.1): "If N = 1296, due to large
memory requirements (>40GB), we simplify the models by using average wire
lengths and hop counts."  We do the same:

* **Zero-load latency** — average router hops x router pipeline + link
  cycles from the average per-route wire length (SMART-aware) +
  serialisation + NIC overhead.
* **Saturation throughput** — exact worst-channel load: route the traffic
  pattern's flow matrix over the deterministic routing tables and find
  the most loaded channel; the network saturates when that channel
  reaches one flit per cycle.
* **Latency-load curve** — an M/D/1-style queueing knee on top of the
  zero-load latency, which reproduces the familiar hockey-stick shape.

The model is also useful as an independent cross-check of the
cycle-accurate simulator at small N (tested in tests/test_analysis.py).

Building the model at N = 1296 routes the full flow matrix over the
minimal-path tables — seconds of work that every figure repeats — so
:meth:`LargeScaleModel.build` memoizes its derived scalars in the
experiment engine's content-addressed cache (:mod:`repro.engine.store`),
keyed by the topology fingerprint, pattern, packet size, sample budget,
and seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from ..power.power import average_route_stats
from ..routing.paths import MinimalPaths
from ..sim.config import PACKET_FLITS, ROUTER_DELAY, SimConfig
from ..topos.base import Topology
from ..traffic import SyntheticSource
from .sweep import SweepPoint, SweepResult


@dataclass(frozen=True)
class LargeScaleModel:
    """Analytical latency/throughput model for one (network, pattern) pair."""

    topology: Topology
    pattern: str
    config: SimConfig
    packet_flits: int
    avg_hops: float
    avg_wire_hops: float
    max_channel_load_per_rate: float

    @classmethod
    def build(
        cls,
        topology: Topology,
        pattern: str,
        config: SimConfig | None = None,
        cache=None,
        samples: int | None = None,
        seed: int = 0,
        packet_flits: int = PACKET_FLITS,
    ) -> "LargeScaleModel":
        """Derive the model's scalars (hop/wire averages, worst-channel
        load), memoized in the content-addressed result store.

        ``cache`` is a :class:`repro.engine.ResultCache`, ``None`` for
        the environment-configured default (same knobs as the engine:
        ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE``), or ``False`` to
        always recompute; ``samples``/``seed`` control the randomized
        flow estimate (see :meth:`SyntheticSource.flows`).
        ``packet_flits`` sets the serialization and queueing terms; the
        router pipeline is :data:`~repro.sim.config.ROUTER_DELAY`.
        """
        if cache is None:
            from ..engine import default_engine

            cache = default_engine().cache  # None when REPRO_NO_CACHE is set
        elif cache is False:
            cache = None
        config = config if config is not None else SimConfig()
        probe = SyntheticSource(
            topology, pattern, rate=1.0, packet_flits=packet_flits, seed=seed
        )
        scalars = _model_scalars(topology, probe, cache, samples)
        return cls(
            topology=topology,
            pattern=pattern,
            config=config,
            packet_flits=packet_flits,
            avg_hops=scalars["avg_hops"],
            avg_wire_hops=scalars["avg_wire_hops"],
            max_channel_load_per_rate=scalars["max_channel_load_per_rate"],
        )

    @property
    def saturation_rate(self) -> float:
        """Offered load (flits/node/cycle) at which the worst channel hits 1."""
        if self.max_channel_load_per_rate == 0:
            return float("inf")
        return 1.0 / self.max_channel_load_per_rate

    def zero_load_latency(self) -> float:
        router_cycles = (self.avg_hops + 1) * ROUTER_DELAY
        link_cycles = max(
            self.avg_hops, self.avg_wire_hops / self.config.hops_per_cycle
        )
        serialization = self.packet_flits - 1
        nic = 2.0  # injection + ejection port crossing
        return router_cycles + link_cycles + serialization + nic

    def latency(self, rate: float) -> float:
        """M/D/1-style latency at an offered load in flits/node/cycle."""
        if rate < 0:
            raise ValueError("rate must be non-negative")
        base = self.zero_load_latency()
        utilization = rate / self.saturation_rate
        if utilization >= 1.0:
            return float("inf")
        queueing = self.packet_flits * utilization / (2.0 * (1.0 - utilization))
        return base + queueing * self.avg_hops

    def sweep(self, loads: list[float], name: str | None = None) -> SweepResult:
        """A SweepResult compatible with the cycle-accurate harness."""
        result = SweepResult(network=name or self.topology.name, pattern=self.pattern)
        for load in sorted(loads):
            latency = self.latency(load)
            saturated = math.isinf(latency)
            result.points.append(
                SweepPoint(
                    load=load,
                    latency=latency if not saturated else float("nan"),
                    throughput=min(load, self.saturation_rate),
                    saturated=saturated,
                )
            )
            if saturated:
                break
        return result


def _model_scalars(
    topology: Topology,
    probe: SyntheticSource,
    cache,
    samples: int | None,
) -> dict:
    """Hop/wire averages and worst-channel load, memoized per topology
    structure + pattern + sampling parameters."""
    key = None
    if cache is not None:
        from ..engine import topology_fingerprint

        effective_samples = (
            samples if samples is not None else probe.default_flow_samples()
        )
        ident = json.dumps(
            [
                "largescale-model",
                topology_fingerprint(topology),
                probe.pattern_name,
                probe.packet_flits,
                effective_samples,
                probe.seed,
            ],
            separators=(",", ":"),
        )
        key = hashlib.sha256(ident.encode("utf-8")).hexdigest()
        cached = cache.get_payload(key, kind="largescale-model")
        if cached is not None:
            return cached
    hops, wire_hops = average_route_stats(topology)
    paths = MinimalPaths(topology)
    # flows are per-router flit rates at offered load 1.0 flit/node/cycle;
    # the busiest channel's load scales linearly with the rate.
    scalars = {
        "avg_hops": hops,
        "avg_wire_hops": wire_hops,
        "max_channel_load_per_rate": paths.max_channel_load(
            probe.flows(samples=samples)
        ),
    }
    if cache is not None and key is not None:
        cache.put_payload(key, kind="largescale-model", result=scalars)
    return scalars


def model_curves(
    topologies: dict[str, Topology],
    pattern: str,
    loads: list[float],
    config: SimConfig | None = None,
    cache=None,
    seed: int = 0,
    packet_flits: int = PACKET_FLITS,
) -> dict[str, SweepResult]:
    """Analytical counterpart of :func:`repro.analysis.compare_networks`
    for the N = 1296 class, sharing the engine's result cache."""
    return {
        label: LargeScaleModel.build(
            topo, pattern, config, cache=cache, seed=seed, packet_flits=packet_flits
        ).sweep(loads, name=label)
        for label, topo in topologies.items()
    }
