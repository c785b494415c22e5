"""Latency-load curves and saturation analysis over the cycle-accurate simulator.

The paper's latency-load figures (10-14, 19) sweep injection rate and
plot average packet latency until the network saturates ("we omit
performance data for points after network saturation").  This module
holds that curve (:class:`SweepResult`: the points up to and including
the first saturated one, plus the derived zero-load latency and
saturation throughput) and :func:`compare_networks`, the analysis entry
point for a grid of curves.

Every curve is computed by the engine's one staged loop,
:func:`repro.engine.campaign.run_curves`: each (topology, pattern, load,
config, seed) point is content-addressed, so repeated figure
reproduction is served from the store, and the default engine fans the
points of all curves across one worker process per available CPU
(``REPRO_WORKERS`` sets the count; pass an ``engine`` to choose another).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim import SimConfig
from ..topos.base import Topology


@dataclass(frozen=True)
class SweepPoint:
    load: float
    latency: float
    throughput: float
    saturated: bool

    def to_dict(self) -> dict:
        return {
            "load": self.load,
            "latency": self.latency,
            "throughput": self.throughput,
            "saturated": self.saturated,
        }


@dataclass
class SweepResult:
    """Latency/throughput curve for one (network, pattern, config) triple."""

    network: str
    pattern: str
    points: list[SweepPoint] = field(default_factory=list)

    @property
    def loads(self) -> list[float]:
        return [p.load for p in self.points]

    @property
    def latencies(self) -> list[float]:
        return [p.latency for p in self.points]

    def zero_load_latency(self) -> float:
        """Latency at the lowest measured load."""
        if not self.points:
            raise ValueError("empty sweep")
        return self.points[0].latency

    def saturation_throughput(self) -> float:
        """Highest accepted throughput before saturation."""
        accepted = [p.throughput for p in self.points if not p.saturated]
        return max(accepted) if accepted else 0.0

    def latency_at(self, load: float) -> float:
        """Latency at the sweep point closest to ``load``."""
        if not self.points:
            raise ValueError("empty sweep")
        return min(self.points, key=lambda p: abs(p.load - load)).latency

    def to_dict(self) -> dict:
        return {
            "network": self.network,
            "pattern": self.pattern,
            "points": [p.to_dict() for p in self.points],
        }


def compare_networks(
    topologies: dict[str, Topology | str],
    pattern: str,
    loads: list[float],
    configs: dict[str, SimConfig] | None = None,
    engine=None,
    **kwargs,
) -> dict[str, SweepResult]:
    """Sweep several networks under one pattern (Figures 12-14 layout).

    Submitted as one engine campaign: with a multi-worker engine the
    (network × load) grid runs in parallel, with per-network early stop.
    """
    from ..engine import default_engine, run_compare

    return run_compare(
        engine if engine is not None else default_engine(),
        topologies,
        pattern,
        loads,
        configs=configs,
        **kwargs,
    )
