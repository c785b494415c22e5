"""Load sweeps and saturation analysis over the cycle-accurate simulator.

The paper's latency-load figures (10-14, 19) sweep injection rate and
plot average packet latency until the network saturates ("we omit
performance data for points after network saturation").  This module
reproduces that methodology: simulate a list of loads, stop at the first
saturated point, and report the curve plus derived metrics (zero-load
latency, saturation throughput).

Sweeps are submitted through the experiment engine
(:mod:`repro.engine`): every (topology, pattern, load, config, seed)
point is content-addressed, so repeated figure reproduction is served
from the on-disk cache, and the default engine fans the points across
one worker process per available CPU (``REPRO_WORKERS`` sets the count;
pass an ``engine`` to choose another).
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

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepPoint":
        return cls(
            load=payload["load"],
            latency=payload["latency"],
            throughput=payload["throughput"],
            saturated=payload["saturated"],
        )


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

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepResult":
        return cls(
            network=payload["network"],
            pattern=payload["pattern"],
            points=[SweepPoint.from_dict(p) for p in payload["points"]],
        )


def sweep_loads(
    topology: Topology | str,
    pattern: str,
    loads: list[float],
    config: SimConfig | None = None,
    routing: str = "default",
    packet_flits: int = 6,
    warmup: int = 300,
    measure: int = 800,
    drain: int = 1500,
    seed: int = 1,
    stop_after_saturation: bool = True,
    name: str | None = None,
    engine=None,
) -> SweepResult:
    """Run the simulator across ``loads`` (flits/node/cycle), low to high.

    ``topology`` may be a live :class:`Topology` or a catalog symbol;
    ``routing`` names a scheme in :data:`repro.engine.ROUTING_BUILDERS`;
    ``engine`` overrides the default (env-configured) experiment engine.
    """
    from ..engine import default_engine, run_sweep

    return run_sweep(
        engine if engine is not None else default_engine(),
        topology,
        pattern,
        loads,
        config=config,
        packet_flits=packet_flits,
        routing=routing,
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain=drain,
        stop_after_saturation=stop_after_saturation,
        name=name,
    )


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
