"""PARSEC/SPLASH-2 workload models (trace substitution — see DESIGN.md).

The paper drives its real-traffic experiments with Manifold+DRAMSim2
traces of 14 PARSEC/SPLASH benchmarks captured behind the L1 (section
5.1): read requests and coherence messages are 2 flits, writes 6 flits,
and every read triggers a 6-flit reply from the destination.

Those traces are not redistributable, so this module generates synthetic
message streams with the same mechanics (message mix, sizes, causality)
and per-benchmark parameters — injection intensity, read fraction,
locality, and burstiness — chosen to spread the workload space the way
the PARSEC/SPLASH suite does (memory-bound ocean/radix at the top,
compute-bound water/volrend at the bottom).  Every benchmark's stream is
deterministic given the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..topos.base import Topology

READ_FLITS = 2
WRITE_FLITS = 6
REPLY_FLITS = 6


@dataclass(frozen=True)
class WorkloadSpec:
    """Traffic model parameters for one benchmark.

    Attributes:
        name: Benchmark name (paper Figure 10b / 18 / Table 6 labels).
        intensity: Mean L1-miss messages per node per 100 cycles.
        read_fraction: Share of request messages that are reads/coherence
            (2 flits, reply-generating) versus writes (6 flits, no reply).
        locality: Probability a request targets the node's neighborhood
            (directory-style striding) rather than a uniform destination.
        burstiness: 0 = Bernoulli; >0 adds on/off phases of this relative
            amplitude (memory-phase behaviour).
    """

    name: str
    intensity: float
    read_fraction: float
    locality: float
    burstiness: float


#: The 14 PARSEC/SPLASH workloads the paper evaluates, ordered as in
#: Figure 10b.  Intensities follow the well-known ranking of NoC load
#: for these suites (ocean/radix/fft memory-heavy; water/volrend light).
WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in [
        WorkloadSpec("barnes", 1.6, 0.75, 0.35, 0.3),
        WorkloadSpec("canneal", 2.4, 0.80, 0.10, 0.2),
        WorkloadSpec("cholesky", 1.8, 0.70, 0.40, 0.4),
        WorkloadSpec("dedup", 2.0, 0.65, 0.25, 0.5),
        WorkloadSpec("ferret", 1.9, 0.70, 0.30, 0.3),
        WorkloadSpec("fft", 2.8, 0.72, 0.15, 0.6),
        WorkloadSpec("fluidanimate", 1.5, 0.68, 0.45, 0.3),
        WorkloadSpec("ocean-c", 3.2, 0.74, 0.20, 0.5),
        WorkloadSpec("radiosity", 1.4, 0.76, 0.40, 0.2),
        WorkloadSpec("radix", 3.0, 0.66, 0.10, 0.7),
        WorkloadSpec("streamcluster", 2.2, 0.78, 0.20, 0.4),
        WorkloadSpec("vips", 1.7, 0.70, 0.30, 0.3),
        WorkloadSpec("volrend", 1.2, 0.75, 0.50, 0.2),
        WorkloadSpec("water-s", 1.1, 0.72, 0.50, 0.2),
    ]
}


def workload_names() -> list[str]:
    return list(WORKLOADS)


class WorkloadSource:
    """Simulator feed for one benchmark model.

    Reads (2 flits) request a 6-flit reply from the destination —
    exercising the variable-packet-size and request/reply machinery the
    paper's trace runs exercise.  Destinations mix a local stride
    (directory home on a neighboring router) with uniform sharing misses.
    """

    def __init__(
        self,
        topology: Topology,
        benchmark: str,
        seed: int = 0,
        intensity_scale: float = 1.0,
    ):
        if benchmark not in WORKLOADS:
            raise ValueError(f"unknown benchmark {benchmark!r}; see workload_names()")
        self.topology = topology
        self.spec = WORKLOADS[benchmark]
        self.seed = seed
        self.intensity_scale = intensity_scale
        self._phase_rng = random.Random(seed ^ 0x5EED)
        self._phase_until = 0
        self._phase_level = 1.0

    @property
    def rate(self) -> float:
        """Approximate offered flits/node/cycle (for reporting)."""
        spec = self.spec
        write_fraction = 1 - spec.read_fraction
        mean_flits = spec.read_fraction * READ_FLITS + write_fraction * WRITE_FLITS
        return self.intensity_scale * spec.intensity / 100.0 * mean_flits

    def _phase(self, cycle: int) -> float:
        """On/off modulation implementing burstiness."""
        if cycle >= self._phase_until:
            span = self._phase_rng.randint(200, 600)
            self._phase_until = cycle + span
            high = 1.0 + self.spec.burstiness
            low = max(0.1, 1.0 - self.spec.burstiness)
            self._phase_level = high if self._phase_rng.random() < 0.5 else low
        return self._phase_level

    def packets_at(self, cycle: int, rng: random.Random):
        spec = self.spec
        probability = self.intensity_scale * spec.intensity / 100.0 * self._phase(cycle)
        locality = spec.locality
        read_fraction = spec.read_fraction
        n = self.topology.num_nodes
        window = max(2, n // 16)
        draw = rng.random
        randrange = rng.randrange
        for src in range(n):
            if draw() >= probability:
                continue
            if draw() < locality:
                # Directory home: deterministic stride within a nearby window.
                dst = (src + 1 + randrange(window)) % n
            else:
                # Uniform sharing miss over every other node.
                dst = randrange(n - 1)
                dst = dst if dst < src else dst + 1
            if dst == src:
                continue
            if draw() < read_fraction:
                yield (src, dst, READ_FLITS, "read", True, REPLY_FLITS)
            else:
                yield (src, dst, WRITE_FLITS, "write", False, 0)
