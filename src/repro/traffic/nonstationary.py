"""Non-stationary synthetic traffic: bursts, hotspots, transient swaps.

Three time- or space-varying variants of :class:`SyntheticSource`, built
for the adaptive-routing study (paper section 6 / Figure 20): static
minimal routing looks fine under smooth Bernoulli injection and falls
apart when the offered load moves — which is exactly what these model.

* :class:`BurstSource` — on/off phases: the *mean* offered load is the
  configured rate, delivered as bursts at ``period / on_cycles`` times
  that rate during on-phases and ``off_load`` between them.
* :class:`HotspotSource` — a fraction of all traffic is redirected to a
  small fixed set of hotspot nodes; the rest follows the base pattern.
* :class:`TransientSource` — the active pattern is swapped every
  ``period`` cycles (e.g. ``ADV1`` then ``ADV2``), so any routing state
  tuned to one permutation goes stale on a schedule.

No variant has an injection loop of its own.  Each overrides one
per-cycle hook of :meth:`SyntheticSource.packets_at` — the burst its
injection probability, the hotspot and transient sources their
destination function — so the draw discipline is structural: one
``rng.random()`` per node per cycle, in node order, extra draws only
inside the injection branch.  Injection decisions are reproducible and
burst phase boundaries are *exact*: an off-phase with ``off_load=0``
injects nothing, ever, not merely rarely.
"""

from __future__ import annotations

import math
import random

from ..topos.base import Topology
from .synthetic import RANDOMIZED_PATTERNS, PatternFn, SyntheticSource, make_pattern


class BurstSource(SyntheticSource):
    """On/off bursty injection with an exact phase schedule.

    Args:
        topology: Target network.
        pattern: Base pattern name (destinations are drawn from it in
            both phases).
        rate: **Mean** offered load in flits/node/cycle, so burst curves
            are directly comparable to steady curves at the same x-axis
            value.  The on-phase rate is scaled up to compensate for the
            off-phase deficit.
        on_cycles / off_cycles: Phase lengths; the schedule has period
            ``on_cycles + off_cycles``.
        off_load: Offered load during off-phases (default 0 — silence).
        phase: Cycle offset of the schedule (``phase=0`` starts bursting
            at cycle 0).
    """

    def __init__(
        self,
        topology: Topology,
        pattern: str,
        rate: float,
        packet_flits: int = 6,
        on_cycles: int = 64,
        off_cycles: int = 192,
        off_load: float = 0.0,
        phase: int = 0,
        seed: int = 0,
    ):
        super().__init__(topology, pattern, rate, packet_flits, seed=seed)
        if on_cycles < 1:
            raise ValueError("on_cycles must be >= 1")
        if off_cycles < 0:
            raise ValueError("off_cycles must be >= 0")
        if off_load < 0:
            raise ValueError("off_load must be non-negative")
        self.on_cycles = on_cycles
        self.off_cycles = off_cycles
        self.off_load = off_load
        self.phase = phase
        self.period = on_cycles + off_cycles
        off_fraction = off_cycles / self.period
        peak = (rate - off_load * off_fraction) * self.period / on_cycles
        if peak < 0:
            raise ValueError(
                f"off_load={off_load:g} over {off_cycles} cycles already "
                f"exceeds the mean rate {rate:g}"
            )
        if peak > packet_flits:
            raise ValueError(
                f"on-phase load {peak:g} exceeds the injection ceiling of "
                f"{packet_flits} flits/node/cycle (1 packet/cycle); lower "
                "the mean rate or lengthen on_cycles"
            )
        self.peak_load = peak
        self._on_probability = peak / packet_flits
        self._off_probability = off_load / packet_flits

    def in_burst(self, cycle: int) -> bool:
        """Exact phase predicate: True iff ``cycle`` is in an on-phase."""
        return (cycle + self.phase) % self.period < self.on_cycles

    def _probability_at(self, cycle: int) -> float:
        return self._on_probability if self.in_burst(cycle) else self._off_probability


class HotspotSource(SyntheticSource):
    """Background pattern plus a fixed set of hotspot destinations.

    Each injected packet targets a hotspot with probability ``fraction``
    (uniform over ``hotspots``) and the base pattern otherwise, so the
    destination mass splits exactly ``fraction`` : ``1 - fraction`` and
    :attr:`hotspot_weights` sums to 1 over the hotspot set.
    """

    def __init__(
        self,
        topology: Topology,
        pattern: str,
        rate: float,
        packet_flits: int = 6,
        hotspots: tuple[int, ...] = (0,),
        fraction: float = 0.25,
        seed: int = 0,
    ):
        super().__init__(topology, pattern, rate, packet_flits, seed=seed)
        hotspots = tuple(sorted(set(hotspots)))
        if not hotspots:
            raise ValueError("need at least one hotspot node")
        if not all(0 <= node < topology.num_nodes for node in hotspots):
            raise ValueError(
                f"hotspots {hotspots} out of range for {topology.num_nodes} nodes"
            )
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        self.hotspots = hotspots
        self.fraction = fraction

    @property
    def hotspot_weights(self) -> dict[int, float]:
        """Per-hotspot share of the redirected mass (sums to 1)."""
        share = 1.0 / len(self.hotspots)
        return {node: share for node in self.hotspots}

    def destination_mass(self) -> dict[str, float]:
        """Split of the total destination mass (sums to 1)."""
        return {"hotspot": self.fraction, "background": 1.0 - self.fraction}

    def _draw_destination(self, src: int, rng: random.Random) -> int:
        if rng.random() < self.fraction:
            return self.hotspots[rng.randrange(len(self.hotspots))]
        return self.pattern(src, rng)

    def _destination_at(self, cycle: int) -> PatternFn:
        return self._draw_destination

    def default_flow_samples(self) -> int:
        if self.fraction == 0.0:
            return super().default_flow_samples()
        # The hotspot draw randomizes even deterministic base patterns.
        return max(200, 16 * math.isqrt(self.topology.num_nodes))

    def flows(self, samples: int | None = None) -> dict[tuple[int, int], float]:
        """Background mass is sampled; hotspot mass is added exactly."""
        topo = self.topology
        flows: dict[tuple[int, int], float] = {}
        rng = random.Random(self.seed)
        samples = samples if samples is not None else self.default_flow_samples()
        background = self.rate * (1.0 - self.fraction) / samples
        weights = self.hotspot_weights
        for src in range(topo.num_nodes):
            src_router = topo.node_router(src)
            for _ in range(samples):
                dst = self.pattern(src, rng)
                if dst == src:
                    continue
                key = (src_router, topo.node_router(dst))
                flows[key] = flows.get(key, 0.0) + background
            for node, weight in weights.items():
                if node == src:
                    continue
                key = (src_router, topo.node_router(node))
                flows[key] = flows.get(key, 0.0) + self.rate * self.fraction * weight
        return flows


class TransientSource(SyntheticSource):
    """Pattern swapped on a fixed schedule: ``patterns[k]`` is active for
    cycles ``[k * period, (k + 1) * period)``, cycling."""

    def __init__(
        self,
        topology: Topology,
        patterns: tuple[str, ...],
        rate: float,
        packet_flits: int = 6,
        period: int = 256,
        phase: int = 0,
        seed: int = 0,
    ):
        patterns = tuple(patterns)
        if not patterns:
            raise ValueError("need at least one pattern")
        if period < 1:
            raise ValueError("period must be >= 1")
        super().__init__(topology, patterns[0], rate, packet_flits, seed=seed)
        self.patterns = patterns
        self.period = period
        self.phase = phase
        self.pattern_name = "+".join(patterns)
        self._pattern_fns = tuple(make_pattern(p, topology) for p in patterns)

    def active_index(self, cycle: int) -> int:
        """Index into :attr:`patterns` of the pattern active at ``cycle``."""
        return (cycle + self.phase) // self.period % len(self.patterns)

    def _destination_at(self, cycle: int) -> PatternFn:
        return self._pattern_fns[self.active_index(cycle)]

    def default_flow_samples(self) -> int:
        if not any(name in RANDOMIZED_PATTERNS for name in self.patterns):
            return 1
        return max(200, 16 * math.isqrt(self.topology.num_nodes))

    def flows(self, samples: int | None = None) -> dict[tuple[int, int], float]:
        """Time-averaged flow matrix: each pattern contributes equally."""
        topo = self.topology
        flows: dict[tuple[int, int], float] = {}
        rng = random.Random(self.seed)
        samples = samples if samples is not None else self.default_flow_samples()
        weight = self.rate / (len(self._pattern_fns) * samples)
        for fn in self._pattern_fns:
            for src in range(topo.num_nodes):
                src_router = topo.node_router(src)
                for _ in range(samples):
                    dst = fn(src, rng)
                    if dst == src:
                        continue
                    key = (src_router, topo.node_router(dst))
                    flows[key] = flows.get(key, 0.0) + weight
        return flows
