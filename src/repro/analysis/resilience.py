"""Link-failure resilience analysis.

The paper (section 2.1) attributes Slim Fly/Slim NoC's "high resilience
to link failures" to the underlying graphs being good expanders.  This
module quantifies that: remove a random fraction of links and measure
connectivity, diameter growth, and average-path-length growth.  An
expander degrades gracefully (diameter stays near 2-3); a torus or mesh
partitions or stretches quickly at the same failure rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..topos.base import Topology, all_pairs_hops


@dataclass(frozen=True)
class ResilienceReport:
    """Degradation metrics after removing ``failed_links`` links."""

    failed_links: int
    total_links: int
    connected: bool
    diameter: int | None
    average_path: float | None


def failed_links(
    topology: Topology, fail_fraction: float, seed: int = 0
) -> set[tuple[int, int]]:
    """The links :func:`degrade` removes: a seeded random sample of
    ``topology.edges()``, as ``(i, j)`` pairs with ``i < j``."""
    if not 0.0 <= fail_fraction < 1.0:
        raise ValueError("fail_fraction must be in [0, 1)")
    edges = topology.edges()
    rng = random.Random(seed)
    picked = rng.sample(range(len(edges)), int(fail_fraction * len(edges)))
    return {edges[index] for index in picked}


def degrade(
    topology: Topology, fail_fraction: float, seed: int = 0
) -> ResilienceReport:
    """Remove a random link fraction and measure what remains.

    Args:
        topology: Network under test (links are undirected).
        fail_fraction: Fraction of links to remove (0..1).
        seed: RNG seed for the failure pattern.
    """
    failures = failed_links(topology, fail_fraction, seed)
    edges = topology.edges()
    adjacency: list[list[int]] = [[] for _ in range(topology.num_routers)]
    for i, j in edges:
        if (i, j) in failures:
            continue
        adjacency[i].append(j)
        adjacency[j].append(i)

    hops = all_pairs_hops(adjacency)
    pairs = topology.num_routers * (topology.num_routers - 1)
    return ResilienceReport(
        failed_links=len(failures),
        total_links=len(edges),
        connected=hops.connected,
        diameter=hops.diameter if hops.connected else None,
        average_path=hops.total / pairs if hops.connected else None,
    )


def resilience_curve(
    topology: Topology,
    fractions: list[float],
    seeds: tuple[int, ...] = (0, 1, 2),
) -> dict[float, list[ResilienceReport]]:
    """Degradation reports across failure rates, several seeds each."""
    return {
        fraction: [degrade(topology, fraction, seed) for seed in seeds]
        for fraction in fractions
    }
