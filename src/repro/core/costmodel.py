"""Buffer-size and cost models (paper sections 3.2.2-3.2.3, Eqs. 4-6).

All buffer quantities are expressed in flits with the paper's on-chip
normalisation ``b / L = 1`` flit per link cycle (128-bit links carrying
128-bit flits), so the edge-buffer size reduces to
``δij = Tij * |VC|`` flits with round-trip time
``Tij = 2 * ceil(dist / H) + 3`` (two router cycles + one serialisation
cycle; ``H`` hops per link cycle — 1 without SMART, ~9 with SMART at
45 nm / 1 GHz).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

from ..topos.base import Topology

#: SMART link reach at 1 GHz, 45 nm (paper section 5.1 sets H=9).
SMART_HOPS_PER_CYCLE = 9


def round_trip_cycles(distance_hops: int, hops_per_cycle: int = 1) -> int:
    """``Tij`` of the buffer model: link RTT plus pipeline overheads."""
    if distance_hops < 0:
        raise ValueError("distance must be non-negative")
    if hops_per_cycle < 1:
        raise ValueError("H must be >= 1")
    return 2 * math.ceil(distance_hops / hops_per_cycle) + 3


def edge_buffer_flits(distance_hops: int, vcs: int, hops_per_cycle: int = 1) -> int:
    """``δij = Tij * b * |VC| / L`` in flits (with b/L = 1 flit/cycle)."""
    return round_trip_cycles(distance_hops, hops_per_cycle) * vcs


#: Per-router edge-buffer totals of each live topology, per ``(vcs, H)``.
#: Weak keys: a table lives only as long as its topology.
_EDGE_BUFFERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _router_edge_buffers(
    topology: Topology, vcs: int, hops_per_cycle: int
) -> list[int]:
    """The shared per-router table; callers must not mutate it.  δij is
    worked out once per distinct link length, since links share a few."""
    tables = _EDGE_BUFFERS.setdefault(topology, {})
    totals = tables.get((vcs, hops_per_cycle))
    if totals is None:
        lengths = {length for _, _, length in topology.link_lengths}
        delta = {d: edge_buffer_flits(d, vcs, hops_per_cycle) for d in lengths}
        totals = [0] * topology.num_routers
        for i, j, length in topology.link_lengths:
            totals[i] += delta[length]
            totals[j] += delta[length]
        tables[vcs, hops_per_cycle] = totals
    return totals


def average_wire_length(topology: Topology) -> float:
    """The paper's ``M`` (Eq. 4): mean Manhattan link length in hops."""
    return topology.average_wire_length()


def total_edge_buffers(
    topology: Topology, vcs: int = 2, hops_per_cycle: int = 1
) -> int:
    """``Δeb`` (Eq. 5): sum of δij over all *directed* connected pairs.

    Eq. 5 iterates i and j over all routers, so each undirected link
    contributes a buffer at both of its endpoints.
    """
    return sum(_router_edge_buffers(topology, vcs, hops_per_cycle))


def total_central_buffers(topology: Topology, cb_flits: int, vcs: int = 2) -> int:
    """``Δcb`` (Eq. 6): ``Nr * (δcb + 2 k' |VC|)`` — CB plus I/O staging."""
    return topology.num_routers * (cb_flits + 2 * topology.network_radix * vcs)


def per_router_edge_buffers(
    topology: Topology, vcs: int = 2, hops_per_cycle: int = 1
) -> list[int]:
    """Total input-buffer flits at each router (Figure 5b/5c quantity),
    as a fresh list from a table kept per live topology."""
    return list(_router_edge_buffers(topology, vcs, hops_per_cycle))


def per_router_central_buffer(topology: Topology, cb_flits: int, vcs: int = 2) -> int:
    """One router's CB + staging total (the CBR20/CBR40 lines of Fig. 5)."""
    return cb_flits + 2 * topology.network_radix * vcs


def link_distance_histogram(
    topology: Topology, bin_width: int = 2
) -> dict[tuple[int, int], float]:
    """Probability mass per distance range (Figure 6).

    Returns ``{(lo, hi): probability}`` with half-open paper-style ranges
    "1-2", "3-4", ... expressed as inclusive (lo, hi) bounds.
    """
    links = topology.link_lengths
    if not links:
        return {}
    histogram: dict[tuple[int, int], int] = {}
    for _, _, dist in links:
        lo = ((max(dist, 1) - 1) // bin_width) * bin_width + 1
        bucket = (lo, lo + bin_width - 1)
        histogram[bucket] = histogram.get(bucket, 0) + 1
    total = len(links)
    return {bucket: count / total for bucket, count in sorted(histogram.items())}


@dataclass(frozen=True)
class BufferBudget:
    """Summary of a network's buffer cost under one buffering scheme."""

    scheme: str
    total_flits: int
    per_router_flits: float

    @classmethod
    def edge(
        cls, topology: Topology, vcs: int = 2, hops_per_cycle: int = 1
    ) -> "BufferBudget":
        total = total_edge_buffers(topology, vcs, hops_per_cycle)
        return cls("edge", total, total / topology.num_routers)

    @classmethod
    def central(cls, topology: Topology, cb_flits: int, vcs: int = 2) -> "BufferBudget":
        total = total_central_buffers(topology, cb_flits, vcs)
        return cls(f"cbr{cb_flits}", total, total / topology.num_routers)
