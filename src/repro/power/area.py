"""Area model: routers (buffers, crossbar, allocators) and wires by layer.

Follows the paper's reporting breakdown (section 5.1 "Area and Power
Evaluation"): router area split into active-layer logic (``a-routers``:
buffers + allocators) and intermediate-layer structures (``i-routers``:
the crossbar), plus router-router wires on the global layer
(``RRg-wires``) and router-node wires (``RNg-wires``).

Buffer capacity per router comes from the section 3.2 cost model:
``Δeb`` for edge-buffer designs (SMART-aware), ``δcb + 2 k' |VC|`` for
central-buffer designs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.costmodel import per_router_central_buffer, per_router_edge_buffers
from ..topos.base import Topology
from .technology import Technology, tile_side_mm

FLIT_BITS = 128


@dataclass(frozen=True)
class AreaReport:
    """Network area in mm^2, by the paper's component breakdown."""

    a_routers: float  # active layer: buffers + allocators
    i_routers: float  # intermediate layer: crossbars
    rr_wires: float  # router-router wires (global layer)
    rn_wires: float  # router-node wires

    @property
    def total(self) -> float:
        return self.a_routers + self.i_routers + self.rr_wires + self.rn_wires

    def per_node_cm2(self, num_nodes: int) -> float:
        return self.total / num_nodes / 100.0


def router_buffer_flits(
    topology: Topology,
    vcs: int = 2,
    hops_per_cycle: int = 1,
    central_buffer_flits: int = 0,
    edge_buffer_flits: int | None = 5,
) -> list[int]:
    """Buffer capacity per router under the active buffering scheme.

    ``edge_buffer_flits`` is the per-(port, VC) depth; the paper's default
    router uses 5 (section 5.1).  Pass ``None`` for RTT-sized variable
    buffers (the EB-Var strategy, SMART-aware via ``hops_per_cycle``).
    """
    if central_buffer_flits > 0:
        per_router = per_router_central_buffer(topology, central_buffer_flits, vcs)
        return [per_router] * topology.num_routers
    if edge_buffer_flits is None:
        return per_router_edge_buffers(topology, vcs, hops_per_cycle)
    return [
        len(topology.router_neighbors(r)) * vcs * edge_buffer_flits
        for r in range(topology.num_routers)
    ]


def crossbar_area_mm2(tech: Technology, router_radix: int) -> float:
    """Matrix crossbar: (ports x flit-width x pitch)^2 — quadratic in radix."""
    side = router_radix * FLIT_BITS * tech.xbar_pitch_mm
    return side * side


def allocator_area_mm2(tech: Technology, router_radix: int) -> float:
    return tech.allocator_area_mm2_per_port2 * router_radix * router_radix


def total_wire_mm(topology: Topology, tech: Technology) -> float:
    """Sum of router-router wire lengths in mm (Manhattan placement)."""
    side = tile_side_mm(tech, topology.concentration)
    return sum(length for _, _, length in topology.link_lengths) * side


def network_area(
    topology: Topology,
    tech: Technology,
    vcs: int = 2,
    hops_per_cycle: int = 1,
    central_buffer_flits: int = 0,
    edge_buffer_flits: int | None = 5,
) -> AreaReport:
    """Full network area under one buffering scheme and technology."""
    buffers = router_buffer_flits(
        topology, vcs, hops_per_cycle, central_buffer_flits, edge_buffer_flits
    )
    buffer_area = sum(buffers) * FLIT_BITS * tech.sram_bit_area_mm2
    radix = topology.router_radix
    xbar_area = topology.num_routers * crossbar_area_mm2(tech, radix)
    alloc_area = topology.num_routers * allocator_area_mm2(tech, radix)
    rr_area = total_wire_mm(topology, tech) * FLIT_BITS * tech.wire_pitch_mm
    # Router-node wires: each node sits ~half a tile side from its router.
    side = tile_side_mm(tech, topology.concentration)
    rn_mm = topology.num_nodes * 0.5 * side
    rn_area = rn_mm * FLIT_BITS * tech.wire_pitch_mm
    return AreaReport(
        a_routers=buffer_area + alloc_area,
        i_routers=xbar_area,
        rr_wires=rr_area,
        rn_wires=rn_area,
    )
