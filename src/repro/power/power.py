"""Static (leakage) and dynamic power models.

Static power follows the area model's components; dynamic power is
activity-based: every flit pays a buffer write+read and a crossbar
traversal at each router it visits, plus wire energy proportional to the
millimetres it travels.  Activity is expressed as an injection rate in
flits/node/cycle together with the topology's average hop count and
average wire length — exactly the quantities the section 3.2 cost model
exposes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..topos.base import Topology, route_totals
from .area import (
    FLIT_BITS,
    allocator_area_mm2,
    crossbar_area_mm2,
    router_buffer_flits,
    total_wire_mm,
)
from .technology import Technology, tile_side_mm


@dataclass(frozen=True)
class PowerReport:
    """Watts by component."""

    buffers: float
    crossbars: float
    wires: float

    @property
    def routers(self) -> float:
        return self.buffers + self.crossbars

    @property
    def total(self) -> float:
        return self.buffers + self.crossbars + self.wires

    def per_node(self, num_nodes: int) -> float:
        return self.total / num_nodes


def static_power(
    topology: Topology,
    tech: Technology,
    vcs: int = 2,
    hops_per_cycle: int = 1,
    central_buffer_flits: int = 0,
    edge_buffer_flits: int | None = 5,
) -> PowerReport:
    """Leakage power of the whole network."""
    buffers = router_buffer_flits(
        topology, vcs, hops_per_cycle, central_buffer_flits, edge_buffer_flits
    )
    buffer_leak = sum(buffers) * FLIT_BITS * tech.sram_bit_leakage_w
    radix = topology.router_radix
    xbar_leak = topology.num_routers * (
        crossbar_area_mm2(tech, radix) * tech.xbar_leakage_w_per_mm2
        + allocator_area_mm2(tech, radix) * tech.allocator_leakage_w_per_mm2
    )
    wire_leak = total_wire_mm(topology, tech) * tech.wire_leakage_w_per_mm
    side = tile_side_mm(tech, topology.concentration)
    wire_leak += topology.num_nodes * 0.5 * side * tech.wire_leakage_w_per_mm
    return PowerReport(buffers=buffer_leak, crossbars=xbar_leak, wires=wire_leak)


def average_route_stats(topology: Topology) -> tuple[float, float]:
    """(average router hops, average wire hops) over uniform node pairs.

    Hops follow the deterministic minimal routing tables; wire hops sum
    the physical link lengths along those routes.  Both are read off the
    topology's memoised :func:`~repro.topos.base.route_totals`, so
    structurally identical networks built separately share one pass.
    """
    totals = route_totals(topology)
    nr = topology.num_routers
    pairs = nr * (nr - 1)
    return totals.hops / pairs, totals.wire / pairs


def dynamic_power(
    topology: Topology,
    tech: Technology,
    injection_rate: float,
    cycle_time_ns: float,
    *,
    vcs: int = 2,
    hops_per_cycle: int = 1,
    central_buffer_flits: int = 0,
    edge_buffer_flits: int | None = 5,
) -> PowerReport:
    """Dynamic power at a given offered load (flits/node/cycle).

    Two components, as in DSENT: activity energy (buffer accesses, a
    crossbar traversal that scales with the matrix crossbar's k^2 wire
    lengths, and per-mm wire switching) plus clock power for the router's
    clocked storage, which scales with total buffer bits and is why
    high-radix routers burn dynamic power even at fixed load.
    """
    if injection_rate < 0:
        raise ValueError("injection rate must be non-negative")
    hops, wire_hops = average_route_stats(topology)
    cycles_per_second = 1.0 / (cycle_time_ns * 1e-9)
    flits_per_second = topology.num_nodes * injection_rate * cycles_per_second
    bits_per_second = flits_per_second * FLIT_BITS
    routers_visited = hops + 1  # source router included
    buffers = router_buffer_flits(
        topology, vcs, hops_per_cycle, central_buffer_flits, edge_buffer_flits
    )
    buffer_bits = sum(buffers) * FLIT_BITS
    clock_power = buffer_bits * tech.clock_energy_j_per_bit * cycles_per_second
    buffer_power = bits_per_second * routers_visited * tech.buffer_energy_j_per_bit
    radix = topology.router_radix
    xbar_power = (
        bits_per_second
        * routers_visited
        * radix
        * radix
        * tech.xbar_energy_j_per_bit_per_port2
    )
    side = tile_side_mm(tech, topology.concentration)
    wire_mm = wire_hops * side + side  # route wires + node access
    wire_power = bits_per_second * wire_mm * tech.wire_energy_j_per_bit_mm
    return PowerReport(
        buffers=buffer_power + clock_power, crossbars=xbar_power, wires=wire_power
    )
