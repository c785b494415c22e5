"""Analytical area/power/energy models (DSENT substitution)."""

from .area import (
    AreaReport,
    crossbar_area_mm2,
    network_area,
    router_buffer_flits,
    total_wire_mm,
)
from .energy import EnergyMetrics, make_metrics, normalize
from .power import PowerReport, average_route_stats, dynamic_power, static_power
from .technology import TECH_22NM, TECH_45NM, Technology, technology, tile_side_mm

__all__ = [
    "Technology",
    "technology",
    "TECH_45NM",
    "TECH_22NM",
    "tile_side_mm",
    "AreaReport",
    "network_area",
    "crossbar_area_mm2",
    "router_buffer_flits",
    "total_wire_mm",
    "PowerReport",
    "static_power",
    "dynamic_power",
    "average_route_stats",
    "EnergyMetrics",
    "make_metrics",
    "normalize",
]
