"""Slim NoC core: MMS graphs, configurations, layouts, and cost models."""

from .costmodel import (
    BufferBudget,
    average_wire_length,
    edge_buffer_flits,
    link_distance_histogram,
    per_router_central_buffer,
    per_router_edge_buffers,
    round_trip_cycles,
    total_central_buffers,
    total_edge_buffers,
)
from .layouts import LAYOUTS, layout_coordinates
from .mms import MMSGraph, MMSParams, RouterLabel, generator_sets, mms_graph, mms_params
from .placement import max_wire_crossings, technology_wire_limit, wire_crossing_counts
from .slimnoc import (
    SN_1024,
    SN_L,
    SN_S,
    SlimNoC,
    SlimNoCConfig,
    config_for,
    enumerate_configurations,
    sn_large,
    sn_power_of_two,
    sn_small,
)

__all__ = [
    "MMSGraph",
    "MMSParams",
    "RouterLabel",
    "mms_graph",
    "mms_params",
    "generator_sets",
    "SlimNoC",
    "SlimNoCConfig",
    "config_for",
    "enumerate_configurations",
    "sn_small",
    "sn_large",
    "sn_power_of_two",
    "SN_S",
    "SN_L",
    "SN_1024",
    "LAYOUTS",
    "layout_coordinates",
    "wire_crossing_counts",
    "max_wire_crossings",
    "technology_wire_limit",
    "round_trip_cycles",
    "edge_buffer_flits",
    "average_wire_length",
    "total_edge_buffers",
    "total_central_buffers",
    "per_router_edge_buffers",
    "per_router_central_buffer",
    "link_distance_histogram",
    "BufferBudget",
]
