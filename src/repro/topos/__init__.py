"""Baseline topologies and the Table 4 configuration catalog."""

from .base import Topology, topology_fingerprint
from .catalog import catalog_symbols, cycle_time_ns, expected_nodes, make_network
from .dragonfly import Dragonfly
from .flattened_butterfly import FlattenedButterfly, PartitionedFBF
from .folded_clos import FoldedClos
from .grids import ConcentratedMesh, Torus2D

__all__ = [
    "Topology",
    "topology_fingerprint",
    "Torus2D",
    "ConcentratedMesh",
    "FlattenedButterfly",
    "PartitionedFBF",
    "Dragonfly",
    "FoldedClos",
    "make_network",
    "catalog_symbols",
    "expected_nodes",
    "cycle_time_ns",
]
