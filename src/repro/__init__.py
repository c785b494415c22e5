"""repro — Slim NoC (ASPLOS'18) reproduction library.

A complete reimplementation of the Slim NoC system: MMS diameter-2 graphs
over prime and non-prime finite fields, NoC placement/buffer/cost models,
four physical layouts, a flit-level cycle-accurate simulator (edge-buffer
and central-buffer routers, elastic and SMART links), baseline topologies
(torus, concentrated mesh, Flattened Butterfly, partitioned FBF,
Dragonfly, folded Clos), synthetic and PARSEC/SPLASH-like traffic, and
analytical area/power/energy models.

Quickstart::

    from repro import SlimNoC, NoCSimulator, SyntheticSource

    sn = SlimNoC(q=5, concentration=4, layout="sn_subgr")  # SN-S, 200 nodes
    sim = NoCSimulator(sn)
    result = sim.run(SyntheticSource(sn, "RND", rate=0.05))
    print(result.avg_latency, result.throughput)
"""

from .analysis import (
    LargeScaleModel,
    SweepResult,
    compare_networks,
    format_table,
    geometric_mean,
    relative_improvement,
)
from .core import (
    SlimNoC,
    SlimNoCConfig,
    enumerate_configurations,
    mms_graph,
    sn_large,
    sn_power_of_two,
    sn_small,
)
from .engine import (
    ExperimentEngine,
    ExperimentSpec,
    ResultCache,
    default_engine,
)
from .fields import FiniteField, finite_field
from .power import (
    TECH_22NM,
    TECH_45NM,
    EnergyMetrics,
    dynamic_power,
    make_metrics,
    network_area,
    static_power,
)
from .routing import (
    DimensionOrderRouting,
    StaticMinimalRouting,
    UGALRouting,
    default_routing,
)
from .sim import BUFFERING_STRATEGIES, NoCSimulator, SimConfig, SimResult, cbr
from .topos import (
    ConcentratedMesh,
    Dragonfly,
    FlattenedButterfly,
    FoldedClos,
    PartitionedFBF,
    Topology,
    Torus2D,
    cycle_time_ns,
    make_network,
)
from .traffic import SyntheticSource, WorkloadSource, workload_names

__version__ = "1.0.0"

__all__ = [
    "SlimNoC",
    "SlimNoCConfig",
    "enumerate_configurations",
    "mms_graph",
    "sn_small",
    "sn_large",
    "sn_power_of_two",
    "FiniteField",
    "finite_field",
    "Topology",
    "Torus2D",
    "ConcentratedMesh",
    "FlattenedButterfly",
    "PartitionedFBF",
    "Dragonfly",
    "FoldedClos",
    "make_network",
    "cycle_time_ns",
    "NoCSimulator",
    "SimConfig",
    "SimResult",
    "cbr",
    "BUFFERING_STRATEGIES",
    "StaticMinimalRouting",
    "DimensionOrderRouting",
    "UGALRouting",
    "default_routing",
    "SyntheticSource",
    "WorkloadSource",
    "workload_names",
    "network_area",
    "static_power",
    "dynamic_power",
    "EnergyMetrics",
    "make_metrics",
    "TECH_45NM",
    "TECH_22NM",
    "compare_networks",
    "SweepResult",
    "LargeScaleModel",
    "ExperimentSpec",
    "ExperimentEngine",
    "ResultCache",
    "default_engine",
    "geometric_mean",
    "relative_improvement",
    "format_table",
]
