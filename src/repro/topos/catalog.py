"""The paper's evaluated network configurations (Table 4 + section 5.6).

``make_network`` builds any configuration by its Table 4 symbol
(``t2d3``, ``cm9``, ``fbf4``, ``pfbf8``, …) or the Slim NoC size aliases
(``sn54``, ``sn200``, ``sn1024``, ``sn1296``), once per process: every
call with the same symbol and layout returns the same shared object, so
topologies must not be mutated.  ``cycle_time_ns`` returns
the per-topology router clock the paper assigns to account for crossbar
size (section 5.1).
"""

from __future__ import annotations

from collections.abc import Callable

from ..core.slimnoc import SlimNoC
from .base import Topology
from .dragonfly import Dragonfly
from .flattened_butterfly import FlattenedButterfly, PartitionedFBF
from .folded_clos import FoldedClos
from .grids import ConcentratedMesh, Torus2D

#: Router cycle times per topology family (section 5.1 "Cycle Times").
CYCLE_TIME_NS = {
    "sn": 0.5,
    "pfbf": 0.5,
    "t2d": 0.4,
    "cm": 0.4,
    "fbf": 0.6,
    "df": 0.5,
    "clos": 0.5,
}


def cycle_time_ns(name: str) -> float:
    """Cycle time for a catalog symbol (prefix-matched: ``fbf3`` -> ``fbf``)."""
    for prefix in sorted(CYCLE_TIME_NS, key=len, reverse=True):
        if name.startswith(prefix):
            return CYCLE_TIME_NS[prefix]
    raise ValueError(f"no cycle time known for {name!r}")


def _sn(q: int, p: int, layout: str) -> Callable[[], Topology]:
    return lambda: SlimNoC(q, p, layout=layout)


#: Table 4 plus the section 5.6 small-scale (N=54) class.  Each entry maps
#: the paper's symbol to (constructor, node count).
_CATALOG: dict[str, tuple[Callable[[], Topology], int]] = {
    # --- N in {192, 200} -------------------------------------------------
    "t2d3": (lambda: Torus2D(8, 8, 3, name="t2d3"), 192),
    "t2d4": (lambda: Torus2D(10, 5, 4, name="t2d4"), 200),
    "cm3": (lambda: ConcentratedMesh(8, 8, 3, name="cm3"), 192),
    "cm4": (lambda: ConcentratedMesh(10, 5, 4, name="cm4"), 200),
    "fbf3": (lambda: FlattenedButterfly(8, 8, 3, name="fbf3"), 192),
    "fbf4": (lambda: FlattenedButterfly(10, 5, 4, name="fbf4"), 200),
    "pfbf3": (lambda: PartitionedFBF(4, 4, 2, 2, 3, name="pfbf3"), 192),
    "pfbf4": (lambda: PartitionedFBF(5, 5, 2, 1, 4, name="pfbf4"), 200),
    "sn200": (_sn(5, 4, "sn_subgr"), 200),
    # --- N = 1296 ---------------------------------------------------------
    "t2d9": (lambda: Torus2D(12, 12, 9, name="t2d9"), 1296),
    "t2d8": (lambda: Torus2D(18, 9, 8, name="t2d8"), 1296),
    "cm9": (lambda: ConcentratedMesh(12, 12, 9, name="cm9"), 1296),
    "cm8": (lambda: ConcentratedMesh(18, 9, 8, name="cm8"), 1296),
    "fbf9": (lambda: FlattenedButterfly(12, 12, 9, name="fbf9"), 1296),
    "fbf8": (lambda: FlattenedButterfly(18, 9, 8, name="fbf8"), 1296),
    "pfbf9": (lambda: PartitionedFBF(6, 6, 2, 2, 9, name="pfbf9"), 1296),
    "pfbf8": (lambda: PartitionedFBF(9, 9, 2, 1, 8, name="pfbf8"), 1296),
    "sn1296": (_sn(9, 8, "sn_subgr"), 1296),
    # --- N = 1024 (power-of-two design) -----------------------------------
    "sn1024": (_sn(8, 8, "sn_subgr"), 1024),
    # --- N = 54 (section 5.6, KNL-scale) -----------------------------------
    "sn54": (_sn(3, 3, "sn_subgr"), 54),
    # q=3 with the paper's p=4 concentration: 72 nodes over the same
    # 18-router MMS graph as sn54 — the CI-sized adaptive-study network.
    "sn72": (_sn(3, 4, "sn_subgr"), 72),
    "t2d54": (lambda: Torus2D(6, 3, 3, name="t2d54"), 54),
    "cm54": (lambda: ConcentratedMesh(6, 3, 3, name="cm54"), 54),
    "fbf54": (lambda: FlattenedButterfly(6, 3, 3, name="fbf54"), 54),
    "pfbf54": (lambda: PartitionedFBF(3, 3, 2, 1, 3, name="pfbf54"), 54),
    # --- auxiliary comparison points ---------------------------------------
    "df200": (lambda: Dragonfly(2, concentration=6, name="df200"), 216),
    "clos200": (lambda: FoldedClos(50, 10, 4, name="clos200"), 200),
    "clos1296": (lambda: FoldedClos(162, 18, 8, name="clos1296"), 1296),
}


def catalog_symbols() -> list[str]:
    """All known configuration symbols."""
    return sorted(_CATALOG)


#: The networks built so far, one per ``(symbol, layout)`` key.
_NETWORKS: dict[tuple[str, str | None], Topology] = {}


def make_network(symbol: str, layout: str | None = None) -> Topology:
    """The catalog network ``symbol``; ``layout`` overrides the SN layout.

    Each ``(symbol, layout)`` key is built once per process and the same
    object is returned on every later call, so the structure it derives
    (adjacency, coordinates, link table, fingerprint) is derived once.
    Topologies are immutable values: callers must not mutate the result.
    """
    key = (symbol, layout)
    topology = _NETWORKS.get(key)
    if topology is not None:
        return topology
    if symbol not in _CATALOG:
        raise ValueError(f"unknown network {symbol!r}; options: {catalog_symbols()}")
    topology = _CATALOG[symbol][0]()
    if layout is not None:
        if not isinstance(topology, SlimNoC):
            raise ValueError(f"{symbol!r} has a fixed layout; only SN accepts one")
        topology = topology.with_layout(layout)
    _NETWORKS[key] = topology
    return topology


def expected_nodes(symbol: str) -> int:
    """The node count the paper lists for a catalog symbol."""
    return _CATALOG[symbol][1]
