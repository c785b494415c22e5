"""Common topology abstraction shared by Slim NoC and all baselines.

A :class:`Topology` is a set of routers with physical 2D grid coordinates,
router-router links, and a uniform *concentration* ``p`` (nodes per router).
Everything downstream — placement/cost models, the cycle-accurate
simulator, and the area/power models — consumes this interface, so the
paper's comparisons (Table 4) are apples-to-apples by construction.
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from collections.abc import Sequence
from functools import cached_property
from typing import NamedTuple

Coordinate = tuple[int, int]


class Topology(ABC):
    """Abstract direct network: routers + links + attached nodes.

    Concrete subclasses define :meth:`_build_adjacency` and
    :meth:`_build_coordinates`; the base class provides validated, cached
    derived quantities (diameter, hop distances, wire lengths, …).
    """

    #: Short identifier used in result tables (e.g. ``"sn_subgr"``, ``"fbf3"``).
    name: str = "topology"

    def __init__(self, concentration: int):
        if concentration < 1:
            raise ValueError("concentration must be >= 1")
        self._concentration = concentration

    # -- subclass responsibilities ----------------------------------------

    @abstractmethod
    def _build_adjacency(self) -> list[tuple[int, ...]]:
        """Neighbor lists, one tuple per router."""

    @abstractmethod
    def _build_coordinates(self) -> dict[int, Coordinate]:
        """1-based (x, y) grid coordinates, one per router."""

    # -- sizes -------------------------------------------------------------

    @property
    def concentration(self) -> int:
        """Nodes attached to each router (the paper's ``p``)."""
        return self._concentration

    @cached_property
    def adjacency(self) -> list[tuple[int, ...]]:
        adj = self._build_adjacency()
        linked = [set(neighbors) for neighbors in adj]
        for router, neighbors in enumerate(adj):
            if router in linked[router]:
                raise ValueError(f"router {router} has a self-loop")
            if len(linked[router]) != len(neighbors):
                raise ValueError(f"router {router} has duplicate links")
            for neighbor in neighbors:
                if router not in linked[neighbor]:
                    raise ValueError(f"link {router}->{neighbor} is not symmetric")
        return adj

    @property
    def num_routers(self) -> int:
        return len(self.adjacency)

    @property
    def num_nodes(self) -> int:
        return self.num_routers * self._concentration

    @property
    def network_radix(self) -> int:
        """Maximum router-router ports, the paper's ``k'``."""
        return max(len(n) for n in self.adjacency)

    @property
    def router_radix(self) -> int:
        """Total ports including node ports, the paper's ``k = k' + p``."""
        return self.network_radix + self._concentration

    # -- nodes ---------------------------------------------------------------

    def node_router(self, node: int) -> int:
        """Router to which ``node`` is attached."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range")
        return node // self._concentration

    def router_nodes(self, router: int) -> range:
        p = self._concentration
        return range(router * p, (router + 1) * p)

    # -- structure -----------------------------------------------------------

    def router_neighbors(self, router: int) -> tuple[int, ...]:
        return self.adjacency[router]

    def edges(self) -> list[tuple[int, int]]:
        """Undirected links as (i, j) with i < j."""
        return [
            (i, j)
            for i, neighbors in enumerate(self.adjacency)
            for j in neighbors
            if i < j
        ]

    @cached_property
    def coordinates(self) -> dict[int, Coordinate]:
        coords = self._build_coordinates()
        if len(coords) != self.num_routers:
            raise ValueError("coordinates must cover every router")
        if len(set(coords.values())) != len(coords):
            raise ValueError("two routers share a grid slot")
        return coords

    def grid_extent(self) -> tuple[int, int]:
        """(max x, max y) of the router grid."""
        xs = [c[0] for c in self.coordinates.values()]
        ys = [c[1] for c in self.coordinates.values()]
        return max(xs), max(ys)

    def link_length_hops(self, i: int, j: int) -> int:
        """Physical wire length of link (i, j) in router-grid hops."""
        xi, yi = self.coordinates[i]
        xj, yj = self.coordinates[j]
        return abs(xi - xj) + abs(yi - yj)

    @cached_property
    def link_lengths(self) -> list[tuple[int, int, int]]:
        """Every link once as ``(i, j, length)`` with ``i < j``, in
        :meth:`edges` order: the wire-length table that the fingerprint,
        the route totals and the cost models read.

        Built in one pass over adjacency and coordinates with the
        Manhattan metric of :meth:`link_length_hops`; a subclass that
        overrides that method (the torus's ring metric) gets its table
        from the override instead."""
        if type(self).link_length_hops is not Topology.link_length_hops:
            return [(i, j, self.link_length_hops(i, j)) for i, j in self.edges()]
        coords = self.coordinates
        table = []
        for i, neighbors in enumerate(self.adjacency):
            xi, yi = coords[i]
            for j in neighbors:
                if i < j:
                    xj, yj = coords[j]
                    table.append((i, j, abs(xi - xj) + abs(yi - yj)))
        return table

    @cached_property
    def fingerprint(self) -> str:
        """Stable structural identity; see :func:`topology_fingerprint`."""
        payload = {
            "class": type(self).__name__,
            "concentration": self.concentration,
            "routers": self.num_routers,
            "links": self.link_lengths,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]

    def average_wire_length(self) -> float:
        """Mean link length in hops — the paper's ``M`` (Eq. 4)."""
        links = self.link_lengths
        if not links:
            return 0.0
        return sum(length for _, _, length in links) / len(links)

    # -- graph metrics ---------------------------------------------------------

    @cached_property
    def hop_summary(self) -> HopSummary:
        """All-pairs shortest-path totals (:func:`all_pairs_hops`)."""
        return all_pairs_hops(self.adjacency)

    def _connected_hops(self) -> HopSummary:
        summary = self.hop_summary
        if not summary.connected:
            raise ValueError("topology is disconnected")
        return summary

    @property
    def diameter(self) -> int:
        return self._connected_hops().diameter

    def average_hop_distance(self) -> float:
        """Mean router-to-router shortest-path hops."""
        nr = self.num_routers
        return self._connected_hops().total / (nr * (nr - 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, routers={self.num_routers}, "
            f"nodes={self.num_nodes}, k'={self.network_radix})"
        )


def topology_fingerprint(topology: Topology) -> str:
    """Stable structural identity of a topology.

    Covers everything the simulator consumes: the concrete class (it
    selects the default routing scheme), concentration, and the link
    graph with per-link physical lengths (they set wire latencies and
    buffer depths).  Display names are deliberately excluded so renamed
    but structurally identical networks share cache entries.  Computed
    once per object and cached on it.
    """
    return topology.fingerprint


class HopSummary(NamedTuple):
    """Shortest-path totals over ordered pairs of distinct routers."""

    #: Sum of hop distances over the pairs that are connected.
    total: int
    #: The longest of those distances.
    diameter: int
    #: Whether every router reaches every other.
    connected: bool


def all_pairs_hops(adjacency: Sequence[Sequence[int]]) -> HopSummary:
    """:class:`HopSummary` of ``adjacency``, all sources expanded at once.

    Each router's reach set is a Python int with one bit per router.
    Level ``d`` ORs every neighbour's level ``d - 1`` set into a router's
    own, so the set then holds exactly the routers within ``d`` hops; the
    newly set bits are the pairs at distance ``d``.  A router whose set
    is already full drops out.  Distances do not depend on the routing
    tie-break, so this equals per-source BFS in sum, maximum and
    connectivity.
    """
    nr = len(adjacency)
    full = (1 << nr) - 1
    reach = [1 << router for router in range(nr)]
    active = [router for router in range(nr) if reach[router] != full]
    total = distance = 0
    while active:
        grown = []
        found = 0
        for router in active:
            before = reach[router]
            after = before
            for neighbor in adjacency[router]:
                after |= reach[neighbor]
            if after != before:
                found += after.bit_count() - before.bit_count()
                grown.append((router, after))
        if not found:  # only disconnected routers are left
            break
        distance += 1
        total += distance * found
        for router, after in grown:
            reach[router] = after
        active = [router for router, after in grown if after != full]
    return HopSummary(total, distance, all(r == full for r in reach))


def sorted_neighbors(topology: Topology) -> list[list[int]]:
    """Each router's neighbours in ascending order, for :func:`bfs_tree`."""
    return [sorted(neighbors) for neighbors in topology.adjacency]


def bfs_tree(neighbors: list[list[int]], root: int) -> tuple[list[int], list[int]]:
    """Breadth-first tree of ``root``: ``(visit order, parent)``.

    The tie-break of the minimal routing tables: ``neighbors`` lists are
    scanned in sorted order, the frontier is FIFO and the first setter
    wins, so each router's parent is the first visited of its neighbours
    one hop nearer ``root``.  ``parent[root]`` is -1; every parent
    precedes its children in the visit order.
    """
    nr = len(neighbors)
    parent = [-1] * nr
    parent[root] = root  # marks the root seen until the tree is done
    order = [root]
    for current in order:  # FIFO: the list grows while read
        for neighbor in neighbors[current]:
            if parent[neighbor] < 0:
                parent[neighbor] = current
                order.append(neighbor)
        if len(order) == nr:  # all seen: the last level sets no parent
            break
    else:
        raise ValueError("topology is disconnected")
    parent[root] = -1
    return order, parent


class RouteTotals(NamedTuple):
    """Sums over ordered router pairs of the deterministic minimal routes."""

    #: Router hops, i.e. shortest-path lengths.
    hops: int
    #: Wire hops: the link lengths along each route.
    wire: int


#: Route totals per topology structure (:func:`topology_fingerprint`):
#: the memo behind :func:`repro.power.average_route_stats`.
_ROUTE_TOTALS: dict[str, RouteTotals] = {}


def route_totals(topology: Topology) -> RouteTotals:
    """:class:`RouteTotals` of ``topology``, computed once per structure,
    so structurally identical networks built separately share one entry."""
    key = topology.fingerprint
    totals = _ROUTE_TOTALS.get(key)
    if totals is None:
        totals = _ROUTE_TOTALS[key] = _sum_routes(topology)
    return totals


def _sum_routes(topology: Topology) -> RouteTotals:
    """Router hops come from :attr:`Topology.hop_summary`.  Wire hops
    depend on the tie-break, so they take one BFS tree per destination,
    read in visit order: a router's route is its parent's route plus one
    link, so ``wire[v] = wire[p] + len(v, p)``.  Link lengths are
    integers, so every total is exact."""
    hops = topology.hop_summary
    nr = topology.num_routers
    length: list[dict[int, int]] = [{} for _ in range(nr)]
    for i, j, d in topology.link_lengths:
        length[i][j] = d
        length[j][i] = d
    neighbors = sorted_neighbors(topology)
    total_wire = 0
    for dst in range(nr):
        order, parent = bfs_tree(neighbors, dst)
        wire = [0] * nr
        for router in order[1:]:
            up = parent[router]
            wire[router] = wire[up] + length[router][up]
        total_wire += sum(wire)
    return RouteTotals(hops.total, total_wire)
