"""Reference implementations that tests check the library against.

Each is the plain, slow form of something the library computes another
way: per-source BFS for the bit-parallel all-pairs kernel, a walk over
every wire slot for the difference-array crossing counts, and a
standalone elastic link for the simulator's open-coded pipeline walk.
"""

from collections import Counter
from collections.abc import Sequence

from repro.core.placement import technology_wire_limit, x_dominant
from repro.sim.links import ElasticLink
from repro.topos.base import Coordinate, Topology


def hop_distances(adjacency: Sequence[Sequence[int]], source: int) -> list[int]:
    """BFS hop counts from ``source`` over ``adjacency``; -1 marks a router
    that ``source`` cannot reach."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    order = [source]
    for current in order:  # FIFO: the list grows while read
        step = dist[current] + 1
        for neighbor in adjacency[current]:
            if dist[neighbor] < 0:
                dist[neighbor] = step
                order.append(neighbor)
    return dist


def shortest_hops_from(topology: Topology, source: int) -> list[int]:
    """BFS hop counts from ``source`` to every router of a connected
    topology."""
    dist = hop_distances(topology.adjacency, source)
    if -1 in dist:
        raise ValueError("topology is disconnected")
    return dist


def wire_path(ci: Coordinate, cj: Coordinate) -> list[Coordinate]:
    """Every grid slot the wire from ``ci`` to ``cj`` passes over.

    Includes both endpoints and follows the Eq. 1/2 tie-break: when the
    X-span exceeds the Y-span the wire leaves ``ci`` vertically first,
    otherwise horizontally first.
    """
    xi, yi = ci
    xj, yj = cj
    slots: list[Coordinate] = []
    if x_dominant(ci, cj):
        # Leave i vertically first: (xi,yi) -> (xi,yj) -> (xj,yj).
        for y in _inclusive(yi, yj):
            slots.append((xi, y))
        for x in _inclusive(xi, xj):
            if (x, yj) != (xi, yj):
                slots.append((x, yj))
    else:
        # Leave i horizontally first: (xi,yi) -> (xj,yi) -> (xj,yj).
        for x in _inclusive(xi, xj):
            slots.append((x, yi))
        for y in _inclusive(yi, yj):
            if (xj, y) != (xj, yi):
                slots.append((xj, y))
    return slots


def _inclusive(a: int, b: int) -> range:
    return range(a, b + 1) if a <= b else range(a, b - 1, -1)


def wire_counts(
    edges: list[tuple[int, int]], coords: dict[int, Coordinate]
) -> Counter[Coordinate]:
    """Wires over each grid slot, one :func:`wire_path` walk per wire."""
    return Counter(slot for i, j in edges for slot in wire_path(coords[i], coords[j]))


def satisfies_wire_constraint(
    edges: list[tuple[int, int]],
    coords: dict[int, Coordinate],
    technology_nm: int,
    concentration: int,
) -> bool:
    """Eq. 3 at every slot of the placement, counted by :func:`wire_counts`."""
    limit = technology_wire_limit(technology_nm, concentration)
    return max(wire_counts(edges, coords).values(), default=0) <= limit


class ElasticLinkModel(ElasticLink):
    """An :class:`ElasticLink` that moves its own flits.

    The upstream router offers flits via :meth:`can_accept` /
    :meth:`push`, and the downstream router drains stage ``latency - 1``
    inside :meth:`advance`.  The simulator open-codes the same motion
    over the same state, so the two must move flits identically.
    """

    def can_accept(self, vc: int) -> bool:
        return vc not in self.stages[0]

    def push(self, flit, vc: int) -> None:
        stage = self.stages[0]
        if vc in stage:
            raise RuntimeError("elastic stage 0 busy for this VC")
        if not stage:
            self.busy.append(0)  # the lowest index: ``busy`` stays descending
        stage[vc] = flit

    def advance(self, downstream_free) -> list[tuple[object, int]]:
        """One cycle of pipeline motion over the occupied stages, last first.

        Each occupied stage moves at most one flit (the shared master
        latch): the first VC in round-robin order whose flit can go
        forward.  A stage's content is unchanged until it is visited
        (only stage ``s`` and ``s + 1`` change while ``s`` is visited), so
        walking the stages occupied at the start of the cycle is the
        same as walking all of them.

        Args:
            downstream_free: callable ``(vc) -> bool`` — can the router's
                staging buffer accept a flit on this VC right now?

        Returns:
            ``(flit, vc)`` pairs delivered into the downstream router.
        """
        delivered = []
        stages = self.stages
        rr = self.rr
        last = self.latency - 1
        busy: list[int] = []
        for s in self.busy:
            stage = stages[s]
            order = self.orders[rr[s]]
            if s == last:
                for vc in order:
                    if vc in stage and downstream_free(vc):
                        delivered.append((stage.pop(vc), vc))
                        rr[s] = (vc + 1) % self.num_vcs
                        break
            else:
                forward = stages[s + 1]
                for vc in order:
                    if vc in stage and vc not in forward:
                        forward[vc] = stage.pop(vc)
                        rr[s] = (vc + 1) % self.num_vcs
                        if not busy or busy[-1] != s + 1:
                            busy.append(s + 1)
                        break
            if stage:
                busy.append(s)
        self.busy = busy
        return delivered
