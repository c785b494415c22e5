"""Deterministic minimal routing tables (paper section 5.1 "Routing").

The paper uses static minimum routing with paths computed by a
single-source shortest-path algorithm.  We build per-destination next-hop
tables by BFS with a stable tie-break (lowest router index wins), so every
(src, dst) pair has exactly one deterministic path — which also gives
livelock freedom for free.
"""

from __future__ import annotations

from functools import cached_property

from ..topos.base import Topology, bfs_tree, sorted_neighbors


class MinimalPaths:
    """All-pairs deterministic shortest paths over a topology.

    ``next_hop[dst][cur]`` is the neighbor ``cur`` forwards to when heading
    for ``dst``; computing it per destination (reverse BFS) keeps memory at
    ``O(Nr^2)`` ints.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        # (src, dst) -> path: the simulator routes every injected packet,
        # so each pair is walked once and then served from here.
        self._paths: dict[tuple[int, int], tuple[int, ...]] = {}

    @cached_property
    def next_hop(self) -> list[list[int]]:
        # A router's next hop toward dst is its parent in dst's BFS tree;
        # dst itself stays -1.
        neighbors = sorted_neighbors(self.topology)
        return [bfs_tree(neighbors, dst)[1] for dst in range(self.topology.num_routers)]

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """Router sequence ``src .. dst`` (inclusive), memoised per pair."""
        path = self._paths.get((src, dst))
        if path is None:
            path = self._paths[(src, dst)] = self.walk(src, dst)
        return path

    def walk(self, src: int, dst: int) -> tuple[int, ...]:
        """Router sequence ``src .. dst`` read off the next-hop table.

        Unmemoised.  Used by :meth:`channel_loads`, so a scan over every
        flow keeps no ``O(Nr^2)`` paths alive, and by the simulator's
        routes: :meth:`path` and the static routing's per-pair cache.
        """
        if src == dst:
            return (src,)
        table = self.next_hop[dst]
        nr = self.topology.num_routers
        path = [src]
        current = src
        while current != dst:
            current = table[current]
            path.append(current)
            if len(path) > nr:
                raise RuntimeError("routing loop detected")
        return tuple(path)

    def channel_loads(
        self, flows: dict[tuple[int, int], float]
    ) -> dict[tuple[int, int], float]:
        """Expected flits/cycle per directed channel for given router flows.

        ``flows`` maps (src_router, dst_router) to offered flits/cycle.
        Used by the analytical saturation model and by UGAL-G's oracle in
        steady state.
        """
        loads: dict[tuple[int, int], float] = {}
        for (src, dst), rate in flows.items():
            if src == dst or rate == 0.0:
                continue
            path = self.walk(src, dst)
            for a, b in zip(path, path[1:]):
                loads[(a, b)] = loads.get((a, b), 0.0) + rate
        return loads

    def max_channel_load(self, flows: dict[tuple[int, int], float]) -> float:
        loads = self.channel_loads(flows)
        return max(loads.values()) if loads else 0.0
