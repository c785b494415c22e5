"""Routing algorithms: static minimal, dimension-order, and adaptive UGAL.

A routing algorithm maps (source router, destination router) to a
:class:`Route` — the full router path plus a per-hop virtual-channel
schedule.  Fixing the VC schedule at route time implements the paper's
deadlock-avoidance schemes directly:

* **Hop-index VCs** (section 4.3): VC0 on the first hop, VC1 on the
  second, … — the VC index strictly increases along a path, so the
  channel-dependency graph is acyclic whenever ``num_vcs`` covers the
  longest path.
* **Dimension-order + dateline** for meshes and tori: XY routing is
  acyclic per dimension; torus wrap-around rings switch from VC0 to VC1
  at a dateline.
* **UGAL-L / UGAL-G** (section 6): per-packet choice between the minimal
  path and a Valiant detour through a random intermediate router, using
  local or global queue estimates.
* **Deflection** (BLESS/CHIPPER-family, adapted to the frozen-route
  model): when the minimal route's first hop is congested, misroute to
  the least-loaded neighbor and continue minimally from there.

Adaptive schemes observe congestion through a :class:`QueueOracle`.
Attaching the routing to a :class:`~repro.sim.NoCSimulator` installs
the simulator's live occupancy view (``sim.queues``) as the oracle;
without one, the default :class:`ZeroQueues` oracle
makes every adaptive scheme silently degenerate to minimal routing —
the first route computed that way logs a one-line warning on
``repro.routing``.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..obs.logs import get_logger
from ..topos.base import Topology
from ..topos.grids import Torus2D, _GridTopology
from .paths import MinimalPaths

_log = get_logger("repro.routing")


@dataclass(frozen=True)
class Route:
    """A fully resolved route: routers visited and the VC used on each hop."""

    path: tuple[int, ...]
    vcs: tuple[int, ...]

    def __post_init__(self):
        if len(self.vcs) != max(len(self.path) - 1, 0):
            raise ValueError("need exactly one VC per link hop")

    @property
    def hops(self) -> int:
        return len(self.path) - 1


class QueueOracle(ABC):
    """Congestion feedback interface the simulator exposes to UGAL."""

    @abstractmethod
    def output_queue(self, router: int, neighbor: int) -> int:
        """Flits queued at ``router`` for its channel toward ``neighbor``."""


class ZeroQueues(QueueOracle):
    """No-congestion oracle: makes UGAL degrade to minimal routing."""

    def output_queue(self, router: int, neighbor: int) -> int:
        return 0


class RoutingAlgorithm(ABC):
    """Base class; subclasses fill :meth:`route`."""

    name = "routing"

    def __init__(self, topology: Topology, num_vcs: int = 2):
        self.topology = topology
        self.num_vcs = num_vcs
        self.minimal = MinimalPaths(topology)
        # path -> its frozen Route, shared by every packet taking that path.
        self._routes: dict[tuple[int, ...], Route] = {}

    @abstractmethod
    def route(self, src: int, dst: int, packet_id: int = 0) -> Route:
        """Compute the route for one packet (routers, VC schedule)."""

    def _ascending_vcs(self, path: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(min(h, self.num_vcs - 1) for h in range(len(path) - 1))

    def _route_for(self, path: tuple[int, ...]) -> Route:
        """The one :class:`Route` (hop-index VCs) for ``path``."""
        route = self._routes.get(path)
        if route is None:
            route = self._routes[path] = Route(path, self._ascending_vcs(path))
        return route

    def _warn_if_zero_oracle(self) -> None:
        """One-line warning the first time an adaptive scheme routes with
        the degenerate :class:`ZeroQueues` oracle (exact type only —
        custom oracles that *subclass* it are deliberate and stay quiet).
        """
        if getattr(self, "_zero_oracle_warned", False):
            return
        if type(getattr(self, "oracle", None)) is ZeroQueues:
            self._zero_oracle_warned = True
            _log.warning(
                "%s routing has no congestion feedback (ZeroQueues oracle) "
                "and degenerates to minimal routing; attach it to a "
                "NoCSimulator or set a QueueOracle for live state",
                self.name,
            )


class StaticMinimalRouting(RoutingAlgorithm):
    """The paper's default: deterministic shortest paths, hop-index VCs.

    Deadlock-free when ``num_vcs >= diameter`` (SN and FBF need just 2).
    """

    name = "min"

    def __init__(
        self, topology: Topology, num_vcs: int = 2, enforce_vc_cover: bool = True
    ):
        super().__init__(topology, num_vcs)
        if enforce_vc_cover and topology.diameter > num_vcs:
            raise ValueError(
                f"hop-index VC scheme needs num_vcs >= diameter "
                f"({topology.diameter}); got {num_vcs}"
            )
        # Routes are frozen and per-pair deterministic, so one Route
        # object can serve every packet of a (src, dst) pair — the
        # simulator calls route() once per injected packet.
        self._route_cache: dict[tuple[int, int], Route] = {}

    def route(self, src: int, dst: int, packet_id: int = 0) -> Route:
        cached = self._route_cache.get((src, dst))
        if cached is None:
            # This cache is already per pair: walk, don't memoise twice.
            path = self.minimal.walk(src, dst)
            cached = Route(path, self._ascending_vcs(path))
            self._route_cache[(src, dst)] = cached
        return cached


class DimensionOrderRouting(RoutingAlgorithm):
    """XY routing for meshes and tori (dateline VCs on wrap rings).

    Packets finish all X hops before any Y hop.  On a torus, each
    dimension's ring is broken by a dateline: a packet starts on VC0 and
    moves to VC1 after crossing the wrap-around link of the current
    dimension, which removes the ring's cyclic dependency.
    """

    name = "xy"

    def __init__(self, topology: _GridTopology, num_vcs: int = 2):
        if not isinstance(topology, _GridTopology):
            raise TypeError("dimension-order routing needs a grid topology")
        if isinstance(topology, Torus2D) and num_vcs < 2:
            raise ValueError("torus dateline scheme needs >= 2 VCs")
        super().__init__(topology, num_vcs)
        self.is_torus = isinstance(topology, Torus2D)
        self._route_cache: dict[tuple[int, int], Route] = {}

    def _steps(self, frm: int, to: int, size: int) -> list[int]:
        """Per-dimension coordinate sequence (minimal, wrap-aware on torus)."""
        if frm == to:
            return [frm]
        if not self.is_torus:
            step = 1 if to > frm else -1
            return list(range(frm, to + step, step))
        forward = (to - frm) % size
        backward = (frm - to) % size
        step = 1 if forward <= backward else -1
        seq = [frm]
        while seq[-1] != to:
            seq.append((seq[-1] + step) % size)
        return seq

    def route(self, src: int, dst: int, packet_id: int = 0) -> Route:
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return cached
        grid: _GridTopology = self.topology  # type: ignore[assignment]
        sx, sy = grid.position_of(src)
        dx, dy = grid.position_of(dst)
        xs = self._steps(sx, dx, grid.cols)
        ys = self._steps(sy, dy, grid.rows)
        path = [grid.router_at(x, sy) for x in xs]
        path += [grid.router_at(dx, y) for y in ys[1:]]
        route = Route(tuple(path), tuple(self._vc_schedule(path, grid, dx, sy)))
        self._route_cache[(src, dst)] = route
        return route

    def _vc_schedule(
        self, path: list[int], grid: _GridTopology, dx: int, sy: int
    ) -> list[int]:
        """Dateline VCs: start on VC0, move to VC1 at the wrap link of the
        current dimension's ring; reset when turning from X into Y (the two
        rings are independent under XY ordering)."""
        vcs = []
        vc = 0
        prev = grid.position_of(path[0])
        for router in path[1:]:
            cur = grid.position_of(router)
            turning_into_y = cur[1] != prev[1] and prev == (dx, sy)
            if turning_into_y:
                vc = 0
            if self.is_torus and self._crossed_wrap(prev, cur):
                vc = 1  # this hop is the dateline (wrap) link
            vcs.append(vc)
            prev = cur
        return vcs

    @staticmethod
    def _crossed_wrap(prev: tuple[int, int], cur: tuple[int, int]) -> bool:
        return abs(cur[0] - prev[0]) > 1 or abs(cur[1] - prev[1]) > 1


class ValiantRouting(RoutingAlgorithm):
    """Two-phase randomized routing: minimal to a random intermediate, then
    minimal to the destination.  The non-minimal arm of UGAL."""

    name = "val"

    def __init__(self, topology: Topology, num_vcs: int = 4, seed: int = 0):
        super().__init__(topology, num_vcs)
        self._rng = random.Random(seed)

    def route(self, src: int, dst: int, packet_id: int = 0) -> Route:
        intermediate = self._rng.randrange(self.topology.num_routers)
        first = self.minimal.path(src, intermediate)
        second = self.minimal.path(intermediate, dst)
        return self._route_for(first + second[1:])


class UGALRouting(RoutingAlgorithm):
    """UGAL-L / UGAL-G (paper section 6, Figure 20).

    Per packet, compare the minimal path against one random Valiant
    candidate using estimated delay ``hops * (queue + 1)``:

    * local (UGAL-L): only the source router's output-queue lengths are
      visible — the queue on each candidate's first hop.
    * global (UGAL-G): queue lengths along the *whole* candidate path.
    """

    def __init__(
        self,
        topology: Topology,
        num_vcs: int = 4,
        global_info: bool = False,
        oracle: QueueOracle | None = None,
        seed: int = 0,
    ):
        super().__init__(topology, num_vcs)
        self.global_info = global_info
        self.oracle = oracle if oracle is not None else ZeroQueues()
        self.name = "ugal-g" if global_info else "ugal-l"
        self._rng = random.Random(seed)

    def _path_cost(self, path: tuple[int, ...]) -> float:
        hops = len(path) - 1
        if hops == 0:
            return 0.0
        if self.global_info:
            queued = sum(self.oracle.output_queue(a, b) for a, b in zip(path, path[1:]))
        else:
            queued = hops * self.oracle.output_queue(path[0], path[1])
        return hops + queued

    def route(self, src: int, dst: int, packet_id: int = 0) -> Route:
        self._warn_if_zero_oracle()
        minimal_path = self.minimal.path(src, dst)
        if src == dst:
            return self._route_for(minimal_path)
        intermediate = self._rng.randrange(self.topology.num_routers)
        valiant_path = self.minimal.path(src, intermediate) + self.minimal.path(
            intermediate, dst
        )[1:]
        chosen = (
            valiant_path
            if self._path_cost(valiant_path) < self._path_cost(minimal_path)
            else minimal_path
        )
        if len(chosen) - 1 > self.num_vcs:
            chosen = minimal_path  # VC schedule must stay ascending
        return self._route_for(chosen)


class XYAdaptiveRouting(RoutingAlgorithm):
    """FBF's XY-ADAPT (Kim et al.): adaptively pick row-first or
    column-first among the two minimal L-paths by first-hop queue length."""

    name = "xy-adapt"

    def __init__(
        self,
        topology: _GridTopology,
        num_vcs: int = 2,
        oracle: QueueOracle | None = None,
    ):
        if not isinstance(topology, _GridTopology):
            raise TypeError("XY-adaptive routing needs a grid topology")
        super().__init__(topology, num_vcs)
        self.oracle = oracle if oracle is not None else ZeroQueues()

    def route(self, src: int, dst: int, packet_id: int = 0) -> Route:
        self._warn_if_zero_oracle()
        grid: _GridTopology = self.topology  # type: ignore[assignment]
        sx, sy = grid.position_of(src)
        dx, dy = grid.position_of(dst)
        if src == dst:
            return self._route_for((src,))
        if sx == dx or sy == dy:
            return self._route_for(self.minimal.path(src, dst))
        row_first = (src, grid.router_at(dx, sy), dst)
        col_first = (src, grid.router_at(sx, dy), dst)
        cost_row = self.oracle.output_queue(src, row_first[1])
        cost_col = self.oracle.output_queue(src, col_first[1])
        return self._route_for(row_first if cost_row <= cost_col else col_first)


class DeflectionRouting(RoutingAlgorithm):
    """Deflection routing adapted to the frozen-route model.

    Per-hop deflection (BLESS, CHIPPER) re-arbitrates a flit at every
    router; this simulator freezes the full route at injection, so the
    deflection decision happens once, at the source: when the minimal
    route's first hop is queued past ``threshold``, the packet is
    misrouted to the least-loaded neighbor and continues minimally from
    there.  Deflection only ever *lengthens* a path — the flit keeps its
    buffered, credit-flow-controlled route and is never dropped (pinned
    by a conservation property test).

    ``num_vcs`` defaults to ``diameter + 1`` so a one-hop deflection
    always has an ascending VC schedule; candidates whose detour would
    exceed the VC budget are skipped, falling back to minimal.
    """

    name = "deflect"

    def __init__(
        self,
        topology: Topology,
        num_vcs: int | None = None,
        oracle: QueueOracle | None = None,
        threshold: int = 0,
    ):
        super().__init__(topology, num_vcs or topology.diameter + 1)
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.oracle = oracle if oracle is not None else ZeroQueues()
        self.threshold = threshold

    def route(self, src: int, dst: int, packet_id: int = 0) -> Route:
        self._warn_if_zero_oracle()
        minimal_path = self.minimal.path(src, dst)
        if src == dst:
            return self._route_for(minimal_path)
        first_queue = self.oracle.output_queue(src, minimal_path[1])
        if first_queue <= self.threshold:
            return self._route_for(minimal_path)
        best = minimal_path
        # Hops break occupancy ties, neighbor index breaks hop ties —
        # fully deterministic for a given oracle state.
        best_key = (first_queue, len(minimal_path), minimal_path[1])
        for neighbor in sorted(self.topology.router_neighbors(src)):
            if neighbor == minimal_path[1]:
                continue
            candidate = (src,) + self.minimal.path(neighbor, dst)
            if len(candidate) - 1 > self.num_vcs:
                continue  # VC schedule must stay ascending
            key = (self.oracle.output_queue(src, neighbor), len(candidate), neighbor)
            if key < best_key:
                best, best_key = candidate, key
        return self._route_for(best)
