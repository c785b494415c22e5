"""Tests for routing: minimal paths, VC schedules, deadlock policies, UGAL."""

import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SlimNoC
from repro.routing import (
    DeflectionRouting,
    DimensionOrderRouting,
    MinimalPaths,
    Route,
    StaticMinimalRouting,
    UGALRouting,
    ValiantRouting,
    XYAdaptiveRouting,
    ZeroQueues,
    default_routing,
)
from repro.topos import ConcentratedMesh, FlattenedButterfly, Torus2D, make_network
from oracles import shortest_hops_from
from sim_state import channel_occupancy


class TestMinimalPaths:
    def test_paths_are_shortest(self):
        sn = make_network("sn200")
        paths = MinimalPaths(sn)
        for src in range(0, sn.num_routers, 7):
            dist = shortest_hops_from(sn, src)
            for dst in range(sn.num_routers):
                assert len(paths.path(src, dst)) - 1 == dist[dst]

    def test_path_endpoints(self):
        sn = make_network("sn200")
        paths = MinimalPaths(sn)
        path = paths.path(3, 42)
        assert path[0] == 3 and path[-1] == 42

    def test_self_path(self):
        paths = MinimalPaths(make_network("sn200"))
        assert paths.path(5, 5) == (5,)

    def test_paths_deterministic(self):
        sn = make_network("sn200")
        a, b = MinimalPaths(sn), MinimalPaths(sn)
        for src, dst in [(0, 49), (13, 7), (22, 31)]:
            assert a.path(src, dst) == b.path(src, dst)

    def test_consecutive_routers_connected(self):
        sn = make_network("sn1296")
        paths = MinimalPaths(sn)
        path = paths.path(0, 161)
        for u, v in zip(path, path[1:]):
            assert v in sn.router_neighbors(u)

    def test_channel_loads_conservation(self):
        """Total channel load equals sum of rate x hops over all flows."""
        sn = make_network("sn200")
        paths = MinimalPaths(sn)
        flows = {(0, 10): 1.0, (5, 20): 2.0}
        loads = paths.channel_loads(flows)
        hops = {pair: len(paths.path(*pair)) - 1 for pair in flows}
        expected = 1.0 * hops[(0, 10)] + 2.0 * hops[(5, 20)]
        assert sum(loads.values()) == pytest.approx(expected)

    def test_max_channel_load_empty(self):
        paths = MinimalPaths(make_network("sn200"))
        assert paths.max_channel_load({}) == 0.0
        assert paths.max_channel_load({(3, 3): 5.0}) == 0.0


class TestStaticMinimalRouting:
    def test_vc_schedule_ascends(self):
        sn = make_network("sn200")
        routing = StaticMinimalRouting(sn, num_vcs=2)
        route = routing.route(0, 37)
        assert list(route.vcs) == sorted(route.vcs)
        assert all(vc < 2 for vc in route.vcs)

    def test_sn_paths_at_most_two_hops(self):
        sn = make_network("sn200")
        routing = StaticMinimalRouting(sn, num_vcs=2)
        for dst in range(1, 50, 3):
            assert routing.route(0, dst).hops <= 2

    def test_vc_cover_enforced(self):
        mesh = ConcentratedMesh(8, 8, 3)
        with pytest.raises(ValueError):
            StaticMinimalRouting(mesh, num_vcs=2)  # diameter 14 > 2 VCs

    def test_vc_cover_can_be_disabled(self):
        mesh = ConcentratedMesh(8, 8, 3)
        routing = StaticMinimalRouting(mesh, num_vcs=2, enforce_vc_cover=False)
        assert routing.route(0, 63).hops == 14

    def test_route_validation(self):
        with pytest.raises(ValueError):
            Route((0, 1, 2), (0,))  # needs 2 VCs for 2 hops


class TestDimensionOrderRouting:
    def test_xy_order_on_mesh(self):
        mesh = ConcentratedMesh(5, 5, 1)
        routing = DimensionOrderRouting(mesh)
        route = routing.route(mesh.router_at(0, 0), mesh.router_at(3, 2))
        positions = [mesh.position_of(r) for r in route.path]
        # X changes first, then Y.
        assert positions == [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]

    def test_mesh_routes_stay_on_vc0(self):
        mesh = ConcentratedMesh(5, 5, 1)
        routing = DimensionOrderRouting(mesh)
        route = routing.route(0, 24)
        assert all(vc == 0 for vc in route.vcs)

    def test_torus_wrap_minimal(self):
        torus = Torus2D(6, 6, 1)
        routing = DimensionOrderRouting(torus)
        route = routing.route(torus.router_at(0, 0), torus.router_at(5, 0))
        assert route.hops == 1  # via wraparound

    def test_torus_dateline_vc_switch(self):
        torus = Torus2D(6, 6, 1)
        routing = DimensionOrderRouting(torus)
        # 1 -> 5 goes backwards through the wrap: 1 -> 0 -> 5.
        route = routing.route(torus.router_at(1, 0), torus.router_at(5, 0))
        assert route.path == (
            torus.router_at(1, 0),
            torus.router_at(0, 0),
            torus.router_at(5, 0),
        )
        assert route.vcs[0] == 0  # before the wrap link
        assert route.vcs[-1] == 1  # the wrap (dateline) link switches VC

    def test_torus_routes_are_minimal(self):
        torus = Torus2D(6, 5, 1)
        routing = DimensionOrderRouting(torus)
        for src in range(0, 30, 7):
            dist = shortest_hops_from(torus, src)
            for dst in range(30):
                assert routing.route(src, dst).hops == dist[dst]

    def test_vc_resets_on_dimension_turn(self):
        torus = Torus2D(6, 6, 1)
        routing = DimensionOrderRouting(torus)
        # Wrap in X then travel in Y: Y hops restart on VC0.
        route = routing.route(torus.router_at(1, 1), torus.router_at(5, 3))
        grid_path = [torus.position_of(r) for r in route.path]
        y_hops = [i for i, (a, b) in enumerate(zip(grid_path, grid_path[1:])) if a[1] != b[1]]
        assert route.vcs[y_hops[0]] == 0

    def test_rejects_non_grid(self):
        with pytest.raises(TypeError):
            DimensionOrderRouting(make_network("sn200"))

    def test_torus_needs_two_vcs(self):
        with pytest.raises(ValueError):
            DimensionOrderRouting(Torus2D(5, 5, 1), num_vcs=1)


class TestValiant:
    def test_routes_are_valid_walks(self):
        sn = make_network("sn200")
        routing = ValiantRouting(sn, num_vcs=4, seed=3)
        for dst in (10, 20, 30):
            route = routing.route(0, dst)
            assert route.path[0] == 0 and route.path[-1] == dst
            for u, v in zip(route.path, route.path[1:]):
                assert v in sn.router_neighbors(u)

    def test_at_most_double_diameter(self):
        sn = make_network("sn200")
        routing = ValiantRouting(sn, num_vcs=4, seed=3)
        assert all(routing.route(0, d).hops <= 4 for d in range(1, 50))


class TestUGAL:
    def test_zero_queues_degrades_to_minimal(self):
        sn = make_network("sn200")
        ugal = UGALRouting(sn, num_vcs=4, seed=5)
        minimal = StaticMinimalRouting(sn, num_vcs=4)
        for dst in range(1, 50, 5):
            assert ugal.route(0, dst).hops <= minimal.route(0, dst).hops + 2
            # With empty queues the minimal path always costs <= Valiant.
            assert ugal.route(0, dst).path == minimal.route(0, dst).path

    def test_congestion_triggers_detour(self):
        sn = make_network("sn200")

        class CongestedFirstHop(ZeroQueues):
            def __init__(self, minimal_next):
                self.minimal_next = minimal_next

            def output_queue(self, router, neighbor):
                return 100 if neighbor == self.minimal_next else 0

        minimal = StaticMinimalRouting(sn, num_vcs=4)
        min_path = minimal.route(0, 37).path
        ugal = UGALRouting(sn, num_vcs=4, oracle=CongestedFirstHop(min_path[1]), seed=9)
        detours = sum(ugal.route(0, 37).path != min_path for _ in range(20))
        assert detours > 10  # most packets avoid the congested first hop

    def test_global_variant_sums_whole_path(self):
        sn = make_network("sn200")

        class UniformQueues(ZeroQueues):
            def output_queue(self, router, neighbor):
                return 3

        ugal_g = UGALRouting(sn, num_vcs=4, global_info=True, oracle=UniformQueues(), seed=2)
        # Uniform congestion: minimal (shorter) always wins.
        minimal = StaticMinimalRouting(sn, num_vcs=4)
        for dst in (9, 17, 33):
            assert ugal_g.route(0, dst).path == minimal.route(0, dst).path

    def test_names(self):
        sn = make_network("sn200")
        assert UGALRouting(sn).name == "ugal-l"
        assert UGALRouting(sn, global_info=True).name == "ugal-g"


class TestXYAdaptive:
    def test_picks_uncongested_quadrant(self):
        fbf = FlattenedButterfly(5, 5, 1)

        class RowCongested(ZeroQueues):
            def output_queue(self, router, neighbor):
                # Congest row-first intermediate (dx, sy).
                return 50 if fbf.position_of(neighbor)[1] == 0 else 0

        routing = XYAdaptiveRouting(fbf, oracle=RowCongested())
        route = routing.route(fbf.router_at(0, 0), fbf.router_at(3, 2))
        # Column-first: intermediate shares the source's column.
        assert fbf.position_of(route.path[1])[0] == 0

    def test_single_dimension_routes_direct(self):
        fbf = FlattenedButterfly(5, 5, 1)
        routing = XYAdaptiveRouting(fbf)
        assert routing.route(fbf.router_at(0, 0), fbf.router_at(4, 0)).hops == 1

    def test_rejects_non_grid(self):
        with pytest.raises(TypeError):
            XYAdaptiveRouting(make_network("sn200"))


class TestDeflection:
    def test_zero_oracle_takes_minimal_path(self):
        sn = make_network("sn200")
        deflect = DeflectionRouting(sn)
        minimal = StaticMinimalRouting(sn, num_vcs=deflect.num_vcs)
        for dst in range(1, 50, 5):
            assert deflect.route(0, dst).path == minimal.route(0, dst).path

    def test_congested_first_hop_deflects_to_least_loaded(self):
        sn = make_network("sn200")
        minimal = StaticMinimalRouting(sn, num_vcs=4)
        min_path = minimal.route(0, 37).path
        neighbors = sorted(sn.router_neighbors(0))
        quiet = next(n for n in neighbors if n != min_path[1])

        class OneQuietNeighbor(ZeroQueues):
            def output_queue(self, router, neighbor):
                return 0 if neighbor == quiet else 50

        route = DeflectionRouting(sn, oracle=OneQuietNeighbor()).route(0, 37)
        assert route.path[1] == quiet
        assert route.path[0] == 0 and route.path[-1] == 37
        for u, v in zip(route.path, route.path[1:]):
            assert v in sn.router_neighbors(u)

    def test_threshold_tolerates_shallow_queues(self):
        sn = make_network("sn200")

        class ShallowQueues(ZeroQueues):
            def output_queue(self, router, neighbor):
                return 3

        minimal = StaticMinimalRouting(sn, num_vcs=3)
        tolerant = DeflectionRouting(sn, oracle=ShallowQueues(), threshold=4)
        for dst in (9, 17, 33):
            assert tolerant.route(0, dst).path == minimal.route(0, dst).path

    def test_vc_budget_limits_detour_length(self):
        """Candidates whose detour exceeds the VC budget are skipped; the
        route still fits an ascending schedule."""
        sn = make_network("sn200")

        class Congested(ZeroQueues):
            def output_queue(self, router, neighbor):
                return 10

        deflect = DeflectionRouting(sn, num_vcs=2, oracle=Congested())
        for dst in range(1, 50, 5):
            route = deflect.route(0, dst)
            assert route.hops <= 2
            assert route.vcs == tuple(min(h, 1) for h in range(route.hops))

    def test_self_route_and_threshold_validation(self):
        sn = make_network("sn200")
        assert DeflectionRouting(sn).route(4, 4) == Route((4,), ())
        with pytest.raises(ValueError):
            DeflectionRouting(sn, threshold=-1)

    def test_default_vcs_cover_diameter_plus_detour(self):
        sn = make_network("sn200")
        assert DeflectionRouting(sn).num_vcs == sn.diameter + 1


class TestZeroOracleWarning:
    def _records(self, caplog):
        return [r for r in caplog.records if r.name == "repro.routing"]

    def test_ugal_warns_once_with_zero_oracle(self, caplog):
        sn = make_network("sn200")
        ugal = UGALRouting(sn, num_vcs=4)
        with caplog.at_level(logging.WARNING, logger="repro.routing"):
            ugal.route(0, 7)
            ugal.route(0, 9)
        records = self._records(caplog)
        assert len(records) == 1
        assert "ugal-l" in records[0].getMessage()
        assert "ZeroQueues" in records[0].getMessage()

    @pytest.mark.parametrize(
        "make",
        [
            lambda sn: UGALRouting(sn, global_info=True),
            lambda sn: DeflectionRouting(sn),
        ],
        ids=["ugal-g", "deflect"],
    )
    def test_other_adaptive_schemes_warn_too(self, caplog, make):
        routing = make(make_network("sn200"))
        with caplog.at_level(logging.WARNING, logger="repro.routing"):
            routing.route(0, 7)
        assert len(self._records(caplog)) == 1

    def test_custom_oracle_subclass_stays_quiet(self, caplog):
        """Tests and callers that *subclass* ZeroQueues made a choice —
        only the exact default type warns."""
        sn = make_network("sn200")

        class Custom(ZeroQueues):
            def output_queue(self, router, neighbor):
                return 1

        ugal = UGALRouting(sn, num_vcs=4, oracle=Custom())
        with caplog.at_level(logging.WARNING, logger="repro.routing"):
            ugal.route(0, 7)
        assert not self._records(caplog)

    def test_simulator_attachment_silences_warning(self, caplog):
        from repro.sim import NoCSimulator

        sn = make_network("sn54")
        ugal = UGALRouting(sn, num_vcs=4)
        sim = NoCSimulator(sn, routing=ugal, seed=1)
        assert ugal.oracle is sim.queues  # live view self-installed
        with caplog.at_level(logging.WARNING, logger="repro.routing"):
            ugal.route(0, 7)
        assert not self._records(caplog)

    def test_installed_view_reads_live_occupancy(self):
        """After traffic has run, the routing's oracle reports exactly the
        simulator's live per-channel state: on credit links, the flits and
        credits in flight on the channel and the flits buffered behind it,
        recounted from where they are."""
        from repro.sim import NoCSimulator, SimConfig
        from repro.traffic import SyntheticSource

        sn = make_network("sn54")
        ugal = UGALRouting(sn, num_vcs=4, seed=3)
        sim = NoCSimulator(sn, SimConfig(num_vcs=4), routing=ugal, seed=1)
        source = SyntheticSource(sn, "ADV1", rate=0.4)
        for _ in range(150):
            for spec in source.packets_at(sim.now, sim.rng):
                sim.inject_packet(*spec)
            sim.step()
        assert ugal.oracle is sim.queues
        recount = channel_occupancy(sim)
        for (a, b), occupancy in recount.items():
            assert sim.queues.output_queue(a, b) == occupancy, (a, b)
        assert any(recount.values())  # the traffic left channels occupied
        assert ugal.oracle.output_queue(0, 0) == 0  # not a channel

    def test_stale_simulator_oracle_is_rebound(self):
        """A routing reused across runs re-binds to the *new* simulator's
        view, while a custom oracle is never overwritten."""
        from repro.sim import NoCSimulator

        sn = make_network("sn54")
        ugal = UGALRouting(sn, num_vcs=4)
        first = NoCSimulator(sn, routing=ugal, seed=1)
        assert ugal.oracle is first.queues
        second = NoCSimulator(sn, routing=ugal, seed=2)
        assert ugal.oracle is second.queues

        class Pinned(ZeroQueues):
            pass

        pinned = Pinned()
        custom = UGALRouting(sn, num_vcs=4, oracle=pinned)
        NoCSimulator(sn, routing=custom, seed=3)
        assert custom.oracle is pinned


class ShiftingQueues(ZeroQueues):
    """Deterministic, time-varying channel occupancy for differential
    route checks: ``shift`` is advanced by the test between routes."""

    shift = 0

    def output_queue(self, router, neighbor):
        return (router * 7 + neighbor * 13 + self.shift) % 5


def _reference_route(routing, rng, walk, src, dst):
    """The route an unmemoised UGAL / Valiant / deflection walk builds:
    paths from fresh next-hop walks, one ``randrange`` per packet on
    ``rng``, and a freshly constructed :class:`Route`."""
    nr = routing.topology.num_routers
    minimal = walk(src, dst)
    if isinstance(routing, ValiantRouting):
        mid = rng.randrange(nr)
        path = walk(src, mid) + walk(mid, dst)[1:]
    elif src == dst:
        path = minimal
    elif isinstance(routing, UGALRouting):
        mid = rng.randrange(nr)
        valiant = walk(src, mid) + walk(mid, dst)[1:]
        cheaper = routing._path_cost(valiant) < routing._path_cost(minimal)
        path = valiant if cheaper else minimal
        if len(path) - 1 > routing.num_vcs:
            path = minimal
    else:  # deflection
        oracle = routing.oracle
        first_queue = oracle.output_queue(src, minimal[1])
        path = minimal
        if first_queue > routing.threshold:
            best_key = (first_queue, len(minimal), minimal[1])
            for neighbor in sorted(routing.topology.router_neighbors(src)):
                candidate = (src,) + walk(neighbor, dst)
                if neighbor == minimal[1] or len(candidate) - 1 > routing.num_vcs:
                    continue
                key = (oracle.output_queue(src, neighbor), len(candidate), neighbor)
                if key < best_key:
                    path, best_key = candidate, key
    vcs = tuple(min(h, routing.num_vcs - 1) for h in range(len(path) - 1))
    return Route(path, vcs)


class TestRouteMemos:
    """Memoised paths and shared Route objects are invisible: every route
    equals the unmemoised computation, and the per-packet RNG stream is
    consumed exactly as before."""

    SYMBOLS = ["sn54", "fbf3", "t2d3"]

    @pytest.mark.parametrize("symbol", SYMBOLS)
    def test_memoised_paths_equal_fresh_walks(self, symbol):
        topo = make_network(symbol)
        memo = MinimalPaths(topo)
        fresh = MinimalPaths(topo)
        pairs = [(s, d) for s in range(topo.num_routers) for d in range(topo.num_routers)]
        for _ in range(2):  # first pass fills the memo, second reads it
            for src, dst in pairs:
                assert memo.path(src, dst) == fresh.walk(src, dst)

    @pytest.mark.parametrize("symbol", SYMBOLS)
    @pytest.mark.parametrize(
        "make",
        [
            lambda topo, oracle: UGALRouting(topo, oracle=oracle, seed=4),
            lambda topo, oracle: UGALRouting(topo, global_info=True, oracle=oracle, seed=4),
            lambda topo, oracle: ValiantRouting(topo, seed=4),
            lambda topo, oracle: DeflectionRouting(topo, oracle=oracle),
        ],
        ids=["ugal-l", "ugal-g", "valiant", "deflect"],
    )
    def test_seeded_routes_equal_fresh_routes(self, symbol, make):
        topo = make_network(symbol)
        oracle = ShiftingQueues()
        routing = make(topo, oracle)
        reference_rng = random.Random(4)
        walk = MinimalPaths(topo).walk
        draws = random.Random(11)
        nr = topo.num_routers
        shared: dict[tuple[int, ...], Route] = {}
        for step in range(400):
            oracle.shift = step
            src = draws.randrange(nr)
            dst = src if step % 25 == 0 else draws.randrange(nr)
            expected = _reference_route(routing, reference_rng, walk, src, dst)
            route = routing.route(src, dst)
            assert route == expected
            # One frozen Route per distinct path.
            assert shared.setdefault(route.path, route) is route
        if hasattr(routing, "_rng"):
            assert routing._rng.getstate() == reference_rng.getstate()


class TestDefaultRouting:
    def test_sn_gets_minimal_with_two_vcs(self):
        routing = default_routing(make_network("sn200"))
        assert isinstance(routing, StaticMinimalRouting)
        assert routing.num_vcs == 2

    def test_torus_gets_dimension_order(self):
        routing = default_routing(make_network("t2d4"))
        assert isinstance(routing, DimensionOrderRouting)

    def test_fbf_gets_minimal_not_xy(self):
        routing = default_routing(make_network("fbf3"))
        assert isinstance(routing, StaticMinimalRouting)

    def test_pfbf_vcs_cover_diameter(self):
        topo = make_network("pfbf9")
        routing = default_routing(topo)
        assert routing.num_vcs >= topo.diameter


@given(st.integers(0, 49), st.integers(0, 49))
@settings(max_examples=60, deadline=None)
def test_route_vcs_always_match_hops(src, dst):
    sn = SlimNoC(5, 4)
    routing = StaticMinimalRouting(sn, num_vcs=2)
    route = routing.route(src, dst)
    assert len(route.vcs) == route.hops
