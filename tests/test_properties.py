"""Cross-module property-based tests (hypothesis) on system invariants."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SlimNoC, layout_coordinates, mms_graph
from repro.core.costmodel import round_trip_cycles
from repro.routing import (
    DeflectionRouting,
    MinimalPaths,
    QueueOracle,
    StaticMinimalRouting,
    UGALRouting,
)
from repro.sim import NoCSimulator, SimConfig, link_latency
from repro.topos import make_network
from repro.topos.base import all_pairs_hops
from repro.traffic import (
    BurstSource,
    HotspotSource,
    SyntheticSource,
    TransientSource,
    make_pattern,
)
from oracles import hop_distances, wire_path


@given(st.sampled_from([3, 4, 5, 8, 9]), st.sampled_from(["sn_basic", "sn_subgr", "sn_gr"]))
@settings(max_examples=30, deadline=None)
def test_layout_wire_paths_cover_manhattan(q, layout):
    """Every placed wire's slot count equals its Manhattan length + 1."""
    graph = mms_graph(q)
    coords = layout_coordinates(graph, layout)
    rng = random.Random(q)
    edges = graph.edges()
    for i, j in rng.sample(edges, min(20, len(edges))):
        ci, cj = coords[i], coords[j]
        manhattan = abs(ci[0] - cj[0]) + abs(ci[1] - cj[1])
        assert len(wire_path(ci, cj)) == manhattan + 1


@given(st.integers(0, 40), st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_rtt_and_link_latency_consistent(distance, h):
    """RTT = 2 x link cycles + 3 for any distance and SMART reach."""
    rtt = round_trip_cycles(distance, h)
    cycles = link_latency(distance, h)
    if distance == 0:
        assert rtt == 3
    else:
        assert rtt == 2 * cycles + 3 or cycles == 1


@given(st.integers(0, 199), st.integers(0, 199))
@settings(max_examples=50, deadline=None)
def test_minimal_paths_symmetric_length(src, dst):
    """Undirected graph: |path(a,b)| == |path(b,a)|."""
    paths = MinimalPaths(make_network("sn200"))
    assert len(paths.path(src // 4, dst // 4)) == len(paths.path(dst // 4, src // 4))


@given(st.integers(1, 10_000))
@settings(max_examples=40, deadline=None)
def test_sim_single_packet_always_delivered(seed):
    """Any single random packet is delivered, flits in order."""
    topo = make_network("sn54")
    rng = random.Random(seed)
    src = rng.randrange(topo.num_nodes)
    dst = rng.randrange(topo.num_nodes)
    if src == dst:
        dst = (dst + 1) % topo.num_nodes
    sim = NoCSimulator(topo, SimConfig(), seed=seed)
    packet = sim.inject_packet(src, dst, size=rng.randint(1, 8))
    for _ in range(500):
        sim.step()
        if packet.ejected >= 0:
            break
    assert packet.ejected > packet.created
    routing = StaticMinimalRouting(topo, num_vcs=2)
    expected = routing.route(topo.node_router(src), topo.node_router(dst))
    assert packet.route.path == expected.path


@given(st.sampled_from(["RND", "SHF", "REV", "ADV1", "ADV2", "ASYM"]))
@settings(max_examples=12, deadline=None)
def test_every_pattern_simulates_clean(pattern):
    """Low-load run: all created packets delivered for every pattern."""
    topo = make_network("sn54")
    sim = NoCSimulator(topo, seed=9)
    res = sim.run(
        SyntheticSource(topo, pattern, 0.05), warmup=100, measure=200, drain=600
    )
    assert res.delivered_packets == res.created_packets
    assert not res.saturated


@given(st.integers(2, 6), st.integers(2, 9))
@settings(max_examples=20, deadline=None)
def test_slimnoc_scales(q_index, p):
    """Any (q, p) pair builds a consistent network."""
    q = [2, 3, 4, 5, 7, 8, 9][q_index]
    sn = SlimNoC(q, p)
    assert sn.num_nodes == 2 * q * q * p
    assert sn.diameter == 2
    assert sn.router_radix == sn.network_radix + p


@pytest.mark.parametrize("symbol", ["sn200", "fbf3", "pfbf4", "t2d4"])
def test_throughput_never_exceeds_offered(symbol):
    """Conservation: accepted throughput <= offered load."""
    topo = make_network(symbol)
    sim = NoCSimulator(topo, seed=3)
    res = sim.run(SyntheticSource(topo, "RND", 0.1), warmup=150, measure=400, drain=900)
    assert res.throughput <= 0.1 * 1.25  # Bernoulli noise margin


# --- non-stationary traffic variants -----------------------------------------

_TOPO54 = make_network("sn54")


def _variant_sources(seed):
    """One instance of every traffic variant over sn54 at a busy rate."""
    return [
        SyntheticSource(_TOPO54, "RND", 0.3, seed=seed),
        BurstSource(_TOPO54, "ADV1", 0.2, on_cycles=16, off_cycles=48, seed=seed),
        BurstSource(
            _TOPO54, "RND", 0.2, on_cycles=8, off_cycles=8, off_load=0.05, seed=seed
        ),
        HotspotSource(
            _TOPO54, "RND", 0.3, hotspots=(0, 13, 27), fraction=0.4, seed=seed
        ),
        TransientSource(_TOPO54, ("ADV1", "ADV2"), 0.3, period=32, seed=seed),
    ]


@given(st.integers(1, 10_000))
@settings(max_examples=25, deadline=None)
def test_variant_destinations_valid_and_never_self(seed):
    """Every traffic variant emits in-range destinations != source."""
    n = _TOPO54.num_nodes
    for source in _variant_sources(seed):
        rng = random.Random(seed)
        for cycle in range(40):
            for src, dst, size, kind, reply, reply_size in source.packets_at(
                cycle, rng
            ):
                assert 0 <= src < n and 0 <= dst < n
                assert dst != src
                assert size == source.packet_flits and kind == "data"


@given(
    st.integers(1, 64),
    st.integers(0, 128),
    st.integers(0, 500),
    st.integers(1, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_burst_phase_boundaries_exact(on_cycles, off_cycles, phase, seed):
    """off_load=0 injects nothing, ever, outside the on-phase — and the
    on-phase is exactly ``(cycle + phase) % period < on_cycles``."""
    period = on_cycles + off_cycles
    rate = min(0.5, 6 * on_cycles / period)  # keep peak under the ceiling
    source = BurstSource(
        _TOPO54, "RND", rate, on_cycles=on_cycles, off_cycles=off_cycles, phase=phase
    )
    rng = random.Random(seed)
    for cycle in range(3 * period):
        expected = (cycle + phase) % period < on_cycles
        assert source.in_burst(cycle) == expected
        packets = list(source.packets_at(cycle, rng))
        if not expected:
            assert packets == []


def test_burst_peak_at_the_ceiling_is_accepted():
    """A mean rate whose on-phase peak is exactly the ceiling (here
    ``6 * 5 / 85`` flits, which computes a peak of 6.000000000000001) is
    the ceiling, not an overload: it injects every on-phase cycle."""
    source = BurstSource(_TOPO54, "RND", 6 * 5 / 85, on_cycles=5, off_cycles=80)
    assert source.peak_load == 6
    rng = random.Random(0)
    assert len(list(source.packets_at(0, rng))) > 0.9 * _TOPO54.num_nodes
    with pytest.raises(ValueError, match="exceeds the injection ceiling"):
        BurstSource(_TOPO54, "RND", 6.01 * 5 / 85, on_cycles=5, off_cycles=80)


def test_burst_mean_load_is_conserved():
    """Peak load exactly compensates the off-phase deficit."""
    for off_load in (0.0, 0.02, 0.1):
        source = BurstSource(
            _TOPO54, "RND", 0.2, on_cycles=64, off_cycles=192, off_load=off_load
        )
        mean = (
            source.peak_load * source.on_cycles + off_load * source.off_cycles
        ) / source.period
        assert math.isclose(mean, 0.2, rel_tol=0, abs_tol=1e-12)
        assert source.rate == 0.2  # the configured rate stays the mean


@given(
    st.lists(st.integers(0, 53), min_size=1, max_size=8),
    st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_hotspot_mass_sums_to_one(hotspots, fraction):
    """Hotspot weights sum to 1, one weight per distinct hotspot."""
    source = HotspotSource(
        _TOPO54, "RND", 0.2, hotspots=tuple(hotspots), fraction=fraction
    )
    assert math.isclose(sum(source.hotspot_weights.values()), 1.0, abs_tol=1e-12)
    assert len(source.hotspot_weights) == len(set(hotspots))


def test_hotspot_full_fraction_targets_only_hotspots():
    """fraction=1.0: every destination is a hotspot node."""
    hotspots = (3, 17, 40)
    source = HotspotSource(_TOPO54, "RND", 0.5, hotspots=hotspots, fraction=1.0)
    rng = random.Random(7)
    seen = set()
    for cycle in range(200):
        for src, dst, *_ in source.packets_at(cycle, rng):
            assert dst in hotspots
            seen.add(dst)
    assert seen == set(hotspots)  # all hotspots actually drawn


@given(st.integers(1, 100), st.integers(0, 300), st.integers(1, 10_000))
@settings(max_examples=40, deadline=None)
def test_transient_swaps_patterns_exactly_on_schedule(period, phase, seed):
    """At every cycle the destinations match the scheduled pattern, and
    the swap happens exactly at multiples of ``period``."""
    source = TransientSource(
        _TOPO54, ("ADV1", "ADV2"), 0.5, period=period, phase=phase, seed=seed
    )
    fns = [make_pattern("ADV1", _TOPO54), make_pattern("ADV2", _TOPO54)]
    rng = random.Random(seed)
    for cycle in range(3 * period + 2):
        k = (cycle + phase) // period % 2
        assert source.active_index(cycle) == k
        for src, dst, *_ in source.packets_at(cycle, rng):
            # ADV1/ADV2 are deterministic permutations: exact check.
            assert dst == fns[k](src, rng)


# --- adaptive routes ---------------------------------------------------------


class _RandomQueues(QueueOracle):
    """Deterministic pseudo-random congestion state for route properties."""

    def __init__(self, seed, ceiling=24):
        self.seed = seed
        self.ceiling = ceiling

    def output_queue(self, router: int, neighbor: int) -> int:
        mixed = self.seed * 1_000_003 + router * 1_009 + neighbor
        return random.Random(mixed).randrange(self.ceiling)


def _adaptive_routers(oracle):
    return [
        UGALRouting(_TOPO54, oracle=oracle),
        UGALRouting(_TOPO54, global_info=True, oracle=oracle),
        DeflectionRouting(_TOPO54, oracle=oracle),
        DeflectionRouting(_TOPO54, oracle=oracle, threshold=4),
    ]


@given(st.integers(1, 10_000), st.integers(0, 17), st.integers(0, 17))
@settings(max_examples=80, deadline=None)
def test_adaptive_routes_connected_and_deadlock_covered(seed, src, dst):
    """Under arbitrary congestion, every emitted route is a connected
    router walk and its VC schedule satisfies the hop-index deadlock
    rule: ascending per hop, capped strictly below num_vcs."""
    oracle = _RandomQueues(seed)
    for routing in _adaptive_routers(oracle):
        route = routing.route(src, dst)
        assert route.path[0] == src and route.path[-1] == dst
        assert len(route.vcs) == route.hops
        for a, b in zip(route.path, route.path[1:]):
            assert b in _TOPO54.router_neighbors(a)
        assert route.vcs == tuple(
            min(h, routing.num_vcs - 1) for h in range(route.hops)
        )
        for vc in route.vcs:
            assert 0 <= vc < routing.num_vcs
        if src == dst:
            assert route.path == (src,) and route.vcs == ()


@given(st.integers(1, 10_000))
@settings(max_examples=15, deadline=None)
def test_deflection_only_lengthens_paths(seed):
    """A deflected route is never shorter than minimal and at most one
    extra hop beyond the deflected neighbor's own minimal path."""
    oracle = _RandomQueues(seed)
    routing = DeflectionRouting(_TOPO54, oracle=oracle)
    minimal = MinimalPaths(_TOPO54)
    for src in range(_TOPO54.num_routers):
        for dst in range(_TOPO54.num_routers):
            route = routing.route(src, dst)
            assert route.hops >= len(minimal.path(src, dst)) - 1
            assert route.hops <= routing.num_vcs


@given(st.integers(1, 1_000))
@settings(max_examples=6, deadline=None)
def test_deflection_never_drops_flits(seed):
    """Conservation under congestion: with live deflection routing every
    created packet is delivered once the network drains."""
    topo = make_network("sn54")
    sim = NoCSimulator(topo, SimConfig(), routing=DeflectionRouting(topo), seed=seed)
    res = sim.run(
        SyntheticSource(topo, "ADV1", 0.12), warmup=100, measure=250, drain=2500
    )
    assert res.delivered_packets == res.created_packets
    assert res.delivered_flits == res.delivered_packets * 6
    assert not res.saturated


@st.composite
def symmetric_graphs(draw):
    """Adjacency lists of random undirected simple graphs: possibly no
    edges, one router, or several components."""
    nr = draw(st.integers(1, 24))
    pairs = st.tuples(st.integers(0, nr - 1), st.integers(0, nr - 1))
    links = {(min(a, b), max(a, b)) for a, b in draw(st.lists(pairs, max_size=60))}
    adjacency = [[] for _ in range(nr)]
    for a, b in sorted(links):
        if a != b:
            adjacency[a].append(b)
            adjacency[b].append(a)
    return adjacency


@given(symmetric_graphs())
@example([[]])  # one router
@example([[], [], []])  # no edges
@example([[1], [0], [3], [2, 4], [3]])  # several components
@settings(max_examples=150, deadline=None)
def test_all_pairs_hops_matches_per_source_bfs(adjacency):
    """The bit-parallel kernel equals per-source BFS in sum, maximum and
    connectivity, over the pairs that are connected."""
    dists = [hop_distances(adjacency, s) for s in range(len(adjacency))]
    reached = [d for row in dists for d in row if d >= 0]
    summary = all_pairs_hops(adjacency)
    assert summary.total == sum(reached)
    assert summary.diameter == max(reached)
    assert summary.connected == all(d >= 0 for row in dists for d in row)
