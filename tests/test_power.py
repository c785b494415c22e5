"""Tests for the area/power/energy models — the paper's comparison metrics."""

import math

import pytest

import repro.topos.base as base_module
from repro.analysis import degrade
from repro.analysis.resilience import failed_links
from repro.core import SlimNoC
from repro.engine import topology_fingerprint
from repro.power import (
    TECH_22NM,
    TECH_45NM,
    average_route_stats,
    dynamic_power,
    make_metrics,
    network_area,
    normalize,
    static_power,
    technology,
    tile_side_mm,
)
from repro.power.area import crossbar_area_mm2, router_buffer_flits, total_wire_mm
from repro.routing.paths import MinimalPaths
from repro.topos import catalog_symbols, cycle_time_ns, make_network
from repro.topos.base import Topology
from oracles import shortest_hops_from


class TestTechnology:
    def test_lookup(self):
        assert technology(45) is TECH_45NM
        assert technology(22) is TECH_22NM
        with pytest.raises(ValueError):
            technology(7)

    def test_node_scaling(self):
        assert TECH_22NM.sram_bit_area_mm2 < TECH_45NM.sram_bit_area_mm2
        assert TECH_22NM.buffer_energy_j_per_bit < TECH_45NM.buffer_energy_j_per_bit
        assert TECH_22NM.voltage < TECH_45NM.voltage

    def test_wires_scale_worse_than_logic(self):
        """The paper's 22nm observation: wires shrink less than logic."""
        logic_scale = TECH_22NM.sram_bit_area_mm2 / TECH_45NM.sram_bit_area_mm2
        wire_scale = TECH_22NM.wire_pitch_mm / TECH_45NM.wire_pitch_mm
        assert wire_scale > logic_scale

    def test_tile_side(self):
        assert tile_side_mm(TECH_45NM, 4) == pytest.approx(4.0)
        assert tile_side_mm(TECH_22NM, 4) == pytest.approx(2.0)


class TestAreaModel:
    def test_crossbar_quadratic_in_radix(self):
        a10 = crossbar_area_mm2(TECH_45NM, 10)
        a20 = crossbar_area_mm2(TECH_45NM, 20)
        assert a20 == pytest.approx(4 * a10)

    def test_buffer_flits_fixed_depth(self):
        sn = make_network("sn200")
        flits = router_buffer_flits(sn, vcs=2, edge_buffer_flits=5)
        assert flits == [7 * 2 * 5] * 50  # k'=7 ports, 2 VCs, 5 flits

    def test_buffer_flits_variable_depth(self):
        sn = make_network("sn200")
        fixed = router_buffer_flits(sn, edge_buffer_flits=5)
        variable = router_buffer_flits(sn, edge_buffer_flits=None)
        assert sum(variable) > sum(fixed)  # RTT-sized buffers are deeper

    def test_smart_shrinks_variable_buffers(self):
        sn = make_network("sn1296")
        plain = router_buffer_flits(sn, hops_per_cycle=1, edge_buffer_flits=None)
        smart = router_buffer_flits(sn, hops_per_cycle=9, edge_buffer_flits=None)
        assert sum(smart) < sum(plain)

    def test_central_buffer_flits(self):
        sn = make_network("sn200")
        flits = router_buffer_flits(sn, central_buffer_flits=20)
        assert flits == [20 + 2 * 7 * 2] * 50

    def test_wire_mm_positive_and_layout_sensitive(self):
        basic = make_network("sn200", layout="sn_basic")
        subgr = make_network("sn200", layout="sn_subgr")
        assert total_wire_mm(subgr, TECH_45NM) < total_wire_mm(basic, TECH_45NM)

    def test_breakdown_sums_to_total(self):
        sn = make_network("sn200")
        report = network_area(sn, TECH_45NM)
        parts = (report.a_routers, report.i_routers, report.rr_wires, report.rn_wires)
        assert report.total == pytest.approx(sum(parts))

    def test_paper_fig16_sn_beats_fbf_area(self):
        """SN reduces area over FBF by roughly 33-50% (Figures 15-17)."""
        sn = make_network("sn200")
        fbf = make_network("fbf4")
        ratio = network_area(sn, TECH_45NM).total / network_area(fbf, TECH_45NM).total
        assert 0.4 < ratio < 0.75

    def test_paper_low_radix_smallest(self):
        sn = make_network("sn200")
        t2d = make_network("t2d4")
        assert network_area(t2d, TECH_45NM).total < network_area(sn, TECH_45NM).total

    def test_22nm_smaller_than_45nm(self):
        sn = make_network("sn200")
        assert network_area(sn, TECH_22NM).total < network_area(sn, TECH_45NM).total


class TestStaticPower:
    def test_components_positive(self):
        report = static_power(make_network("sn200"), TECH_45NM)
        assert report.buffers > 0 and report.crossbars > 0 and report.wires > 0
        assert report.total == pytest.approx(
            report.buffers + report.crossbars + report.wires
        )

    def test_sn_beats_fbf_static(self):
        """Paper: SN reduces static power over FBF by ~45-60%."""
        sn = static_power(make_network("sn200"), TECH_45NM).total
        fbf = static_power(make_network("fbf4"), TECH_45NM).total
        assert 0.35 < sn / fbf < 0.70

    def test_sn_beats_pfbf_static(self):
        sn = static_power(make_network("sn200"), TECH_45NM).total
        pfbf = static_power(make_network("pfbf4"), TECH_45NM).total
        assert sn < pfbf

    def test_low_radix_lowest_static(self):
        t2d = static_power(make_network("t2d4"), TECH_45NM).total
        sn = static_power(make_network("sn200"), TECH_45NM).total
        assert sn > 1.4 * t2d  # paper: SN uses >40% more static than T2D


class TestDynamicPower:
    def test_scales_with_rate(self):
        sn = make_network("sn200")
        low = dynamic_power(sn, TECH_45NM, 0.01, 0.5).total
        high = dynamic_power(sn, TECH_45NM, 0.10, 0.5).total
        assert high > low
        with pytest.raises(ValueError):
            dynamic_power(sn, TECH_45NM, -0.1, 0.5)

    def test_sn_beats_fbf_dynamic(self):
        """Paper Figure 16c: SN's dynamic power is below FBF's."""
        sn_t = make_network("sn200")
        fbf_t = make_network("fbf3")
        sn = dynamic_power(sn_t, TECH_45NM, 0.05, 0.5).total
        fbf = dynamic_power(fbf_t, TECH_45NM, 0.05, 0.6).total
        assert sn < fbf

    def test_clock_power_floor(self):
        """Even at zero activity, clocked buffers burn dynamic power."""
        sn = make_network("sn200")
        report = dynamic_power(sn, TECH_45NM, 0.0, 0.5)
        assert report.buffers > 0

    def test_route_stats(self):
        sn = make_network("sn200")
        hops, wire = average_route_stats(sn)
        assert 1.0 < hops < 2.0  # diameter-2 network
        assert wire > hops  # physical length exceeds hop count

    def test_route_averages_are_not_positional(self):
        """A stale precomputed (hops, wire) tuple must not land in ``vcs``."""
        sn = make_network("sn54")
        with pytest.raises(TypeError, match="positional argument"):
            dynamic_power(sn, TECH_45NM, 0.05, 0.5, average_route_stats(sn))


def reference_route_stats(topology):
    """Reference: every (src, dst) route walked hop by hop with ``walk``."""
    paths = MinimalPaths(topology)
    nr = topology.num_routers
    total_hops = 0.0
    total_wire = 0.0
    pairs = 0
    for src in range(nr):
        for dst in range(nr):
            if src == dst:
                continue
            path = paths.walk(src, dst)
            total_hops += len(path) - 1
            total_wire += sum(
                topology.link_length_hops(a, b) for a, b in zip(path, path[1:])
            )
            pairs += 1
    return total_hops / pairs, total_wire / pairs


class DegradedTopology(Topology):
    """``base`` with the links :func:`repro.analysis.degrade` removes."""

    def __init__(self, base, fail_fraction, seed):
        super().__init__(base.concentration)
        failed = failed_links(base, fail_fraction, seed)
        self._adjacency = [
            tuple(
                n
                for n in base.router_neighbors(r)
                if (min(r, n), max(r, n)) not in failed
            )
            for r in range(base.num_routers)
        ]
        self._coordinates = dict(base.coordinates)

    def _build_adjacency(self):
        return self._adjacency

    def _build_coordinates(self):
        return self._coordinates


class TestRouteAverages:
    """The one-pass next-hop sweep against a per-pair path walk."""

    @pytest.mark.parametrize("symbol", catalog_symbols())
    def test_equals_path_walk_on_catalog(self, symbol):
        topo = make_network(symbol)
        assert average_route_stats(topo) == reference_route_stats(topo)

    def test_layouts_share_hops_not_wires(self):
        basic = make_network("sn200", layout="sn_basic")
        subgr = make_network("sn200", layout="sn_subgr")
        basic_stats = average_route_stats(basic)
        subgr_stats = average_route_stats(subgr)
        assert basic_stats == reference_route_stats(basic)
        assert subgr_stats == reference_route_stats(subgr)
        assert basic_stats[0] == subgr_stats[0]
        assert basic_stats[1] != subgr_stats[1]
        keys = {topology_fingerprint(basic), topology_fingerprint(subgr)}
        assert len(keys) == 2 and keys <= base_module._ROUTE_TOTALS.keys()

    def test_irregular_degraded_graph(self):
        base = make_network("sn54")
        report = degrade(base, 0.2, seed=3)
        assert report.connected and report.failed_links > 0
        topo = DegradedTopology(base, 0.2, seed=3)
        assert len(topo.edges()) == report.total_links - report.failed_links
        stats = average_route_stats(topo)
        assert stats == reference_route_stats(topo)
        assert stats[0] == report.average_path  # minimal routes are BFS-short
        assert stats != average_route_stats(base)

    def test_disconnected_graph_raises(self):
        base = make_network("sn54")
        assert not degrade(base, 0.8, seed=0).connected
        with pytest.raises(ValueError, match="disconnected"):
            average_route_stats(DegradedTopology(base, 0.8, seed=0))

    def test_memo_serves_rebuilt_topology(self, monkeypatch):
        computed = []
        sum_routes = base_module._sum_routes

        def counting_sum_routes(topology):
            computed.append(topology)
            return sum_routes(topology)

        monkeypatch.setattr(base_module, "_ROUTE_TOTALS", {})
        monkeypatch.setattr(base_module, "_sum_routes", counting_sum_routes)
        sn54 = make_network("sn54")
        first = average_route_stats(sn54)
        assert len(computed) == 1
        # make_network returns one shared object per symbol, so rebuild
        # the structure by hand: the memo must serve it by fingerprint.
        rebuilt = [SlimNoC(3, 3) for _ in range(3)]
        assert all(topo is not sn54 for topo in rebuilt)
        again = average_route_stats(rebuilt[0])
        assert again == first
        assert len(computed) == 1
        dynamic_power(rebuilt[1], TECH_45NM, 0.05, 0.5)
        assert len(computed) == 1
        assert average_route_stats(rebuilt[2]) == first
        assert len(computed) == 1

    def test_hop_metrics_skip_route_totals(self, monkeypatch):
        """``diameter`` and ``average_hop_distance`` read the all-pairs
        hop kernel, never the route totals and their BFS trees."""
        computed = []
        monkeypatch.setattr(base_module, "_ROUTE_TOTALS", {})
        monkeypatch.setattr(base_module, "_sum_routes", computed.append)
        for topo in (SlimNoC(3, 3), DegradedTopology(make_network("sn54"), 0.2, 3)):
            assert topo.diameter >= 2
            assert topo.average_hop_distance() > 1
        assert computed == []
        assert base_module._ROUTE_TOTALS == {}


#: The catalog plus the SN layouts that only move wires.
STRUCTURES = [
    *catalog_symbols(),
    *(f"sn200/{layout}" for layout in ("sn_basic", "sn_gr", "sn_rand")),
]


class TestStructureSummary:
    """The hop metrics of the bit-parallel all-pairs kernel and the route
    totals of one BFS tree per destination against per-source BFS and
    per-pair path walks."""

    @pytest.mark.parametrize("name", STRUCTURES)
    def test_equals_reference(self, name):
        symbol, _, layout = name.partition("/")
        topo = make_network(symbol, layout=layout or None)
        nr = topo.num_routers
        dists = [shortest_hops_from(topo, s) for s in range(nr)]
        assert topo.hop_summary == (sum(map(sum, dists)), max(map(max, dists)), True)
        assert topo.diameter == max(max(d) for d in dists)
        assert topo.average_hop_distance() == sum(map(sum, dists)) / (nr * (nr - 1))
        assert average_route_stats(topo) == reference_route_stats(topo)
        assert topo.link_lengths == [
            (i, j, topo.link_length_hops(i, j)) for i, j in topo.edges()
        ]

    def test_disconnected_graph_raises(self):
        base = make_network("sn54")
        assert not degrade(base, 0.8, seed=3).connected
        topo = DegradedTopology(base, 0.8, seed=3)
        with pytest.raises(ValueError, match="disconnected"):
            topo.diameter
        with pytest.raises(ValueError, match="disconnected"):
            topo.average_hop_distance()
        with pytest.raises(ValueError, match="disconnected"):
            average_route_stats(topo)


class TestEnergyMetrics:
    def test_throughput_per_power(self):
        metrics = make_metrics(
            throughput_flits_per_cycle=100.0,
            cycle_time_ns=0.5,
            static=static_power(make_network("sn200"), TECH_45NM),
            dynamic=dynamic_power(make_network("sn200"), TECH_45NM, 0.05, 0.5),
            avg_latency_cycles=25.0,
        )
        assert metrics.throughput_per_power > 0
        assert metrics.energy_delay_product > 0
        assert metrics.total_power_w == pytest.approx(
            metrics.static_power_w + metrics.dynamic_power_w
        )

    def test_edp_increases_with_latency(self):
        static = static_power(make_network("sn200"), TECH_45NM)
        dynamic = dynamic_power(make_network("sn200"), TECH_45NM, 0.05, 0.5)
        fast = make_metrics(100.0, 0.5, static, dynamic, 20.0)
        slow = make_metrics(100.0, 0.5, static, dynamic, 40.0)
        assert slow.energy_delay_product > fast.energy_delay_product

    def test_zero_throughput_edp_infinite(self):
        static = static_power(make_network("sn200"), TECH_45NM)
        dynamic = dynamic_power(make_network("sn200"), TECH_45NM, 0.0, 0.5)
        metrics = make_metrics(0.0, 0.5, static, dynamic, 20.0)
        assert math.isinf(metrics.energy_delay_product)

    def test_normalize(self):
        values = {"fbf3": 2.0, "sn": 1.0, "cm3": 1.5}
        normed = normalize(values, "fbf3")
        assert normed["fbf3"] == 1.0
        assert normed["sn"] == 0.5
        with pytest.raises(KeyError):
            normalize(values, "t2d")


class TestPaperHeadlines:
    """Figure 1b/1c: SN has the best throughput/power at both nodes."""

    @pytest.mark.parametrize("nm", [45, 22])
    def test_sn_best_throughput_per_power(self, nm):
        """Evaluated at a common offered load: saturated networks burn
        injection-side energy on traffic they cannot deliver."""
        tech = technology(nm)
        offered = 0.40
        results = {}
        for sym, sat in (("sn200", 0.42), ("fbf4", 0.45), ("t2d4", 0.10), ("cm4", 0.08)):
            topo = make_network(sym)
            ct = cycle_time_ns(sym)
            delivered = min(offered, sat)
            metrics = make_metrics(
                throughput_flits_per_cycle=delivered * topo.num_nodes,
                cycle_time_ns=ct,
                static=static_power(topo, tech),
                dynamic=dynamic_power(topo, tech, offered, ct),
                avg_latency_cycles=25.0,
            )
            results[sym] = metrics.throughput_per_power
        assert results["sn200"] == max(results.values())
