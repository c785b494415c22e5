"""Tests for Slim NoC layouts, placement model, and cost models (section 3)."""

import gc
import math
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SlimNoC,
    average_wire_length,
    edge_buffer_flits,
    layout_coordinates,
    link_distance_histogram,
    max_wire_crossings,
    mms_graph,
    per_router_central_buffer,
    per_router_edge_buffers,
    round_trip_cycles,
    technology_wire_limit,
    total_central_buffers,
    total_edge_buffers,
    wire_crossing_counts,
)
from repro.core.costmodel import BufferBudget
from repro.core.layouts import LAYOUTS, group_tile_shape
from repro.topos import catalog_symbols, make_network
from repro.topos.base import all_pairs_hops
from oracles import hop_distances, satisfies_wire_constraint, wire_counts, wire_path

ALL_LAYOUTS = sorted(LAYOUTS)


class TestLayoutGeometry:
    @pytest.mark.parametrize("layout", ALL_LAYOUTS)
    @pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
    def test_coordinates_bijective(self, layout, q):
        coords = layout_coordinates(mms_graph(q), layout)
        assert len(coords) == 2 * q * q
        assert len(set(coords.values())) == 2 * q * q

    @pytest.mark.parametrize("layout", ["sn_basic", "sn_subgr", "sn_rand"])
    @pytest.mark.parametrize("q", [3, 5, 9])
    def test_rectangular_q_by_2q(self, layout, q):
        """Basic/subgroup/random layouts use the q x 2q rectangle (section 3.3)."""
        coords = layout_coordinates(mms_graph(q), layout)
        xs = {c[0] for c in coords.values()}
        ys = {c[1] for c in coords.values()}
        assert max(xs) == q and min(xs) == 1
        assert max(ys) == 2 * q and min(ys) == 1

    def test_basic_formula(self):
        """[G|a,b] -> (b, a + G*q)."""
        g = mms_graph(5)
        coords = layout_coordinates(g, "sn_basic")
        for index in range(g.num_routers):
            label = g.label(index)
            assert coords[index] == (label.position, label.subgroup + label.group_type * 5)

    def test_subgroup_formula(self):
        """[G|a,b] -> (b, 2a - (1 - G))."""
        g = mms_graph(5)
        coords = layout_coordinates(g, "sn_subgr")
        for index in range(g.num_routers):
            label = g.label(index)
            assert coords[index] == (
                label.position,
                2 * label.subgroup - (1 - label.group_type),
            )

    def test_subgroup_interleaves_types(self):
        """Consecutive rows alternate subgroup type in sn_subgr."""
        g = mms_graph(5)
        coords = layout_coordinates(g, "sn_subgr")
        row_types = {}
        for index in range(g.num_routers):
            y = coords[index][1]
            row_types.setdefault(y, set()).add(g.label(index).group_type)
        for y, types in row_types.items():
            assert types == {(y + 1) % 2}  # odd rows type 0, even rows type 1

    def test_group_layout_reproduces_figure_7b(self):
        """SN-L: 9 groups of 6x3 routers in a 3x3 grid — an 18x9 die."""
        g = mms_graph(9)
        coords = layout_coordinates(g, "sn_gr")
        xs = [c[0] for c in coords.values()]
        ys = [c[1] for c in coords.values()]
        assert max(xs) == 18 and max(ys) == 9
        assert group_tile_shape(9) == (6, 3)

    def test_group_layout_keeps_groups_contiguous(self):
        g = mms_graph(9)
        coords = layout_coordinates(g, "sn_gr")
        width, height = group_tile_shape(9)
        for index in range(g.num_routers):
            label = g.label(index)
            group = label.subgroup - 1
            x, y = coords[index]
            assert (x - 1) // width == group % 3
            assert (y - 1) // height == group // 3

    def test_random_layout_seeded(self):
        g = mms_graph(5)
        a = layout_coordinates(g, "sn_rand", seed=7)
        b = layout_coordinates(g, "sn_rand", seed=7)
        c = layout_coordinates(g, "sn_rand", seed=8)
        assert a == b
        assert a != c

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError):
            layout_coordinates(mms_graph(5), "sn_spiral")


class TestLayoutQuality:
    """Section 3.3.1: optimized layouts shorten wires."""

    @pytest.mark.parametrize("q", [5, 8, 9])
    def test_subgr_and_gr_beat_basic_and_rand(self, q):
        m = {
            layout: SlimNoC(q, 4, layout=layout).average_wire_length()
            for layout in ALL_LAYOUTS
        }
        assert m["sn_subgr"] < m["sn_basic"]
        assert m["sn_gr"] < m["sn_rand"]

    def test_paper_25pct_reduction_ballpark(self):
        """sn_subgr/sn_gr reduce M by roughly 25% vs sn_rand/sn_basic."""
        q = 9
        m = {
            layout: SlimNoC(q, 8, layout=layout).average_wire_length()
            for layout in ALL_LAYOUTS
        }
        best = min(m["sn_subgr"], m["sn_gr"])
        worst = max(m["sn_basic"], m["sn_rand"])
        reduction = 1 - best / worst
        assert 0.10 < reduction < 0.50

    def test_theorem1_cube_root_scaling(self):
        """M of sn_subgr grows like N^(1/3) (Theorem 1): it stays within
        a factor of 4 of the cube root of the node count."""
        for q, p in [(5, 4), (9, 8), (11, 8)]:
            sn = SlimNoC(q, p, layout="sn_subgr")
            cube_root = sn.num_nodes ** (1.0 / 3.0)
            assert 0.25 * cube_root <= sn.average_wire_length() <= 4.0 * cube_root


class TestWirePath:
    def test_straight_wire(self):
        assert wire_path((1, 1), (1, 4)) == [(1, 1), (1, 2), (1, 3), (1, 4)]

    def test_l_shape_x_dominant(self):
        """|dx| > |dy|: leave i vertically first, corner at (xi, yj)."""
        path = wire_path((1, 1), (4, 2))
        assert (1, 2) in path  # corner
        assert (4, 1) not in path

    def test_l_shape_y_dominant(self):
        """|dy| >= |dx|: leave i horizontally first, corner at (xj, yi)."""
        path = wire_path((1, 1), (2, 4))
        assert (2, 1) in path
        assert (1, 4) not in path

    def test_path_length_is_manhattan_plus_one(self):
        ci, cj = (2, 3), (7, 9)
        manhattan = abs(ci[0] - cj[0]) + abs(ci[1] - cj[1])
        assert len(wire_path(ci, cj)) == manhattan + 1

    def test_no_duplicate_slots(self):
        path = wire_path((3, 3), (8, 5))
        assert len(path) == len(set(path))

    @given(
        st.tuples(st.integers(1, 12), st.integers(1, 12)),
        st.tuples(st.integers(1, 12), st.integers(1, 12)),
    )
    @settings(max_examples=100, deadline=None)
    def test_endpoints_always_covered(self, ci, cj):
        path = wire_path(ci, cj)
        assert ci in path and cj in path


#: Fig 5's sweep: every layout at each (q, p).
FIG5_NETWORKS = [
    f"{q}/{p}/{layout}"
    for q, p in [(3, 3), (5, 4), (7, 6), (8, 8), (9, 8), (11, 8)]
    for layout in ["sn_rand", "sn_basic", "sn_gr", "sn_subgr"]
]


class TestWireCrossingCounts:
    """The difference-array count against a walk over every wire slot."""

    @staticmethod
    def _check(topo):
        edges, coords = topo.edges(), topo.coordinates
        reference = wire_counts(edges, coords)
        counts = wire_crossing_counts(edges, coords)
        assert counts == reference
        assert dict(counts) == dict(reference)  # no zero-count slots either

    @pytest.mark.parametrize("symbol", catalog_symbols())
    def test_catalog(self, symbol):
        self._check(make_network(symbol))

    @pytest.mark.parametrize("name", FIG5_NETWORKS)
    def test_fig5_sweep(self, name):
        q, p, layout = name.split("/")
        self._check(SlimNoC(int(q), int(p), layout=layout))

    def test_no_edges(self):
        assert wire_crossing_counts([], {0: (1, 1)}) == Counter()


class TestFig5Structure:
    """Fig 5's directly built networks: the one-pass link table against
    one ``link_length_hops`` per edge, the all-pairs hop kernel against
    per-source BFS."""

    @pytest.mark.parametrize("name", FIG5_NETWORKS)
    def test_link_table_and_hops(self, name):
        q, p, layout = name.split("/")
        sn = SlimNoC(int(q), int(p), layout=layout)
        assert sn.link_lengths == [
            (i, j, sn.link_length_hops(i, j)) for i, j in sn.edges()
        ]
        dists = [hop_distances(sn.adjacency, s) for s in range(sn.num_routers)]
        expected = (sum(map(sum, dists)), max(map(max, dists)), True)
        assert all(min(row) >= 0 for row in dists)
        assert tuple(all_pairs_hops(sn.adjacency)) == expected


class TestWireConstraint:
    def test_crossings_positive_for_sn(self):
        sn = SlimNoC(5, 4, layout="sn_subgr")
        assert max_wire_crossings(sn.edges(), sn.coordinates) > 0

    @pytest.mark.parametrize("layout", ALL_LAYOUTS)
    def test_paper_constraint_satisfied_at_45nm(self, layout):
        """Section 3.3.2: no SN layout violates Eq. 3."""
        sn = SlimNoC(5, 4, layout=layout)
        assert satisfies_wire_constraint(sn.edges(), sn.coordinates, 45, 4)

    def test_sn_l_satisfied_at_22nm(self):
        sn = SlimNoC(9, 8, layout="sn_gr")
        assert satisfies_wire_constraint(sn.edges(), sn.coordinates, 22, 8)

    def test_limit_constant_across_nodes(self):
        """Density doubles while the tile side halves per node step, so the
        per-tile link budget is scale-invariant with the paper's constants."""
        assert (
            technology_wire_limit(45, 4)
            == technology_wire_limit(22, 4)
            == technology_wire_limit(11, 4)
        )

    def test_limit_scales_with_concentration(self):
        assert technology_wire_limit(45, 8) > technology_wire_limit(45, 2)

    def test_unknown_technology_rejected(self):
        with pytest.raises(ValueError):
            technology_wire_limit(7, 4)


class TestBufferModel:
    def test_rtt_formula(self):
        """Tij = 2*ceil(dist/H) + 3."""
        assert round_trip_cycles(0) == 3
        assert round_trip_cycles(1) == 5
        assert round_trip_cycles(4) == 11
        assert round_trip_cycles(9, hops_per_cycle=9) == 5
        assert round_trip_cycles(10, hops_per_cycle=9) == 7

    def test_rtt_validation(self):
        with pytest.raises(ValueError):
            round_trip_cycles(-1)
        with pytest.raises(ValueError):
            round_trip_cycles(3, hops_per_cycle=0)

    def test_edge_buffer_scales_with_vcs(self):
        assert edge_buffer_flits(4, vcs=2) == 2 * edge_buffer_flits(4, vcs=1)

    def test_smart_shrinks_buffers(self):
        """SMART (H=9) cuts the distance term of every edge buffer."""
        sn = SlimNoC(9, 8, layout="sn_subgr")
        assert total_edge_buffers(sn, hops_per_cycle=9) < total_edge_buffers(sn)

    def test_total_edge_buffers_counts_both_directions(self):
        sn = SlimNoC(3, 3)
        per_link = [
            edge_buffer_flits(sn.link_length_hops(i, j), 2) for i, j in sn.edges()
        ]
        assert total_edge_buffers(sn, vcs=2) == 2 * sum(per_link)

    def test_central_buffer_formula(self):
        """Δcb = Nr (δcb + 2 k' |VC|), independent of wire lengths."""
        sn = SlimNoC(5, 4)
        assert total_central_buffers(sn, cb_flits=20, vcs=2) == 50 * (20 + 2 * 7 * 2)

    def test_central_buffer_layout_independent(self):
        a = SlimNoC(5, 4, layout="sn_basic")
        b = SlimNoC(5, 4, layout="sn_subgr")
        assert total_central_buffers(a, 20) == total_central_buffers(b, 20)

    def test_cb_beats_edge_buffers_for_large_n(self):
        """Figure 5b: central buffers need the least space at scale."""
        sn = SlimNoC(9, 8, layout="sn_subgr")
        cb_per_router = per_router_central_buffer(sn, cb_flits=40)
        eb_per_router = sum(per_router_edge_buffers(sn)) / sn.num_routers
        assert cb_per_router < eb_per_router

    def test_per_router_totals_sum_to_delta(self):
        sn = SlimNoC(5, 4)
        assert sum(per_router_edge_buffers(sn)) == total_edge_buffers(sn)

    @pytest.mark.parametrize("vcs,h", [(2, 1), (3, 1), (2, 9)])
    @pytest.mark.parametrize("symbol", ["sn200", "t2d4", "cm3", "fbf4", "df200"])
    def test_per_router_totals_from_scratch(self, symbol, vcs, h):
        topo = make_network(symbol)
        expected = [0] * topo.num_routers
        for i, j in topo.edges():
            size = edge_buffer_flits(topo.link_length_hops(i, j), vcs, h)
            expected[i] += size
            expected[j] += size
        assert per_router_edge_buffers(topo, vcs, h) == expected
        assert total_edge_buffers(topo, vcs, h) == sum(expected)

    def test_per_router_result_is_fresh(self):
        sn = SlimNoC(5, 4)
        first = per_router_edge_buffers(sn)
        kept = list(first)
        first[0] += 1000
        first.append(1)
        assert per_router_edge_buffers(sn) == kept
        assert per_router_edge_buffers(sn) is not per_router_edge_buffers(sn)

    def test_tables_do_not_keep_topology_alive(self):
        sn = SlimNoC(3, 3)
        per_router_edge_buffers(sn)
        total_edge_buffers(sn, hops_per_cycle=9)
        assert sn.diameter == 2
        ref = weakref.ref(sn)
        del sn
        gc.collect()
        assert ref() is None

    def test_buffer_budget_constructors(self):
        sn = SlimNoC(5, 4)
        eb = BufferBudget.edge(sn)
        cb = BufferBudget.central(sn, 20)
        assert eb.scheme == "edge"
        assert cb.scheme == "cbr20"
        assert eb.total_flits == total_edge_buffers(sn)


class TestDistanceHistogram:
    def test_probabilities_sum_to_one(self):
        sn = SlimNoC(5, 4, layout="sn_gr")
        hist = link_distance_histogram(sn)
        assert math.isclose(sum(hist.values()), 1.0)

    def test_bucket_bounds(self):
        sn = SlimNoC(5, 4, layout="sn_subgr")
        for (lo, hi) in link_distance_histogram(sn):
            assert hi == lo + 1
            assert lo % 2 == 1

    def test_figure6_short_links_dominate(self):
        """Fig 6: P(distance in 1-2) ~ 0.25 for both optimized layouts, N=200."""
        for layout in ("sn_gr", "sn_subgr"):
            hist = link_distance_histogram(SlimNoC(5, 4, layout=layout))
            assert hist[(1, 2)] > 0.15

    def test_subgr_avoids_longest_links_at_200(self):
        """Fig 6 observation: sn_subgr uses fewer die-spanning links than sn_gr."""
        gr = link_distance_histogram(SlimNoC(5, 4, layout="sn_gr"))
        subgr = link_distance_histogram(SlimNoC(5, 4, layout="sn_subgr"))
        longest_gr = max(lo for lo, _ in gr)
        longest_subgr = max(lo for lo, _ in subgr)
        assert longest_subgr <= longest_gr


class TestAverageWireLength:
    def test_matches_manual_computation(self):
        sn = SlimNoC(3, 3)
        edges = sn.edges()
        manual = sum(sn.link_length_hops(i, j) for i, j in edges) / len(edges)
        assert math.isclose(average_wire_length(sn), manual)
