"""Tests for baseline topologies and the Table 4 catalog."""

import pytest

import repro.topos.catalog as catalog_module
from repro.core import SlimNoC
from repro.engine import resolve_topology
from repro.topos import (
    ConcentratedMesh,
    Dragonfly,
    FlattenedButterfly,
    FoldedClos,
    PartitionedFBF,
    Topology,
    Torus2D,
    catalog_symbols,
    cycle_time_ns,
    expected_nodes,
    make_network,
)

# (symbol, p, k', k, routers, N) rows straight from Table 4.
TABLE4_ROWS = [
    ("t2d3", 3, 4, 7, 64, 192),
    ("t2d4", 4, 4, 8, 50, 200),
    ("cm3", 3, 4, 7, 64, 192),
    ("cm4", 4, 4, 8, 50, 200),
    ("fbf3", 3, 14, 17, 64, 192),
    ("fbf4", 4, 13, 17, 50, 200),
    ("pfbf3", 3, 8, 11, 64, 192),
    ("pfbf4", 4, 9, 13, 50, 200),
    ("sn200", 4, 7, 11, 50, 200),
    ("t2d9", 9, 4, 13, 144, 1296),
    ("t2d8", 8, 4, 12, 162, 1296),
    ("cm9", 9, 4, 13, 144, 1296),
    ("cm8", 8, 4, 12, 162, 1296),
    ("fbf9", 9, 22, 31, 144, 1296),
    ("fbf8", 8, 25, 33, 162, 1296),
    ("pfbf9", 9, 12, 21, 144, 1296),
    ("pfbf8", 8, 17, 25, 162, 1296),
    ("sn1296", 8, 13, 21, 162, 1296),
]


class TestTable4:
    @pytest.mark.parametrize("symbol,p,kprime,k,routers,nodes", TABLE4_ROWS)
    def test_catalog_matches_table4(self, symbol, p, kprime, k, routers, nodes):
        t = make_network(symbol)
        assert t.concentration == p
        assert t.network_radix == kprime
        assert t.router_radix == k
        assert t.num_routers == routers
        assert t.num_nodes == nodes
        assert expected_nodes(symbol) == nodes

    def test_diameters(self):
        assert make_network("sn200").diameter == 2
        assert make_network("fbf3").diameter == 2
        assert make_network("pfbf3").diameter == 4
        assert make_network("t2d3").diameter == 8
        assert make_network("cm3").diameter == 14

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError):
            make_network("hypercube")

    def test_layout_override_only_for_sn(self):
        sn = make_network("sn200", layout="sn_gr")
        assert sn.name == "sn_gr"
        with pytest.raises(ValueError):
            make_network("fbf3", layout="sn_gr")

    def test_cycle_times(self):
        assert cycle_time_ns("sn200") == 0.5
        assert cycle_time_ns("pfbf3") == 0.5
        assert cycle_time_ns("t2d9") == 0.4
        assert cycle_time_ns("cm4") == 0.4
        assert cycle_time_ns("fbf8") == 0.6
        with pytest.raises(ValueError):
            cycle_time_ns("xyz")

    def test_catalog_is_complete(self):
        symbols = catalog_symbols()
        for row in TABLE4_ROWS:
            assert row[0] in symbols


class TestCatalogMemo:
    """``make_network`` builds each (symbol, layout) key once per process."""

    @pytest.mark.parametrize("symbol", catalog_symbols())
    def test_one_object_per_symbol(self, symbol):
        assert make_network(symbol) is make_network(symbol)
        assert make_network(symbol, layout=None) is make_network(symbol)

    @pytest.mark.parametrize("layout", ["sn_basic", "sn_gr", "sn_rand"])
    def test_one_object_per_layout(self, layout):
        sn = make_network("sn200", layout=layout)
        assert make_network("sn200", layout) is sn
        assert sn.layout == layout
        default = make_network("sn200")
        assert sn is not default
        assert sn.fingerprint != default.fingerprint

    def test_rejected_keys_cache_nothing(self, monkeypatch):
        monkeypatch.setattr(catalog_module, "_NETWORKS", {})
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown network"):
                make_network("hypercube")
            with pytest.raises(ValueError, match="fixed layout"):
                make_network("fbf3", layout="sn_gr")
        assert catalog_module._NETWORKS == {}

    def test_resolve_topology_returns_memoised_object(self):
        assert resolve_topology("sn200") is make_network("sn200")
        assert resolve_topology("sn200", "sn_gr") is make_network("sn200", "sn_gr")


class _Listed(Topology):
    """A topology over a given adjacency list, one router per grid column."""

    def __init__(self, adjacency):
        super().__init__(1)
        self._listed = adjacency

    def _build_adjacency(self):
        return [tuple(neighbors) for neighbors in self._listed]

    def _build_coordinates(self):
        return {router: (router + 1, 1) for router in range(len(self._listed))}


class TestAdjacencyValidation:
    def test_valid_adjacency_passes(self):
        assert _Listed([(1, 2), (0,), (0,)]).adjacency == [(1, 2), (0,), (0,)]

    @pytest.mark.parametrize(
        "adjacency,message",
        [
            ([(1,), (1, 0)], "router 1 has a self-loop"),
            ([(1, 1), (0,)], "router 0 has duplicate links"),
            ([(1, 2), (0,), ()], "link 0->2 is not symmetric"),
        ],
    )
    def test_invalid_adjacency_rejected(self, adjacency, message):
        with pytest.raises(ValueError, match=message):
            _Listed(adjacency).adjacency


class TestTorus:
    def test_every_router_has_degree_four(self):
        t = Torus2D(6, 5, 2)
        assert all(len(n) == 4 for n in t.adjacency)

    def test_wraparound_exists(self):
        t = Torus2D(5, 5, 1)
        assert t.router_at(4, 0) in t.adjacency[t.router_at(0, 0)]

    def test_all_links_single_hop(self):
        """Folded layout: every torus link is a near-neighbor wire."""
        t = Torus2D(6, 6, 1)
        assert all(t.link_length_hops(i, j) == 1 for i, j in t.edges())

    def test_diameter(self):
        t = Torus2D(8, 8, 1)
        assert t.diameter == 8  # floor(8/2) + floor(8/2)

    def test_small_torus_rejected(self):
        with pytest.raises(ValueError):
            Torus2D(2, 2, 1)


class TestMesh:
    def test_corner_degree_two(self):
        m = ConcentratedMesh(4, 4, 2)
        assert len(m.adjacency[0]) == 2

    def test_interior_degree_four(self):
        m = ConcentratedMesh(4, 4, 2)
        assert len(m.adjacency[m.router_at(1, 1)]) == 4

    def test_diameter_is_cols_plus_rows_minus_two(self):
        m = ConcentratedMesh(5, 3, 1)
        assert m.diameter == 6

    def test_all_links_unit_length(self):
        m = ConcentratedMesh(4, 4, 1)
        assert all(m.link_length_hops(i, j) == 1 for i, j in m.edges())


class TestFlattenedButterfly:
    def test_radix(self):
        f = FlattenedButterfly(8, 8, 3)
        assert f.network_radix == 14  # 7 row + 7 col peers

    def test_diameter_two(self):
        assert FlattenedButterfly(5, 4, 1).diameter == 2

    def test_row_and_column_cliques(self):
        f = FlattenedButterfly(4, 4, 1)
        r = f.router_at(1, 2)
        neighbors = set(f.adjacency[r])
        row = {f.router_at(x, 2) for x in range(4)} - {r}
        col = {f.router_at(1, y) for y in range(4)} - {r}
        assert neighbors == row | col


class TestPartitionedFBF:
    def test_pfbf3_structure(self):
        p = PartitionedFBF(4, 4, 2, 2, 3)
        assert p.num_routers == 64
        assert p.network_radix == 8  # 3+3 clique + 2 mirror ports

    def test_corner_partition_router_lower_degree(self):
        # A router in the corner partition far from both boundaries still has
        # its clique links but mirror links only toward existing partitions.
        p = PartitionedFBF(4, 4, 2, 2, 3)
        degrees = {len(n) for n in p.adjacency}
        assert degrees == {8}  # 2x2 grid: every partition has exactly 2 neighbors

    def test_two_partition_variant(self):
        p = PartitionedFBF(5, 5, 2, 1, 4)
        assert p.network_radix == 9  # 4+4 clique + 1 mirror port
        assert p.diameter == 3

    def test_mirror_links_connect_same_local_position(self):
        p = PartitionedFBF(4, 4, 2, 2, 3)
        r = p.router_at(1, 1)  # partition (0,0), local (1,1)
        mirror_x = p.router_at(5, 1)  # partition (1,0), local (1,1)
        mirror_y = p.router_at(1, 5)  # partition (0,1), local (1,1)
        assert mirror_x in p.adjacency[r]
        assert mirror_y in p.adjacency[r]


class TestDragonfly:
    def test_balanced_structure(self):
        d = Dragonfly(2)
        assert d.group_size == 4
        assert d.num_groups == 9
        assert d.num_routers == 36
        assert d.network_radix == 5  # 3 local + 2 global

    def test_diameter_three(self):
        assert Dragonfly(2).diameter == 3

    def test_one_link_per_group_pair(self):
        d = Dragonfly(2)
        counts = {}
        for i, j in d.edges():
            ga, gb = d.group_of(i), d.group_of(j)
            if ga != gb:
                counts[(min(ga, gb), max(ga, gb))] = counts.get((min(ga, gb), max(ga, gb)), 0) + 1
        assert set(counts.values()) == {1}
        assert len(counts) == 9 * 8 // 2

    def test_groups_are_cliques(self):
        d = Dragonfly(2)
        for g in range(d.num_groups):
            members = [r for r in range(d.num_routers) if d.group_of(r) == g]
            for a in members:
                for b in members:
                    if a != b:
                        assert b in d.adjacency[a]

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            Dragonfly(0)


class TestFoldedClos:
    def test_leaf_spine_connectivity(self):
        c = FoldedClos(8, 4, 2)
        assert c.num_routers == 12
        assert c.num_nodes == 16  # spines host no nodes
        assert c.diameter == 2

    def test_spines_host_no_nodes(self):
        c = FoldedClos(8, 4, 2)
        assert len(c.router_nodes(9)) == 0
        assert len(c.router_nodes(0)) == 2

    def test_node_router_mapping(self):
        c = FoldedClos(8, 4, 2)
        assert c.node_router(0) == 0
        assert c.node_router(15) == 7
        with pytest.raises(ValueError):
            c.node_router(16)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            FoldedClos(1, 1, 2)


class TestTopologyBase:
    def test_node_router_roundtrip(self):
        t = make_network("sn200")
        for node in range(t.num_nodes):
            assert node in t.router_nodes(t.node_router(node))

    def test_node_out_of_range(self):
        t = make_network("sn200")
        with pytest.raises(ValueError):
            t.node_router(200)

    def test_coordinates_unique(self):
        for symbol in ("sn200", "fbf3", "t2d4", "pfbf9"):
            t = make_network(symbol)
            assert len(set(t.coordinates.values())) == t.num_routers

    def test_concentration_validation(self):
        with pytest.raises(ValueError):
            SlimNoC(5, 0)


#: Fig 3's directly built networks: naive SF, fixed-radix FBF and torus,
#: and the Dragonfly of Fig 3b/c.
FIG3_NETWORKS = [
    *(
        SlimNoC(q, p, layout="sn_rand")
        for q, p in [(3, 3), (5, 4), (7, 6), (9, 8), (11, 8)]
    ),
    *(
        cls(cols, rows, p)
        for cols, rows, p in [(6, 3, 3), (10, 5, 4), (14, 7, 6), (18, 9, 8), (22, 11, 8)]
        for cls in (FlattenedButterfly, Torus2D)
    ),
    Dragonfly(2, concentration=6, name="df"),
]


class TestLinkLengthTable:
    """The one-pass link table against one ``link_length_hops`` per edge
    (the catalog is covered in test_power.py, Fig 5 in test_layouts.py)."""

    @staticmethod
    def _check(topo):
        assert topo.link_lengths == [
            (i, j, topo.link_length_hops(i, j)) for i, j in topo.edges()
        ]

    @pytest.mark.parametrize(
        "topo", FIG3_NETWORKS, ids=lambda t: f"{type(t).__name__}-{t.num_routers}"
    )
    def test_fig3_networks(self, topo):
        self._check(topo)

    def test_non_square_torus_keeps_ring_metric(self):
        torus = Torus2D(5, 3, 2)
        self._check(torus)
        # Wrap-around links span the die in Manhattan terms; the folded
        # torus keeps every wire one hop long.
        assert {length for _, _, length in torus.link_lengths} == {1}
        assert torus.router_at(0, 0) in torus.router_neighbors(torus.router_at(4, 0))
