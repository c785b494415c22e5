"""Figure 15: area and static power without SMART links, N = 200.

(a) Area of the four SN layouts: sn_subgr smallest (shortest wires ->
    smallest RTT-sized buffers).
(b) Total area per network: SN beats FBF by ~34%; PFBF slightly smaller.
(c) Static power: SN beats FBF by ~43%.
"""

from repro.core import SlimNoC
from repro.power import TECH_45NM, network_area, static_power
from repro.topos import make_network

from harness import print_series

LAYOUTS = ["sn_rand", "sn_basic", "sn_gr", "sn_subgr"]
NETWORKS = ["fbf4", "pfbf4", "sn200", "t2d4", "cm4"]


def figure_15():
    layout_area = {
        layout: network_area(
            SlimNoC(5, 4, layout=layout), TECH_45NM, edge_buffer_flits=None
        ).total
        for layout in LAYOUTS
    }
    net_area = {}
    net_power = {}
    for sym in NETWORKS:
        topo = make_network(sym)
        net_area[sym] = network_area(topo, TECH_45NM, edge_buffer_flits=None)
        net_power[sym] = static_power(topo, TECH_45NM, edge_buffer_flits=None)
    return layout_area, net_area, net_power


def test_fig15(benchmark):
    layout_area, net_area, net_power = benchmark.pedantic(figure_15, rounds=1, iterations=1)
    print_series(
        "Figure 15a: SN layout area [mm^2] (RTT buffers, no SMART)",
        ["layout", "area"],
        [[l, round(layout_area[l], 2)] for l in LAYOUTS],
    )
    print_series(
        "Figure 15b/15c: area [mm^2] and static power [W] per network",
        ["network", "a-routers", "i-routers", "RR-wires", "total mm^2", "static W"],
        [
            [s, round(net_area[s].a_routers, 2), round(net_area[s].i_routers, 2),
             round(net_area[s].rr_wires, 2), round(net_area[s].total, 2),
             round(net_power[s].total, 3)]
            for s in NETWORKS
        ],
    )
    # 15a: subgroup layout is the cheapest (paper's prediction).
    assert layout_area["sn_subgr"] == min(layout_area.values())
    assert layout_area["sn_subgr"] < layout_area["sn_rand"]
    # 15b: SN outperforms FBF by ~34% in area.
    gain = 1 - net_area["sn200"].total / net_area["fbf4"].total
    print(f"\nSN area gain over FBF: {gain:.0%} (paper: ~34%)")
    assert 0.20 < gain < 0.60
    # PFBF's area is slightly smaller than SN's without SMART (paper).
    assert net_area["pfbf4"].total < 1.15 * net_area["sn200"].total
    # 15c: SN static power ~43% below FBF.
    power_gain = 1 - net_power["sn200"].total / net_power["fbf4"].total
    print(f"SN static power gain over FBF: {power_gain:.0%} (paper: ~43%)")
    assert 0.25 < power_gain < 0.65
    # Low-radix networks stay the absolute smallest.
    assert net_area["cm4"].total < net_area["sn200"].total
