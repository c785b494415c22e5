"""Figure 17: area / static / dynamic power with SMART at N = 1296."""

import pytest

from repro.power import dynamic_power, network_area, static_power, technology
from repro.topos import cycle_time_ns, make_network

from harness import print_series

NETWORKS = ["fbf8", "fbf9", "pfbf9", "sn1296", "t2d9", "cm9"]
RATE = 0.05


def figure_17(nm: int):
    tech = technology(nm)
    rows = {}
    for sym in NETWORKS:
        topo = make_network(sym)
        area = network_area(topo, tech, hops_per_cycle=9, edge_buffer_flits=None)
        static = static_power(topo, tech, hops_per_cycle=9, edge_buffer_flits=None)
        dynamic = dynamic_power(
            topo, tech, RATE, cycle_time_ns(sym),
            hops_per_cycle=9, edge_buffer_flits=None,
        )
        n = topo.num_nodes
        rows[sym] = (area.per_node_cm2(n), static.per_node(n), dynamic.per_node(n))
    return rows


@pytest.mark.parametrize("nm", [45, 22])
def test_fig17(nm, benchmark):
    rows = benchmark.pedantic(figure_17, args=(nm,), rounds=1, iterations=1)
    print_series(
        f"Figure 17 ({nm}nm, SMART, N=1296): per-node area/static/dynamic",
        ["network", "area cm^2", "static W", "dynamic W"],
        [[s, *map(lambda v: round(v, 6), rows[s])] for s in NETWORKS],
    )
    sn = rows["sn1296"]
    # Paper: SN reduces area up to ~33% and static power ~41-44% vs FBF.
    # fbf8 is the same-concentration (p=8) comparison point.
    assert 1 - sn[0] / rows["fbf8"][0] > 0.25
    assert 1 - sn[1] / rows["fbf8"][1] > 0.30
    # Paper: SN's dynamic power below FBF at this scale.
    assert sn[2] < rows["fbf9"][2]
    # pfbf9 improves on SN in raw area/power at 1296 (paper: by ~10-15%) —
    # SN wins the tradeoff on throughput instead (Table 5 / Fig 13).
    assert rows["pfbf9"][0] < sn[0] * 1.2
    # 22nm: wires take a relatively larger share than at 45nm.
    if nm == 22:
        rows45 = figure_17(45)
        assert (sn[0] / rows45["sn1296"][0]) < 1.0  # absolute shrink
