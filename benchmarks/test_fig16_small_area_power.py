"""Figure 16: area / static / dynamic power with SMART, N in {192, 200},
at 45nm and 22nm.

With SMART, RTT-sized buffers shrink (H=9), which benefits SN's long
wires the most: SN's area drops below PFBF's and far below FBF's.
"""

import pytest

from repro.power import dynamic_power, network_area, static_power, technology

from harness import print_series
from repro.topos import cycle_time_ns, make_network

NETWORKS = ["fbf3", "fbf4", "pfbf3", "sn200", "t2d4", "cm4"]
RATE = 0.05


def figure_16(nm: int):
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
def test_fig16(nm, benchmark):
    rows = benchmark.pedantic(figure_16, args=(nm,), rounds=1, iterations=1)
    print_series(
        f"Figure 16 ({nm}nm, SMART, N~200): per-node area/static/dynamic",
        ["network", "area cm^2", "static W", "dynamic W"],
        [[s, *map(lambda v: round(v, 6), rows[s])] for s in NETWORKS],
    )
    sn = rows["sn200"]
    # SN reduces area over FBF ~40-50% and static power ~45-60%.
    assert 1 - sn[0] / rows["fbf3"][0] > 0.30
    assert 1 - sn[1] / rows["fbf3"][1] > 0.35
    # SN comparable to PFBF in area and below it in static power with
    # SMART (paper: ~9% area, 14-27% static; our wires keep SN within
    # a few percent on area).
    assert sn[0] < rows["pfbf3"][0] * 1.15
    assert sn[1] < rows["pfbf3"][1]
    # Dynamic power: SN below both FBF variants.
    assert sn[2] < rows["fbf3"][2]
    assert sn[2] < rows["fbf4"][2]
    # Low-radix networks keep the smallest area (their selling point).
    assert rows["t2d4"][0] < sn[0]
