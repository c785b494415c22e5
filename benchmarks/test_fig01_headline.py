"""Figure 1: the paper's headline results at N = 1296.

(a) Average packet latency under an adversarial pattern: SN below FBF,
    mesh, and torus.
(b/c) Throughput per power at 45nm and 22nm: SN highest.
"""

import pytest

from repro.analysis import LargeScaleModel
from repro.power import dynamic_power, make_metrics, static_power, technology
from repro.sim import SimConfig
from repro.topos import cycle_time_ns, make_network

from harness import print_series

NETWORKS = ["sn1296", "fbf9", "t2d9", "cm9"]
LOADS = [0.008, 0.024, 0.080]


def figure_1a():
    smart = SimConfig().with_smart()
    curves = {}
    for sym in NETWORKS:
        model = LargeScaleModel.build(make_network(sym), "ADV2", smart)
        ct = cycle_time_ns(sym)
        curves[sym] = {
            load: (model.latency(load) * ct if model.latency(load) != float("inf") else None)
            for load in LOADS
        }
    return curves


def figure_1bc(nm: int):
    tech = technology(nm)
    offered = 0.30
    results = {}
    for sym in NETWORKS:
        topo = make_network(sym)
        ct = cycle_time_ns(sym)
        model = LargeScaleModel.build(topo, "RND")
        delivered = min(offered, model.saturation_rate)
        metrics = make_metrics(
            throughput_flits_per_cycle=delivered * topo.num_nodes,
            cycle_time_ns=ct,
            static=static_power(topo, tech),
            dynamic=dynamic_power(topo, tech, offered, ct),
            avg_latency_cycles=model.latency(min(delivered, model.saturation_rate * 0.9)),
        )
        results[sym] = metrics.throughput_per_power
    return results


def test_fig01a_latency(benchmark):
    curves = benchmark.pedantic(figure_1a, rounds=1, iterations=1)
    rows = [
        [sym] + [f"{curves[sym][load]:.1f}" if curves[sym][load] else "sat" for load in LOADS]
        for sym in NETWORKS
    ]
    print_series("Figure 1a: adversarial latency [ns], N=1296", ["network"] + [str(l) for l in LOADS], rows)
    for load in LOADS:
        sn = curves["sn1296"][load]
        assert sn is not None
        for other in ("t2d9", "cm9"):
            if curves[other][load] is not None:
                assert sn < curves[other][load]


@pytest.mark.parametrize("nm", [45, 22])
def test_fig01bc_throughput_per_power(nm, benchmark):
    results = benchmark.pedantic(figure_1bc, args=(nm,), rounds=1, iterations=1)
    rows = [[sym, results[sym]] for sym in NETWORKS]
    print_series(f"Figure 1{'b' if nm == 45 else 'c'}: throughput/power [flits/J], {nm}nm", ["network", "flits/J"], rows)
    assert results["sn1296"] == max(results.values())
    # Paper: >100% over mesh/torus.
    assert results["sn1296"] > 2.0 * results["t2d9"]
    assert results["sn1296"] > 2.0 * results["cm9"]
