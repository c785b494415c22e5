"""Table 5: SN's throughput/power advantage under random traffic.

Flits delivered per joule at a common offered load, for both size
classes and both technology nodes.  Paper: SN beats everything; the
largest gains are over the low-radix networks (>95%), the smallest over
full-bandwidth FBF.
"""

import pytest

from repro.analysis import LargeScaleModel
from repro.power import dynamic_power, make_metrics, static_power, technology
from repro.topos import cycle_time_ns, make_network

from harness import print_series

CLASSES = {
    "small": ("sn200", ["t2d4", "cm4", "pfbf3", "fbf3", "fbf4"]),
    "large": ("sn1296", ["t2d9", "cm9", "pfbf9", "fbf8", "fbf9"]),
}
OFFERED = 0.30


def throughput_per_power(sym: str, nm: int) -> float:
    tech = technology(nm)
    topo = make_network(sym)
    ct = cycle_time_ns(sym)
    model = LargeScaleModel.build(topo, "RND")
    delivered = min(OFFERED, model.saturation_rate)
    metrics = make_metrics(
        throughput_flits_per_cycle=delivered * topo.num_nodes,
        cycle_time_ns=ct,
        static=static_power(topo, tech, hops_per_cycle=9, edge_buffer_flits=None),
        dynamic=dynamic_power(
            topo, tech, OFFERED, ct,
            hops_per_cycle=9, edge_buffer_flits=None,
        ),
        avg_latency_cycles=25.0,
    )
    return metrics.throughput_per_power


def build_table(nm: int):
    table = {}
    for label, (sn_sym, baselines) in CLASSES.items():
        sn_value = throughput_per_power(sn_sym, nm)
        for base in baselines:
            table[(label, base)] = sn_value / throughput_per_power(base, nm) - 1.0
    return table


@pytest.mark.parametrize("nm", [45, 22])
def test_table5(nm, benchmark):
    table = benchmark.pedantic(build_table, args=(nm,), rounds=1, iterations=1)
    rows = [
        [label, base, f"{gain:+.0%}"] for (label, base), gain in sorted(table.items())
    ]
    print_series(
        f"Table 5 ({nm}nm): SN throughput/power gain over baselines (RND)",
        ["class", "baseline", "SN gain"],
        rows,
    )
    # SN wins against every baseline at both size classes.
    for (label, base), gain in table.items():
        assert gain > 0, f"SN does not beat {base} at {label}/{nm}nm"
    # Gains over the low-radix networks dwarf the gains over FBF.
    assert table[("small", "t2d4")] > table[("small", "fbf4")]
    assert table[("large", "cm9")] > table[("large", "fbf9")]
    # Low-radix gains are the paper's ">95%" class.
    assert table[("small", "t2d4")] > 0.9
    assert table[("large", "t2d9")] > 0.9
