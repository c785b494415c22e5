"""Figure 10: latency with different SN layouts (no SMART), N = 200.

(a) Synthetic traffic (REV / RND / SHF) across loads.
(b) PARSEC/SPLASH-like workloads: sn_subgr averages ~5% below sn_basic
    (geometric mean).
"""

from repro.analysis import geometric_mean
from repro.engine import default_engine, workload_compare
from repro.topos import make_network

from harness import SIM_KW, latency_curves, print_series

LAYOUTS = ["sn_basic", "sn_gr", "sn_rand", "sn_subgr"]
PATTERNS = ["REV", "RND", "SHF"]
WORKLOADS_10B = ["barnes", "canneal", "fft", "ocean-c", "radix", "volrend"]


def figure_10a():
    grid = {
        (layout, pattern): ("sn200", pattern, None, layout)
        for layout in LAYOUTS
        for pattern in PATTERNS
    }
    return latency_curves(grid, [0.008, 0.04, 0.16])


def figure_10b():
    table = workload_compare(
        default_engine(),
        {layout: make_network("sn200", layout) for layout in LAYOUTS},
        WORKLOADS_10B,
        seed=2,
        **SIM_KW,
    )
    return {
        (layout, bench): table[layout][bench].avg_latency
        for layout in LAYOUTS
        for bench in WORKLOADS_10B
    }


def test_fig10a_synthetic(benchmark):
    curves = benchmark.pedantic(figure_10a, rounds=1, iterations=1)
    rows = [
        [layout, pattern] + [round(p.latency, 1) for p in curves[(layout, pattern)].points]
        for layout in LAYOUTS
        for pattern in PATTERNS
    ]
    print_series("Figure 10a: SN layout latency [cycles], no SMART", ["layout", "pattern", "0.008", "0.04", "0.16"], rows)
    for pattern in PATTERNS:
        best = min(
            curves[("sn_subgr", pattern)].zero_load_latency(),
            curves[("sn_gr", pattern)].zero_load_latency(),
        )
        worst = max(
            curves[("sn_basic", pattern)].zero_load_latency(),
            curves[("sn_rand", pattern)].zero_load_latency(),
        )
        assert best <= worst


def test_fig10b_parsec(benchmark):
    latencies = benchmark.pedantic(figure_10b, rounds=1, iterations=1)
    rows = [
        [bench] + [round(latencies[(layout, bench)], 1) for layout in LAYOUTS]
        for bench in WORKLOADS_10B
    ]
    print_series("Figure 10b: PARSEC latency per layout [cycles]", ["bench"] + LAYOUTS, rows)
    ratios = [
        latencies[("sn_subgr", bench)] / latencies[("sn_basic", bench)]
        for bench in WORKLOADS_10B
    ]
    gain = 1 - geometric_mean(ratios)
    print(f"\nsn_subgr vs sn_basic geometric-mean gain: {gain:.1%} (paper: ~5%)")
    assert gain > 0.0  # subgroup layout wins on average
