"""Figure 12: synthetic traffic with SMART links, N in {192, 200}.

SN (sn_subgr) against cm3, t2d3, pfbf3, pfbf4, fbf3 on ADV1/REV/RND/SHF.
The paper's cross-topology comparison accounts for per-topology cycle
times (0.4/0.5/0.6 ns), so assertions are on nanosecond latency.
"""

from repro.topos import cycle_time_ns

from harness import latency_curves, print_series, smart_config

NETWORKS = ["cm3", "t2d3", "pfbf3", "pfbf4", "sn200", "fbf3"]
PATTERNS = ["ADV1", "REV", "RND", "SHF"]
LOADS = [0.008, 0.06]


def run_comparison():
    grid = {
        (sym, pattern): (sym, pattern, smart_config(), None)
        for sym in NETWORKS
        for pattern in PATTERNS
    }
    return latency_curves(grid, LOADS)


def test_fig12(benchmark):
    curves = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    rows = []
    for sym in NETWORKS:
        ct = cycle_time_ns(sym)
        for pattern in PATTERNS:
            pts = curves[(sym, pattern)].points
            rows.append(
                [sym, pattern]
                + [f"{p.latency:.1f}/{p.latency * ct:.1f}" for p in pts]
            )
    print_series(
        "Figure 12 (SMART, N~200): latency [cycles/ns]",
        ["network", "pattern"] + [str(l) for l in LOADS],
        rows,
    )
    for pattern in ("RND", "SHF", "REV"):
        sn_ns = curves[("sn200", pattern)].zero_load_latency() * cycle_time_ns("sn200")
        for other in ("cm3", "t2d3", "pfbf3", "pfbf4"):
            other_ns = curves[(other, pattern)].zero_load_latency() * cycle_time_ns(other)
            assert sn_ns < other_ns * 1.02, f"{pattern}: sn not under {other}"
        fbf_ns = curves[("fbf3", pattern)].zero_load_latency() * cycle_time_ns("fbf3")
        # Paper's ratios vs fbf3 are 85-96%: SN at or below FBF in ns terms.
        assert sn_ns < fbf_ns * 1.05
    # Print the paper-style percentage strip for RND.
    sn_ns = curves[("sn200", "RND")].zero_load_latency() * cycle_time_ns("sn200")
    strip = {
        other: sn_ns / (curves[(other, "RND")].zero_load_latency() * cycle_time_ns(other))
        for other in ("cm3", "t2d3", "pfbf4", "fbf3")
    }
    print("\nRND ratios of SN latency to others (paper: 71% 86% 92% 86%):")
    print("  " + "  ".join(f"{k}={v:.0%}" for k, v in strip.items()))
