"""Figure 18: energy-delay product on PARSEC/SPLASH workloads (SMART).

EDP normalised to FBF for each benchmark; the paper reports SN ~55%
below FBF, ~29% below PFBF, and ~19% below CM on the geometric mean.

The (network x benchmark) grid runs through the experiment engine:
every point is content-addressed in the result cache and fresh points
fan out across one worker process per available CPU (``REPRO_WORKERS=N``
sets N instead).
"""

from repro.analysis import edp_gain, edp_table, workload_table
from repro.traffic import workload_names

from harness import print_series

NETWORKS = ["fbf3", "pfbf3", "cm3", "sn200"]
SIM_KW = dict(warmup=200, measure=400, drain=1000)


def run_all():
    table = workload_table(NETWORKS, workload_names(), smart=True, seed=3, **SIM_KW)
    return edp_table(table, "fbf3")


def test_fig18(benchmark):
    edp = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [bench] + [round(edp[bench][sym], 3) for sym in NETWORKS]
        for bench in workload_names()
    ]
    print_series("Figure 18: EDP normalised to fbf3 (SMART, 45nm)", ["bench"] + NETWORKS, rows)
    sn_gain = edp_gain(edp, "sn200", "fbf3")
    pfbf_gain = edp_gain(edp, "sn200", "pfbf3")
    cm_gain = edp_gain(edp, "sn200", "cm3")
    print(
        f"\nSN EDP gains (geomean): vs FBF {sn_gain:.0%} (paper ~55%), "
        f"vs PFBF {pfbf_gain:.0%} (paper ~29%), vs CM {cm_gain:.0%} (paper ~19%)"
    )
    # SN beats FBF on EDP for every workload, and the mean gain is large.
    assert all(edp[b]["sn200"] < 1.0 for b in workload_names())
    assert sn_gain > 0.25
    # SN beats PFBF on the geometric mean.
    assert pfbf_gain > 0.0
