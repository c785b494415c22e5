"""Section 5.5 sensitivity summary: SN's benefits are robust across
concentration, network size, hierarchical comparisons, and injection
rates.

* Hierarchical NoCs: SN's area is ~24-26% below a folded Clos at both
  N=200 and N=1296.
* Other network sizes (588, 686, 1024): SN keeps its area/static
  advantage over the same-size FBF.
* Concentration: SN wins for p in {3,4} at ~200 and {8,9} at ~1300.
* Injection rate: dynamic power scales with rate; SN stays below FBF at
  low and high rates.
"""

from repro.core import SlimNoC
from repro.power import TECH_45NM, dynamic_power, network_area, static_power
from repro.topos import FlattenedButterfly, make_network

from harness import print_series


def hierarchical_comparison():
    rows = {}
    for sn_sym, clos_sym in (("sn200", "clos200"), ("sn1296", "clos1296")):
        sn = make_network(sn_sym)
        clos = make_network(clos_sym)
        rows[sn_sym] = (
            network_area(sn, TECH_45NM, edge_buffer_flits=None).total,
            network_area(clos, TECH_45NM, edge_buffer_flits=None).total,
        )
    return rows


def other_sizes():
    """N in {588, 686, 1024}: SN vs a same-node-count FBF."""
    cases = [
        (SlimNoC(7, 6, layout="sn_subgr"), FlattenedButterfly(14, 7, 6)),   # 588
        (SlimNoC(7, 7, layout="sn_subgr"), FlattenedButterfly(14, 7, 7)),   # 686
        (SlimNoC(8, 8, layout="sn_subgr"), FlattenedButterfly(16, 8, 8)),   # 1024
    ]
    rows = []
    for sn, fbf in cases:
        sn_area = network_area(sn, TECH_45NM, edge_buffer_flits=None).total
        fbf_area = network_area(fbf, TECH_45NM, edge_buffer_flits=None).total
        sn_stat = static_power(sn, TECH_45NM, edge_buffer_flits=None).total
        fbf_stat = static_power(fbf, TECH_45NM, edge_buffer_flits=None).total
        rows.append((sn.num_nodes, sn_area, fbf_area, sn_stat, fbf_stat))
    return rows


def concentration_sweep():
    rows = []
    for q, ps in ((5, (3, 4)), (9, (8, 9))):
        for p in ps:
            sn = SlimNoC(q, p, layout="sn_subgr")
            fbf_cols = {5: (10, 5), 9: (18, 9)}[q]
            fbf = FlattenedButterfly(fbf_cols[0], fbf_cols[1], p)
            rows.append(
                (
                    sn.num_nodes,
                    p,
                    static_power(sn, TECH_45NM, edge_buffer_flits=None).total,
                    static_power(fbf, TECH_45NM, edge_buffer_flits=None).total,
                )
            )
    return rows


def injection_rate_sweep():
    sn = make_network("sn200")
    fbf = make_network("fbf4")
    rows = []
    for rate in (0.01, 0.05, 0.15, 0.30):
        sn_dyn = dynamic_power(sn, TECH_45NM, rate, 0.5).total
        fbf_dyn = dynamic_power(fbf, TECH_45NM, rate, 0.6).total
        rows.append((rate, sn_dyn, fbf_dyn))
    return rows


def test_hierarchical(benchmark):
    rows = benchmark.pedantic(hierarchical_comparison, rounds=1, iterations=1)
    print_series(
        "Section 5.5: SN vs folded Clos area [mm^2]",
        ["class", "SN", "Clos"],
        [[k, round(v[0], 1), round(v[1], 1)] for k, v in rows.items()],
    )
    for sym, (sn_area, clos_area) in rows.items():
        gain = 1 - sn_area / clos_area
        # Paper: ~24-26% smaller; our Clos model is coarser — require a win.
        assert gain > 0.10, f"SN not smaller than Clos at {sym} ({gain:.0%})"


def test_other_sizes(benchmark):
    rows = benchmark.pedantic(other_sizes, rounds=1, iterations=1)
    print_series(
        "Section 5.5: other sizes — SN vs FBF area/static",
        ["N", "SN mm^2", "FBF mm^2", "SN W", "FBF W"],
        [[n, round(a, 1), round(b, 1), round(c, 2), round(d, 2)] for n, a, b, c, d in rows],
    )
    for n, sn_area, fbf_area, sn_stat, fbf_stat in rows:
        assert sn_area < fbf_area
        assert sn_stat < fbf_stat


def test_concentration(benchmark):
    rows = benchmark.pedantic(concentration_sweep, rounds=1, iterations=1)
    print_series(
        "Section 5.5: concentration sensitivity (static power [W])",
        ["N", "p", "SN", "FBF"],
        [[n, p, round(a, 2), round(b, 2)] for n, p, a, b in rows],
    )
    for n, p, sn_stat, fbf_stat in rows:
        assert sn_stat < fbf_stat, f"SN loses at N={n}, p={p}"


def test_injection_rates(benchmark):
    rows = benchmark.pedantic(injection_rate_sweep, rounds=1, iterations=1)
    print_series(
        "Section 5.5: dynamic power vs injection rate [W]",
        ["rate", "SN", "FBF"],
        [[r, round(a, 2), round(b, 2)] for r, a, b in rows],
    )
    previous = 0.0
    for rate, sn_dyn, fbf_dyn in rows:
        assert sn_dyn < fbf_dyn  # SN retains its advantage at all rates
        assert sn_dyn > previous  # power grows with rate
        previous = sn_dyn
