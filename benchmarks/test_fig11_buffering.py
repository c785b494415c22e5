"""Figure 11: impact of buffering strategies on SN latency.

EB-Small / EB-Large / EB-Var / EL-Links / CBR-6 / CBR-40 at N=200, with
and without SMART links.  Paper findings checked:

* without SMART, small edge buffers congest at load (EB-Small worst);
* EB-Var (RTT-sized) tracks the best latency;
* CBR-6 removes head-of-line blocking (beats EL-Links at high load);
* SMART compresses the differences between strategies.
"""

from repro.sim import BUFFERING_STRATEGIES

from harness import latency_curves, print_series

LOADS = [0.008, 0.04, 0.16]
STRATEGIES = ["EB-Small", "EB-Large", "EB-Var", "EL-Links", "CBR-6", "CBR-40"]


def run_strategies(smart: bool):
    grid = {
        name: ("sn200", "RND", BUFFERING_STRATEGIES[name]().with_smart(smart), None)
        for name in STRATEGIES
    }
    return latency_curves(grid, LOADS)


def test_fig11_no_smart(benchmark):
    curves = benchmark.pedantic(run_strategies, args=(False,), rounds=1, iterations=1)
    rows = [
        [name] + [round(p.latency, 1) for p in curves[name].points]
        for name in STRATEGIES
    ]
    print_series("Figure 11 (no SMART, N=200): latency [cycles]", ["strategy"] + [str(l) for l in LOADS], rows)
    at_high = {n: curves[n].latency_at(0.16) for n in STRATEGIES}
    # Small edge buffers suffer at load; RTT-sized buffers fix it.
    assert at_high["EB-Var"] < at_high["EB-Small"]
    # CBR removes HOL blocking relative to bare elastic links.
    assert at_high["CBR-6"] <= at_high["EL-Links"] * 1.05
    # All strategies comparable at low load (the bypass paths work).
    zero = [curves[n].zero_load_latency() for n in STRATEGIES]
    assert max(zero) < 2.0 * min(zero)


def test_fig11_smart(benchmark):
    curves = benchmark.pedantic(run_strategies, args=(True,), rounds=1, iterations=1)
    rows = [
        [name] + [round(p.latency, 1) for p in curves[name].points]
        for name in STRATEGIES
    ]
    print_series("Figure 11 (SMART, N=200): latency [cycles]", ["strategy"] + [str(l) for l in LOADS], rows)
    # SMART compresses strategy differences at low/mid loads (paper: 1-3%).
    mid = [curves[n].latency_at(0.04) for n in STRATEGIES]
    assert max(mid) < 1.6 * min(mid)
    # And SMART accelerates SN overall.
    no_smart = run_strategies(False)
    assert curves["EB-Var"].zero_load_latency() < no_smart["EB-Var"].zero_load_latency()
