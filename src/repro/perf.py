"""Timing harness for the simulator hot path (``python -m repro perf``).

Runs a fixed matrix of sub-saturation sweep points straight through
:class:`~repro.sim.NoCSimulator` (no engine, no cache — this measures the
core, not the orchestration) and reports **simulated cycles per wall
second**, the metric the ROADMAP tracks across PRs.  Results are written
to ``BENCH_sim_core.json``; the committed copy under ``benchmarks/`` is
the perf baseline that CI's perf-smoke job guards (>30% regression on the
quick workload fails the build).  The baseline file also embeds the
pre-optimization (lockstep-core) reference numbers measured with the same
methodology, so every run prints its standing against both.

Usage::

    python -m repro perf                 # full workload, write + compare
    python -m repro perf --quick         # CI-sized workload
    python -m repro perf --check         # exit 1 on >30% regression
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from pathlib import Path

from .obs import default_calibration, get_logger
from .obs.metrics import REGISTRY
from .sim import NoCSimulator, SimConfig, cbr, el_links
from .topos import make_network
from .traffic import SyntheticSource

SCHEMA_VERSION = 1

_log = get_logger("perf")

#: Best-of wall seconds per harness case, labelled by case name — the
#: perf run's timings land in the same registry campaign metrics use, so
#: one ``/metrics`` scrape covers both.
PERF_CASE_SECONDS = REGISTRY.histogram(
    "repro_perf_case_seconds",
    "Best-of wall seconds per simulator-core perf case.",
    labelnames=("case",),
)

#: Committed baseline this run is compared against (repo checkout layout).
BASELINE_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "BENCH_sim_core.json"
)

_CONFIGS = {
    "eb": SimConfig,
    "eb-smart": lambda: SimConfig().with_smart(),
    "el": el_links,
    "cbr12": lambda: cbr(12),
}

#: name -> (topology, pattern, load, config key, seed, warmup, measure, drain).
#: All points sit below saturation — exactly where figure campaigns spend
#: their time and where activity tracking pays off.  0.008 is the first
#: entry of the benchmarks' FIGURE_LOADS; 0.10 is the densest point here.
WORKLOADS: dict[str, dict[str, tuple]] = {
    "full": {
        "sn200-rnd-0.008-eb": ("sn200", "RND", 0.008, "eb", 1, 200, 500, 1200),
        "sn200-rnd-0.02-eb": ("sn200", "RND", 0.02, "eb", 1, 200, 500, 1200),
        "sn200-rnd-0.06-eb": ("sn200", "RND", 0.06, "eb", 1, 200, 500, 1200),
        "sn200-rnd-0.10-eb": ("sn200", "RND", 0.10, "eb", 1, 200, 500, 1200),
        "sn200-adv2-0.06-eb": ("sn200", "ADV2", 0.06, "eb", 1, 200, 500, 1200),
        "sn200-rnd-0.06-smart": ("sn200", "RND", 0.06, "eb-smart", 1, 200, 500, 1200),
        "sn200-rnd-0.06-el": ("sn200", "RND", 0.06, "el", 1, 200, 500, 1200),
        "sn200-rnd-0.06-cbr": ("sn200", "RND", 0.06, "cbr12", 1, 200, 500, 1200),
    },
    "quick": {
        "sn54-rnd-0.02-eb": ("sn54", "RND", 0.02, "eb", 1, 100, 250, 600),
        "sn54-rnd-0.08-eb": ("sn54", "RND", 0.08, "eb", 1, 100, 250, 600),
        "sn54-rnd-0.08-el": ("sn54", "RND", 0.08, "el", 1, 100, 250, 600),
    },
}


def calibrate(repeats: int = 3) -> float:
    """Machine-speed yardstick: interpreted-Python ops/sec on a fixed
    arithmetic + dict workload (~20 ms), best of ``repeats``.

    The regression gate runs on whatever machine CI hands it, which can
    legitimately differ from the baseline host by far more than any real
    code regression.  Dividing cycles/sec by this calibration number on
    both sides turns the comparison into a machine-relative one, so the
    gate tracks the code, not the runner.
    """
    best = None
    for _ in range(repeats):
        counters: dict[int, int] = {}
        start = time.perf_counter()
        total = 0
        for i in range(120_000):
            total += i * i
            if not i % 7:
                counters[i & 1023] = total
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return round(120_000 / best, 1)


def time_case(case: tuple, repeats: int = 2) -> dict:
    """Best-of-``repeats`` wall time for one sweep point."""
    topo_sym, pattern, load, cfg, seed, warmup, measure, drain = case
    topology = make_network(topo_sym)
    best, cycles, delivered = None, 0, 0
    for _ in range(repeats):
        sim = NoCSimulator(topology, _CONFIGS[cfg](), seed=seed)
        source = SyntheticSource(topology, pattern, load)
        start = time.perf_counter()
        result = sim.run(source, warmup=warmup, measure=measure, drain=drain)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
        cycles, delivered = result.cycles, result.delivered_packets
    return {
        "cycles": cycles,
        "delivered_packets": delivered,
        "seconds": round(best, 6),
        "cycles_per_sec": round(cycles / best, 1),
    }


def run_workload(mode: str, repeats: int = 2) -> dict:
    """Time every case of ``mode``; returns the serializable report."""
    cases = {}
    total_cycles = 0.0
    total_seconds = 0.0
    for name, case in WORKLOADS[mode].items():
        cases[name] = time_case(case, repeats=repeats)
        PERF_CASE_SECONDS.labels(case=name).observe(cases[name]["seconds"])
        total_cycles += cases[name]["cycles"]
        total_seconds += cases[name]["seconds"]
    return {
        "cases": cases,
        "total_cycles": int(total_cycles),
        "total_seconds": round(total_seconds, 6),
        "cycles_per_sec": round(total_cycles / total_seconds, 1),
        "calibration_ops_per_sec": calibrate(),
    }


def feed_cost_calibration(mode: str, report: dict) -> int:
    """Fold a perf run's measured seconds into the cost-calibration table.

    Each case is a known (topology, load, cycle-budget) point with a
    fresh wall-seconds measurement — exactly what the campaign layer's
    ETA and ``--shard-balance cost`` read back.  Saves the table when
    anything changed; returns the number of cases folded in.
    """
    calibration = default_calibration()
    nodes_by_symbol: dict[str, int] = {}
    fed = 0
    for name, case in WORKLOADS.get(mode, {}).items():
        measured = report["cases"].get(name)
        if not measured or not measured.get("seconds"):
            continue
        symbol, _pattern, load, _cfg, _seed, warmup, measure, drain = case
        num_nodes = nodes_by_symbol.get(symbol)
        if num_nodes is None:
            num_nodes = make_network(symbol).num_nodes
            nodes_by_symbol[symbol] = num_nodes
        calibration.observe(
            num_nodes, warmup + measure + drain, load, float(measured["seconds"])
        )
        fed += 1
    if calibration.dirty:
        try:
            path = calibration.save()
        except OSError as exc:
            _log.warning("could not save the cost-calibration table: %s", exc)
        else:
            _log.debug("updated cost calibration at %s", path)
    return fed


def load_report(path: Path) -> dict | None:
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def merge_report(path: Path, mode: str, report: dict) -> dict:
    """Write ``report`` under ``modes[mode]``, preserving other modes and
    any embedded pre-PR reference."""
    payload = load_report(path) or {"schema": SCHEMA_VERSION, "modes": {}}
    payload["schema"] = SCHEMA_VERSION
    payload["host"] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    payload.setdefault("modes", {})[mode] = report
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def speedup_against(
    report: dict, reference_mode: dict, normalize: bool = False
) -> tuple[float, float]:
    """(time-weighted total ratio, per-case geometric-mean ratio).

    With ``normalize=True`` both sides are divided by their recorded
    machine calibration (when present), so the ratio compares the code
    rather than the hosts — this is what the regression gate uses.
    """
    scale = 1.0
    if normalize:
        mine = report.get("calibration_ops_per_sec")
        theirs = reference_mode.get("calibration_ops_per_sec")
        if mine and theirs:
            scale = theirs / mine
    total = scale * report["cycles_per_sec"] / reference_mode["cycles_per_sec"]
    ratios = []
    reference_cases = reference_mode.get("cases", {})
    for name, case in report["cases"].items():
        ref = reference_cases.get(name)
        if ref:
            ratios.append(scale * case["cycles_per_sec"] / ref["cycles_per_sec"])
    if not ratios:
        return total, total
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    return total, geomean


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro perf",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized workload (sn54) instead of sn200",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timing repeats per case, best-of (default 2)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_sim_core.json",
        help="report path (default ./BENCH_sim_core.json)",
    )
    parser.add_argument(
        "--baseline",
        default=str(BASELINE_PATH),
        help="committed baseline to compare against",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if total cycles/sec regresses beyond "
        "--max-regression vs the baseline",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="tolerated fractional slowdown (default 0.30)",
    )
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    report = run_workload(mode, repeats=args.repeats)

    width = max(len(name) for name in report["cases"])
    print(f"simulator core perf — {mode} workload (best of {args.repeats})")
    for name, case in report["cases"].items():
        print(
            f"  {name:<{width}}  {case['cycles']:>6} cyc "
            f"{case['seconds']*1e3:>9.1f} ms  "
            f"{case['cycles_per_sec']:>12,.0f} cyc/s"
        )
    print(
        f"  {'TOTAL':<{width}}  {report['total_cycles']:>6} cyc "
        f"{report['total_seconds']*1e3:>9.1f} ms  "
        f"{report['cycles_per_sec']:>12,.0f} cyc/s"
    )

    merge_report(Path(args.output), mode, report)
    print(f"wrote {args.output}")
    feed_cost_calibration(mode, report)

    baseline = load_report(Path(args.baseline))
    gate_ratio = None
    if baseline and mode in baseline.get("modes", {}):
        base_mode = baseline["modes"][mode]
        total_ratio, geomean = speedup_against(report, base_mode)
        gate_ratio, gate_geo = speedup_against(report, base_mode, normalize=True)
        print(
            f"vs committed baseline: {total_ratio:.2f}x total, "
            f"{geomean:.2f}x per-case geomean "
            f"({gate_ratio:.2f}x / {gate_geo:.2f}x machine-normalized)"
        )
    else:
        print(f"vs committed baseline: none for mode {mode!r}")
    reference = (baseline or {}).get("reference_pre_pr", {}).get("modes", {})
    if mode in reference:
        ref_total, ref_geo = speedup_against(report, reference[mode])
        print(
            f"vs pre-optimization lockstep core: {ref_total:.2f}x total, "
            f"{ref_geo:.2f}x per-case geomean"
        )

    if args.check:
        if gate_ratio is None:
            # A gate with nothing to compare against must fail loudly, not
            # silently pass — this is the whole point of CI's perf-smoke.
            print(
                f"FAIL: --check requires a committed baseline for mode "
                f"{mode!r} at {args.baseline}",
                file=sys.stderr,
            )
            return 2
        if gate_ratio < 1.0 - args.max_regression:
            print(
                f"FAIL: machine-normalized regression {gate_ratio:.2f}x is "
                f"beyond {args.max_regression:.0%}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
