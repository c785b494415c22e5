"""The three campaigns the benchmark measures, and their output checks.

Each workload is a function ``run(seed) -> Outcome`` that drives the
public ``repro`` API exactly as a user reproducing the paper would:
through ``default_engine()``, with whatever executor, worker count and
store backend the environment leaves as default.

* ``synthetic-cold`` — the latency/load grids of Figs 10a, 11, 12, 14
  and 19, through ``analysis.compare_networks`` / ``sweep_loads``.
* ``parsec-adaptive-cold`` — Fig 18's (network x PARSEC/SPLASH bench)
  grid through ``analysis.workload_table`` + ``edp_table``, then a
  Fig 20-shaped adaptive grid through ``analysis.adaptive_study``.
* ``paper-warm`` — every figure and table in ``benchmarks/test_*.py``,
  run in-process with a stand-in for the pytest-benchmark fixture.

Cold workloads record one ``Point`` per curve point or table cell; the
SHA-256 over all points is the workload's output digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Simulation windows of the figure harness (benchmarks/harness.py).
SIM_KW = dict(warmup=200, measure=500, drain=1200)

#: Fig 18's windows (benchmarks/test_fig18_edp.py).
EDP_KW = dict(warmup=200, measure=400, drain=1000)


@dataclass(frozen=True)
class Point:
    """One simulated point as the figure sees it."""

    figure: str
    network: str
    traffic: str
    routing: str
    load: float
    latency: float
    throughput: float
    saturated: bool

    def problem(self) -> str | None:
        """Why this point cannot be a valid simulation outcome, if so."""
        if not math.isfinite(self.latency) or self.latency <= 0:
            return f"latency {self.latency!r}"
        if not math.isfinite(self.throughput) or self.throughput < 0:
            return f"throughput {self.throughput!r}"
        return None


@dataclass
class Outcome:
    """What one workload call produced, for the output checks."""

    attempted: int
    failed: int
    points: list[Point] = field(default_factory=list)
    #: paper-warm only: per-figure seconds, printed output and failures.
    figures: dict[str, float] = field(default_factory=dict)
    printed: dict[str, str] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)

    def digest(self) -> str:
        """Cold workloads: :func:`points_digest`.  paper-warm: SHA-256 over
        every figure's printed tables."""
        if self.printed:
            blob = json.dumps(self.printed, sort_keys=True)
            return hashlib.sha256(blob.encode("utf-8")).hexdigest()
        return points_digest(self.points)


def points_digest(points: list[Point]) -> str:
    """SHA-256 over every point's identity and result, in campaign order.

    Floats go through ``json`` (shortest round-trip repr), so the digest
    moves on any last-bit change in a latency or throughput.
    """
    blob = json.dumps([asdict(p) for p in points], separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _curve_points(figure: str, routing: str, curves: dict) -> list[Point]:
    out = []
    for label, curve in curves.items():
        for p in curve.points:
            out.append(
                Point(
                    figure, label, curve.pattern, routing,
                    p.load, p.latency, p.throughput, p.saturated,
                )
            )
    return out


def _truncation_problem(curves: dict) -> str | None:
    """A curve must stop at its first saturated point."""
    for label, curve in curves.items():
        if not curve.points:
            return f"{label}: empty curve"
        if any(p.saturated for p in curve.points[:-1]):
            return f"{label}: points past saturation"
    return None


def synthetic_cold(seed: int) -> list[tuple[str, str, dict]]:
    """Figs 10a/11/12/14/19: returns ``(figure, routing, curves)`` groups."""
    from repro.analysis import compare_networks
    from repro.sim import BUFFERING_STRATEGIES, SimConfig
    from repro.topos import make_network

    kw = dict(SIM_KW, seed=seed)
    smart = SimConfig().with_smart()
    groups = []

    layouts = ("sn_basic", "sn_gr", "sn_rand", "sn_subgr")
    by_layout = {name: make_network("sn200", layout=name) for name in layouts}
    for pattern in ("REV", "RND", "SHF"):
        curves = compare_networks(by_layout, pattern, [0.008, 0.04, 0.16], **kw)
        groups.append(("fig10a", "default", curves))

    strategies = ("EB-Small", "EB-Large", "EB-Var", "EL-Links", "CBR-6", "CBR-40")
    for use_smart in (False, True):
        configs = {
            name: BUFFERING_STRATEGIES[name]().with_smart(use_smart)
            for name in strategies
        }
        curves = compare_networks(
            {name: "sn200" for name in strategies},
            "RND",
            [0.008, 0.04, 0.16],
            configs=configs,
            **kw,
        )
        figure = "fig11-smart" if use_smart else "fig11-nosmart"
        groups.append((figure, "default", curves))

    fig12 = ("cm3", "t2d3", "pfbf3", "pfbf4", "sn200", "fbf3")
    for pattern in ("ADV1", "REV", "RND", "SHF"):
        curves = compare_networks(
            {sym: sym for sym in fig12}, pattern, [0.008, 0.06], config=smart, **kw
        )
        groups.append(("fig12", "default", curves))

    fig14 = ("cm3", "t2d3", "pfbf3", "sn200", "fbf3")
    for pattern in ("ADV1", "RND"):
        curves = compare_networks(
            {sym: sym for sym in fig14}, pattern, [0.008, 0.06, 0.16], **kw
        )
        groups.append(("fig14", "default", curves))
    curves = compare_networks(
        {"sn200": "sn200", "cm3": "cm3"}, "RND", [0.008], config=smart, **kw
    )
    groups.append(("fig14-smart", "default", curves))

    fig19 = ("sn54", "fbf54", "pfbf54", "t2d54")
    curves = compare_networks(
        {sym: sym for sym in fig19}, "RND", [0.008, 0.06, 0.16], config=smart, **kw
    )
    groups.append(("fig19", "default", curves))
    return groups


#: Fig 18 grid (benchmarks/test_fig18_edp.py) at a fixed seed: the
#: workload models' on/off burst phases are drawn from the seed and shared
#: by every bench, so the simulated work of this grid swings by up to 2x
#: from one seed to the next.  Seed 2 rather than the figure's 3, whose
#: bursts saturate several points, keeps a run within its time budget.
#: ``--seed`` drives the Fig 20 grid.
EDP_NETWORKS = ("fbf3", "pfbf3", "cm3", "sn200")
EDP_SEED = 2
#: Fig 20 grid on the live adaptive schemes, steady and bursty traffic.
ADAPTIVE_NETWORKS = ("sn200", "fbf4")
ADAPTIVE_ROUTINGS = ("default", "ugal-l", "ugal-g", "deflect")
ADAPTIVE_TRAFFIC = ("ASYM", "burst:ADV1:64+192")
ADAPTIVE_LOADS = (0.02, 0.10, 0.25)


def parsec_adaptive_cold(seed: int):
    """Fig 18 workload/EDP table, then the Fig 20 adaptive study at ``seed``."""
    from repro.analysis import adaptive_study, edp_table, workload_table
    from repro.engine import default_engine
    from repro.sim import SimConfig
    from repro.traffic import workload_names

    table = workload_table(
        list(EDP_NETWORKS), workload_names(), smart=True, seed=EDP_SEED, **EDP_KW
    )
    edp = edp_table(table, "fbf3")
    study = adaptive_study(
        default_engine(),
        networks=ADAPTIVE_NETWORKS,
        routings=ADAPTIVE_ROUTINGS,
        traffic=ADAPTIVE_TRAFFIC,
        loads=ADAPTIVE_LOADS,
        config=SimConfig(num_vcs=4, edge_buffer_flits=8),
        seed=seed,
        **SIM_KW,
    )
    return table, edp, study


def run_cold(name: str, seed: int) -> Outcome:
    """Run one cold campaign and check every point it produced."""
    points: list[Point] = []
    problems: list[str] = []
    if name == "synthetic-cold":
        for figure, routing, curves in synthetic_cold(seed):
            points += _curve_points(figure, routing, curves)
            problem = _truncation_problem(curves)
            if problem:
                problems.append(f"{figure}: {problem}")
    elif name == "parsec-adaptive-cold":
        table, edp, study = parsec_adaptive_cold(seed)
        for symbol, rows in table.items():
            for bench, row in rows.items():
                points.append(
                    Point(
                        "fig18", symbol, f"workload:{bench}", "default", 1.0,
                        row.avg_latency, row.throughput, row.saturated,
                    )
                )
                ratio = edp[bench][symbol]
                if not (math.isfinite(ratio) and ratio > 0):
                    problems.append(f"fig18 {symbol}/{bench}: EDP ratio {ratio!r}")
        for (network, routing, traffic), curve in study.curves.items():
            points += _curve_points("fig20", routing, {network: curve})
            problem = _truncation_problem({f"{network}/{routing}/{traffic}": curve})
            if problem:
                problems.append(f"fig20: {problem}")
    else:
        raise ValueError(f"not a cold workload: {name!r}")
    failed = 0
    for point in points:
        problem = point.problem()
        if problem:
            failed += 1
            where = f"{point.figure} {point.network} {point.traffic}"
            problems.append(f"{where}: {problem}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if problems and not failed:
        failed = 1
    return Outcome(attempted=max(1, len(points)), failed=failed, points=points)


# -- paper-warm -------------------------------------------------------------


class StandInBenchmark:
    """The two call forms the figure tests use on pytest-benchmark's
    fixture: ``benchmark(fn, *args)`` and ``benchmark.pedantic(fn, ...)``.
    Timing is the caller's business; this only runs the function."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        result = None
        for _ in range(rounds * iterations):
            result = fn(*args, **(kwargs or {}))
        return result


@dataclass(frozen=True)
class FigureCase:
    """One collected test: a figure or table, maybe one parameter case."""

    id: str
    func: object
    params: dict


def _parametrize(func) -> list[tuple[str, dict]]:
    """Expand ``@pytest.mark.parametrize`` marks as pytest does: one case
    per value, the case id made of the values joined by ``-``."""
    cases: list[tuple[str, dict]] = [("", {})]
    for mark in reversed(getattr(func, "pytestmark", [])):
        if mark.name != "parametrize":
            continue
        names, values = mark.args[0], mark.args[1]
        if isinstance(names, str):
            names = [n.strip() for n in names.split(",")]
        expanded = []
        for suffix, params in cases:
            for value in values:
                row = value if len(names) > 1 else (value,)
                new = dict(params, **dict(zip(names, row)))
                label = "-".join(str(v) for v in row)
                expanded.append((f"{suffix}-{label}" if suffix else label, new))
        cases = expanded
    return cases


def collect_figures(bench_dir: Path) -> list[FigureCase]:
    """Import every ``benchmarks/test_*.py`` module and list its tests, in
    pytest's order (files by name, tests by definition line)."""
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))  # the figures import `harness`
    cases: list[FigureCase] = []
    for path in sorted(bench_dir.glob("test_*.py")):
        module = importlib.import_module(path.stem)
        tests = [
            obj
            for name, obj in vars(module).items()
            if name.startswith("test_")
            and callable(obj)
            and getattr(obj, "__module__", None) == module.__name__
        ]
        tests.sort(key=lambda f: f.__code__.co_firstlineno)
        for func in tests:
            for label, params in _parametrize(func):
                case_id = f"{func.__name__}-{label}" if label else func.__name__
                cases.append(FigureCase(case_id, func, params))
    return cases


def run_figures(cases: list[FigureCase], span=None) -> Outcome:
    """Run every figure with the stand-in fixture and captured stdout;
    a figure fails when its own assertions (or anything else) raise."""
    outcome = Outcome(attempted=len(cases), failed=0)
    fixture = StandInBenchmark()
    for case in cases:
        printed = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                with span(f"fig.{case.id}") if span else contextlib.nullcontext():
                    case.func(benchmark=fixture, **case.params)
        except Exception:
            outcome.failed += 1
            outcome.failures[case.id] = traceback.format_exc(limit=3)
        outcome.figures[case.id] = time.perf_counter() - start
        outcome.printed[case.id] = printed.getvalue()
    for case_id, text in outcome.failures.items():
        print(f"figure {case_id} failed:\n{text}", file=sys.stderr)
    return outcome
