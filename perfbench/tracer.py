"""Span tracing of the ``repro`` layers, installed from outside the program.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
each layer's public entry points:

* methods are replaced on the public classes, where every caller looks
  them up at call time;
* module functions are replaced under *every* name a loaded module bound
  them to — ``from ..power import average_route_stats`` copies the
  function into the importing module at import time, so patching only
  ``repro.power`` would miss those callers.

Each wrapped call records a span ``(name, start, end, parent)`` in
memory; :meth:`Tracer.write` dumps them when the run ends.  A layer's
self time is the sum of its spans' durations minus the time covered by
their direct child spans, so layer self times never double count.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Span names are ``<layer><LAYER_SEP><callable>``.
LAYER_SEP = ":"


class Tracer:
    def __init__(self) -> None:
        # Parallel lists, one entry per span; parent is an index or -1.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        #: Per-call details some metrics need beyond timing.
        self.sim_runs: list[tuple[int, int, int, float]] = []
        self.executed: list[tuple[bool, float]] = []
        self.store_keys: dict[str, int] = defaultdict(int)
        self.campaign_requested: dict[int, int] = defaultdict(int)
        self.campaign_useful: dict[int, int] = {}

    # -- recording ----------------------------------------------------------

    def enter(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def exit(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)

    def innermost(self, names: set[str]) -> int | None:
        """Index of the innermost open span named one of ``names``."""
        for index in reversed(self._stack):
            if self.names[index] in names:
                return index
        return None

    def seconds(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def layer_self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, seconds in zip(self.names, self.self_times()):
            totals[name.split(LAYER_SEP, 1)[0]] += seconds
        return totals

    def count(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def write(self, path: Path) -> None:
        """Spans as one JSON object of parallel arrays (times relative to
        the first span, in microseconds)."""
        origin = self.starts[0] if self.starts else 0.0
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        payload = {
            "names": table,
            "name": [code[n] for n in self.names],
            "start_us": [round((s - origin) * 1e6) for s in self.starts],
            "end_us": [round((e - origin) * 1e6) for e in self.ends],
            "parent": self.parents,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


#: Module functions traced where they are defined and wherever they were
#: imported: (defining module, function, span name).  topos covers core
#: and fields, which only run beneath it.
MODULE_FUNCTIONS = (
    ("repro.sim.batch", "simulate_batch", "batch:simulate_batch"),
    ("repro.engine.spec", "build_routing", "routing:build"),
    ("repro.routing", "default_routing", "routing:build"),
    ("repro.topos.catalog", "make_network", "topos:make_network"),
    ("repro.engine.spec", "resolve_topology", "topos:resolve_topology"),
    ("repro.power.power", "average_route_stats", "power:route_stats"),
    ("repro.power.power", "static_power", "power:model"),
    ("repro.power.power", "dynamic_power", "power:model"),
    ("repro.power.area", "network_area", "power:model"),
    ("repro.analysis.workloads", "workload_table", "analysis:workload_table"),
)


def _timed(tracer: Tracer, name: str, fn, after=None):
    """Wrap ``fn`` in a span; ``after(span_index, args, kwargs, result)``
    sees each completed call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(index)
        if after is not None:
            after(index, args, kwargs, result)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _rebind_function(tracer, module_name, attr, name, after=None):
    """Wrap a module function under every module attribute bound to it."""
    module = sys.modules.get(module_name)
    if module is None:
        return
    original = getattr(module, attr)
    wrapper = _timed(tracer, name, original, after)
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                setattr(loaded, key, wrapper)


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, after=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_timed(tracer, name, raw.__func__, after)))
    else:
        setattr(cls, attr, _timed(tracer, name, raw, after))


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        seen.append(current)
        todo.extend(current.__subclasses__())
    return seen


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points named in the benchmark's per-layer
    metrics.  Call after every module the run uses has been imported."""
    # Load every module whose functions are rebound below.
    import repro.analysis.adaptive
    import repro.analysis.workloads
    import repro.engine.campaign
    import repro.engine.spec
    import repro.power.area
    import repro.power.power
    import repro.topos.catalog
    from repro.analysis import LargeScaleModel
    from repro.engine import ExperimentEngine, ExperimentSpec, ResultCache
    from repro.engine.batching import spec_batchable
    from repro.routing import RoutingAlgorithm
    from repro.sim import NoCSimulator
    from repro.traffic import SyntheticSource, WorkloadSource

    try:
        import repro.sim.batch  # noqa: F401  (needs NumPy)
    except ImportError:
        pass

    # engine.runner / engine.batching
    campaigns = {"campaign:run_compare", "campaign:workload_compare"}

    def after_engine_run(index, args, kwargs, result):
        campaign = tracer.innermost(campaigns)
        if campaign is not None:
            tracer.campaign_requested[campaign] += len(result)

    _wrap_method(tracer, ExperimentEngine, "run", "engine:run", after_engine_run)

    def after_execute(index, args, kwargs, result):
        tracer.executed.append((spec_batchable(args[0]), tracer.seconds(index)))

    _wrap_method(tracer, ExperimentSpec, "execute", "engine:execute", after_execute)

    # engine.campaign
    def after_run_compare(index, args, kwargs, result):
        tracer.campaign_useful[index] = sum(len(c.points) for c in result.values())

    def after_workload_compare(index, args, kwargs, result):
        tracer.campaign_useful[index] = sum(len(rows) for rows in result.values())

    _rebind_function(
        tracer, "repro.engine.campaign", "run_compare", "campaign:run_compare",
        after_run_compare,
    )
    _rebind_function(
        tracer, "repro.engine.campaign", "workload_compare",
        "campaign:workload_compare", after_workload_compare,
    )
    _rebind_function(
        tracer, "repro.analysis.adaptive", "adaptive_study", "campaign:adaptive_study"
    )

    # engine.store
    def count_keys(op, many):
        def after(index, args, kwargs, result):
            tracer.store_keys[op] += len(args[1]) if many else 1

        return after

    get_many = _timed(
        tracer, "store:get", ResultCache.get_many, count_keys("get", True)
    )

    def get_many_listed(self, specs):
        return get_many(self, list(specs))  # callers may pass a one-shot iterator

    ResultCache.get_many = get_many_listed
    for attr, op, many in (
        ("put_many", "put", True),
        ("get_payload", "get", False),
        ("put_payload", "put", False),
    ):
        _wrap_method(tracer, ResultCache, attr, f"store:{op}", count_keys(op, many))

    # sim
    def after_sim_run(index, args, kwargs, result):
        tracer.sim_runs.append(
            (
                result.cycles,
                result.num_nodes,
                result.delivered_flits,
                tracer.seconds(index),
            )
        )

    _wrap_method(tracer, NoCSimulator, "run", "sim:run", after_sim_run)

    # traffic: source construction
    for cls in _subclasses(SyntheticSource) + [WorkloadSource]:
        if "__init__" in cls.__dict__:
            _wrap_method(tracer, cls, "__init__", f"traffic:{cls.__name__}")

    # routing: per-packet route computation on every concrete scheme
    for cls in _subclasses(RoutingAlgorithm):
        route = cls.__dict__.get("route")
        if route is not None and not getattr(route, "__isabstractmethod__", False):
            _wrap_method(tracer, cls, "route", "routing:route")

    _wrap_method(tracer, LargeScaleModel, "build", "analysis:largescale")
    for module_name, attr, name in MODULE_FUNCTIONS:
        _rebind_function(tracer, module_name, attr, name)


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def layer_metrics(tracer: Tracer, engine_stats, registry) -> dict[str, float]:
    """Per-layer metrics of one traced campaign (figure times excluded)."""
    own = tracer.layer_self_seconds()
    self_times = tracer.self_times()
    stages = engine_stats.stage_seconds
    m: dict[str, float] = {
        "engine.requested": engine_stats.requested,
        "engine.executed": engine_stats.executed,
        "engine.cache_hits": engine_stats.cache_hits,
        "engine.batched": engine_stats.batched,
        "engine.cache_lookup_s": stages.get("cache_lookup", 0.0),
        "engine.dispatch_s": stages.get("dispatch", 0.0),
        "engine.simulate_s": stages.get("simulate", 0.0),
        "engine.write_back_s": stages.get("write_back", 0.0),
    }

    # campaign: engine rounds issued from inside a campaign call, points
    # simulated past saturation (requested by run_compare, then cut by
    # the curve assembly), and the useful share of all campaign points.
    campaign_spans = {
        i for i, n in enumerate(tracer.names) if n.startswith("campaign:")
    }
    rounds = sum(
        1
        for i, n in enumerate(tracer.names)
        if n == "engine:run" and _has_ancestor(tracer, i, campaign_spans)
    )
    requested = sum(tracer.campaign_requested.get(i, 0) for i in tracer.campaign_useful)
    useful = sum(tracer.campaign_useful.values())
    m["campaign.rounds"] = rounds
    m["campaign.self_s"] = own.get("campaign", 0.0)
    m["campaign.wasted_points"] = sum(
        tracer.campaign_requested.get(i, 0) - used
        for i, used in tracer.campaign_useful.items()
        if tracer.names[i] == "campaign:run_compare"
    )
    m["campaign.useful_frac"] = useful / requested if requested else 1.0

    batchable = [seconds for ok, seconds in tracer.executed if ok]
    executed = len(tracer.executed)
    m["engine.batchable_frac"] = len(batchable) / executed if executed else 0.0
    m["engine.batchable_sim_s"] = sum(batchable)

    reads = written = 0.0
    metric = registry.get("repro_store_bytes_total")
    if metric is not None:
        for (backend, op), child in metric.children():
            if op.startswith("get"):
                reads += child.value
            elif op.startswith("put"):
                written += child.value
    m["store.get_calls"] = tracer.count("store:get")
    m["store.get_keys"] = tracer.store_keys["get"]
    m["store.get_s"] = sum(
        t for n, t in zip(tracer.names, self_times) if n == "store:get"
    )
    m["store.put_calls"] = tracer.count("store:put")
    m["store.put_keys"] = tracer.store_keys["put"]
    m["store.put_s"] = sum(
        t for n, t in zip(tracer.names, self_times) if n == "store:put"
    )
    m["store.bytes_read"] = reads
    m["store.bytes_written"] = written

    runs = tracer.sim_runs
    run_ms = [seconds * 1e3 for *_, seconds in runs]
    node_cycles = sum(cycles * nodes for cycles, nodes, _, _ in runs)
    sim_self = own.get("sim", 0.0)
    m["sim.runs"] = len(runs)
    m["sim.self_s"] = sim_self
    m["sim.run_p50_ms"] = statistics.median(run_ms) if run_ms else 0.0
    m["sim.run_p90_ms"] = _percentile(run_ms, 90)
    m["sim.cycles"] = sum(cycles for cycles, *_ in runs)
    m["sim.node_cycles"] = node_cycles
    m["sim.delivered_flits"] = sum(flits for _, _, flits, _ in runs)
    run_s = sum(seconds for *_, seconds in runs)
    m["sim.node_cycles_per_s"] = node_cycles / run_s if run_s > 0 else 0.0

    m["batch.calls"] = tracer.count("batch:simulate_batch")
    m["batch.s"] = own.get("batch", 0.0)
    m["traffic.build_s"] = own.get("traffic", 0.0)
    m["routing.build_s"] = sum(
        t for n, t in zip(tracer.names, self_times) if n == "routing:build"
    )
    m["routing.route_calls"] = tracer.count("routing:route")
    m["routing.route_s"] = sum(
        t for n, t in zip(tracer.names, self_times) if n == "routing:route"
    )
    m["topos.build_calls"] = sum(
        1
        for n, parent in zip(tracer.names, tracer.parents)
        if n.startswith("topos:")
        and not (parent >= 0 and tracer.names[parent].startswith("topos:"))
    )
    m["topos.build_s"] = own.get("topos", 0.0)
    m["power.route_stats_s"] = sum(
        t for n, t in zip(tracer.names, self_times) if n == "power:route_stats"
    )
    m["power.model_s"] = sum(
        t for n, t in zip(tracer.names, self_times) if n == "power:model"
    )
    m["analysis.largescale_s"] = sum(
        t for n, t in zip(tracer.names, self_times) if n == "analysis:largescale"
    )
    m["analysis.join_s"] = _join_seconds(tracer)
    return m


def _has_ancestor(tracer: Tracer, index: int, candidates: set[int]) -> bool:
    parent = tracer.parents[index]
    while parent >= 0:
        if parent in candidates:
            return True
        parent = tracer.parents[parent]
    return False


def _join_seconds(tracer: Tracer) -> float:
    """``workload_table`` time minus the ``workload_compare`` time inside it."""
    tables = {i for i, n in enumerate(tracer.names) if n == "analysis:workload_table"}
    total = sum(tracer.ends[i] - tracer.starts[i] for i in tables)
    for i, name in enumerate(tracer.names):
        if name == "campaign:workload_compare" and _has_ancestor(tracer, i, tables):
            total -= tracer.ends[i] - tracer.starts[i]
    return total
