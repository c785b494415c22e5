"""Command-line interface to the Slim NoC reproduction.

Subcommands (all sharing the experiment engine — parallel workers, one
per available CPU unless ``--workers``/``REPRO_WORKERS`` says otherwise,
and a content-addressed on-disk result cache):

* ``info``    — configuration, cost profile, and a quick latency probe
  for a catalog symbol or node count (``python -m repro info sn1296``).
* ``sweep``   — latency-load curves for one network under one or more
  patterns: ``python -m repro sweep sn200 --patterns RND,ADV2
  --loads 0.02:0.5:0.04 --workers 8``.
* ``compare`` — several networks under one pattern (the Figure 12-14
  layout): ``python -m repro compare sn200 fbf4 t2d4 --pattern RND``.
* ``workloads`` — PARSEC/SPLASH benchmark models across networks with
  the power/EDP join (the Figure 18 layout): ``python -m repro
  workloads sn200 fbf3 --benches barnes,fft,ocean-c --workers 8``.
* ``cache``   — result-store maintenance: ``cache stats`` (size plus
  reclaimable bytes from superseded schema/spec versions) / ``cache
  clear`` / ``cache gc [--max-bytes N] [--max-age DAYS]`` (LRU eviction
  by last use; unreachable entries always go first).
* ``serve``   — share a result store over HTTP: ``python -m repro serve
  --store sqlite:results.sqlite --port 8123 [--token T]`` turns a local
  store into one that any host can use as its ``--cache-dir``; add
  ``--queue`` to also coordinate a fault-tolerant work queue for an
  elastic worker fleet (see :mod:`repro.engine.store.http` and
  :mod:`repro.engine.queue`).
* ``work``    — join a coordinator's work queue as an elastic worker:
  ``python -m repro work http://host:8123 --workers 4``.  Workers claim
  leased spec batches, heartbeat while simulating, and write results
  back through the shared store; they can join late, crash, or be
  killed — expired leases return their specs to the queue.
* ``perf``    — simulator-core timing harness: ``python -m repro perf
  [--quick] [--check]`` reports simulated cycles/sec against the
  committed ``benchmarks/BENCH_sim_core.json`` baseline and the pre-
  optimization reference (see :mod:`repro.perf`).

Repeating a ``sweep``/``compare`` with identical parameters performs
zero new simulations — every point is served from the cache.  A
``--cache-dir`` location takes one of three forms: a plain directory
path holds its store in ``<dir>/results.sqlite`` (the default is
``.repro_cache/``), ``sqlite:FILE`` names a WAL-mode SQLite pack file
directly, and ``http://host:port`` talks to a ``repro serve`` endpoint
(``REPRO_CACHE_TOKEN`` supplies the bearer token when required).

A campaign too large for one machine is spread across hosts by the work
queue: ``serve --queue`` plus any number of ``repro work`` processes
drains it fault-tolerantly — leases expire when a worker dies and its
specs are re-issued, completed results are never recomputed.
``sweep``, ``compare`` and ``workloads`` all take ``--queue URL``::

    host-c$ python -m repro serve --store sqlite:results.sqlite --queue
    host-a$ python -m repro work http://host-c:8123 --workers 8
    host-b$ python -m repro work http://host-c:8123 --workers 8
    any   $ python -m repro sweep sn200 --loads 0.02:0.5:0.02 \\
                --queue http://host-c:8123   # submit, wait, assemble
    any   $ python -m repro sweep sn200 --loads 0.02:0.5:0.02 \\
                --cache-dir http://host-c:8123   # pure cache read
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from typing import TYPE_CHECKING

from .analysis import format_table
from .engine import (
    ROUTING_BUILDERS,
    ExperimentEngine,
    ResultCache,
    build_sweep_specs,
    build_workload_specs,
    default_workers,
    predicted_cost,
    run_compare,
    run_sweep,
)
from .obs import ProgressLine, configure_logging, format_duration
from .power import TECH_45NM, network_area, static_power
from .sim import BUFFERING_STRATEGIES, NoCSimulator, SimConfig
from .topos import catalog_symbols
from .traffic import SyntheticSource, workload_names

if TYPE_CHECKING:
    from .engine.queue import QueueClient


def parse_loads(text: str) -> list[float]:
    """``"0.02:0.5:0.04"`` (start:stop:step, stop-inclusive) or a comma list."""
    if ":" in text:
        parts = [float(x) for x in text.split(":")]
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("range loads must be start:stop:step")
        start, stop, step = parts
        if step <= 0 or stop < start:
            raise argparse.ArgumentTypeError("need step > 0 and stop >= start")
        loads, value = [], start
        while value <= stop + 1e-9:
            loads.append(round(value, 10))
            value += step
        return loads
    loads = [float(x) for x in text.split(",") if x]
    if not loads:
        raise argparse.ArgumentTypeError("need at least one load")
    return loads


def _at_least(convert, low):
    """argparse type: ``convert(text)``, rejecting values below ``low``."""

    def parse(text: str):
        value = convert(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value

    parse.__name__ = convert.__name__
    return parse


def _build_config(args: argparse.Namespace) -> SimConfig:
    if args.preset is not None:
        config = BUFFERING_STRATEGIES[args.preset]()
    else:
        config = SimConfig()
    return config.with_smart() if args.smart else config


def _workers(args: argparse.Namespace) -> int:
    """``--workers``, or :func:`default_workers` when it is not given."""
    return args.workers if args.workers is not None else default_workers()


def _build_engine(args: argparse.Namespace) -> ExperimentEngine:
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return ExperimentEngine(cache=cache, max_workers=_workers(args))


def _progress(done: int, total: int, spec, cached: bool) -> None:
    tag = "cache" if cached else "sim"
    print(
        f"  [{done}/{total}] {spec.topology} {spec.source.label} ({tag})",
        file=sys.stderr,
    )


def _synthetic_grid(
    args: argparse.Namespace,
    config: SimConfig | None,
    networks: list[str],
    patterns: list[str],
    routings: list[str] | None = None,
) -> tuple[list, dict[str, int], dict[str, str]]:
    """The campaign's spec grid: ``(specs, node_counts, symbols)``.

    ``node_counts`` maps topology tokens to node counts (the cost
    model), ``symbols`` maps them to the catalog symbols queue workers
    rebuild topologies from.  Built with the same
    :func:`build_sweep_specs` the campaign layer uses, so content
    hashes — and therefore queue keys — match the real run exactly.
    ``routings`` defaults to the command's one ``--routing``.
    """
    specs: list = []
    node_counts: dict[str, int] = {}
    symbols: dict[str, str] = {}
    for routing in routings or [getattr(args, "routing", "default")]:
        for pattern in patterns:
            for network in networks:
                grid, topo_map = build_sweep_specs(
                    network,
                    pattern,
                    args.loads,
                    config=config,
                    packet_flits=getattr(args, "packet_flits", 6),
                    routing=routing,
                    seed=args.seed,
                    warmup=args.warmup,
                    measure=args.measure,
                    drain=args.drain,
                )
                specs.extend(grid)
                for token, topo in topo_map.items():
                    node_counts[token] = topo.num_nodes
                    symbols[token] = network
    return specs, node_counts, symbols


def _workload_grid(
    args: argparse.Namespace, benches: list[str]
) -> tuple[list, dict[str, int], dict[str, str]]:
    """Spec grid for a workload campaign, shaped like :func:`_synthetic_grid`."""
    config = SimConfig().with_smart(not args.no_smart)
    specs: list = []
    node_counts: dict[str, int] = {}
    symbols: dict[str, str] = {}
    for network in args.networks:
        grid, topo_map = build_workload_specs(
            network,
            benches,
            config=config,
            intensity_scale=args.intensity_scale,
            seed=args.seed,
            warmup=args.warmup,
            measure=args.measure,
            drain=args.drain,
        )
        specs.extend(grid)
        for token, topo in topo_map.items():
            node_counts[token] = topo.num_nodes
            symbols[token] = network
    return specs, node_counts, symbols


def _campaign_progress(
    args: argparse.Namespace, specs: list, node_counts: dict[str, int]
):
    """Progress reporting for a campaign: ``(callback, line_or_None)``.

    Default is the classic per-point stderr printer; ``--progress``
    swaps in a live single-line display (the :class:`ProgressLine` is
    itself the callback) with hit counts and an ETA that weights each
    simulated spec by its ``predicted_cost``; ``--quiet`` disables both.
    """
    if args.quiet:
        return None, None
    if not getattr(args, "progress", False):
        return _progress, None

    def cost_fn(spec) -> float:
        return predicted_cost(spec, node_counts.get(spec.topology))

    line = ProgressLine(total=len(specs), cost_fn=cost_fn)
    line.add_pending(specs)
    return line, line


def _print_stage_seconds(stats) -> None:
    """One-line per-stage timing breakdown after a campaign."""
    stages = stats.stage_seconds
    if not stages.get("total"):
        return
    print(
        f"  stages: cache-lookup {stages.get('cache_lookup', 0.0):.2f}s, "
        f"dispatch {stages.get('dispatch', 0.0):.2f}s "
        f"(simulate {stages.get('simulate', 0.0):.2f}s summed), "
        f"write-back {stages.get('write_back', 0.0):.2f}s, "
        f"total {stages.get('total', 0.0):.2f}s"
    )


def _curve_rows(curve) -> list[list]:
    return [
        [
            f"{p.load:g}",
            "saturated" if p.saturated else round(p.latency, 2),
            round(p.throughput, 4),
        ]
        for p in curve.points
    ]


def _add_engine_options(parser: argparse.ArgumentParser, queue: bool = True) -> None:
    parser.add_argument(
        "--workers",
        type=_at_least(int, 1),
        default=None,
        help="simulation worker processes (default: REPRO_WORKERS, else "
        "every CPU this process may use)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result store: a cache directory holding results.sqlite "
        "(default .repro_cache), a sqlite:FILE pack file, or an "
        "http(s):// 'repro serve' endpoint",
    )
    if queue:
        parser.add_argument(
            "--queue",
            default=None,
            metavar="URL",
            help="submit the grid to a 'repro serve --queue' coordinator, "
            "wait for the worker fleet to drain it, then assemble the "
            "results from the shared store (a pure cache read)",
        )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live one-line progress on stderr (done/total, cache hits, "
        "ETA over the simulations left, weighted by predicted cost) "
        "instead of per-point lines",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-point progress on stderr",
    )


def _add_sim_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--loads",
        type=parse_loads,
        default=[0.008, 0.06, 0.16, 0.30],
        help="comma list or start:stop:step range (flits/node/cycle)",
    )
    parser.add_argument(
        "--preset",
        choices=sorted(BUFFERING_STRATEGIES),
        default=None,
        help="buffering strategy preset",
    )
    parser.add_argument(
        "--smart",
        action="store_true",
        help="enable SMART links (H=9)",
    )
    parser.add_argument(
        "--routing",
        default="default",
        choices=sorted(ROUTING_BUILDERS),
        help="routing scheme (default: per-topology paper default; "
        "ugal-l/ugal-g/deflect/xy-adapt read live congestion state)",
    )
    parser.add_argument("--packet-flits", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--warmup", type=int, default=300)
    parser.add_argument("--measure", type=int, default=800)
    parser.add_argument("--drain", type=int, default=1500)
    parser.add_argument(
        "--no-stop",
        action="store_true",
        help="simulate every load, even past saturation",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="catalog symbols: " + " ".join(catalog_symbols()),
    )
    sub = parser.add_subparsers(dest="command")

    info = sub.add_parser("info", help="summarize one network")
    info.add_argument("network", help="catalog symbol or node count")

    sweep = sub.add_parser("sweep", help="latency-load curves for one network")
    sweep.add_argument("network", help="catalog symbol or node count")
    sweep.add_argument(
        "--patterns",
        default="RND",
        help="comma list of pattern acronyms (default RND)",
    )
    sweep.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="also write curves + engine stats as JSON",
    )
    _add_sim_options(sweep)
    _add_engine_options(sweep)

    compare = sub.add_parser("compare", help="several networks, one pattern")
    compare.add_argument(
        "networks", nargs="+", help="catalog symbols or node counts"
    )
    compare.add_argument("--pattern", default="RND")
    compare.add_argument(
        "--model",
        action="store_true",
        help="use the analytical large-scale model instead of "
        "cycle-accurate simulation (for N=1296)",
    )
    _add_sim_options(compare)
    _add_engine_options(compare)

    adaptive = sub.add_parser(
        "adaptive",
        help="Fig 20-style adaptive-routing study (routing x traffic x load)",
    )
    adaptive.add_argument(
        "networks",
        nargs="*",
        default=["sn200", "cm4"],
        help="catalog symbols (default: sn200 cm4)",
    )
    adaptive.add_argument(
        "--routings",
        default="default,valiant,ugal-l,deflect",
        help="comma list of routing names (default: "
        "default,valiant,ugal-l,deflect)",
    )
    adaptive.add_argument(
        "--traffic",
        default="ADV1,burst:ADV1:64+192",
        help="comma list of traffic tokens — pattern acronyms or "
        "burst:/hotspot:/transient: variants (default: ADV1 steady + bursty)",
    )
    adaptive.add_argument(
        "--loads",
        type=parse_loads,
        default=[0.02, 0.06, 0.10, 0.14, 0.18, 0.22],
        help="comma list or start:stop:step range (flits/node/cycle)",
    )
    adaptive.add_argument("--seed", type=int, default=1)
    adaptive.add_argument("--warmup", type=int, default=300)
    adaptive.add_argument("--measure", type=int, default=800)
    adaptive.add_argument("--drain", type=int, default=1500)
    adaptive.add_argument(
        "--no-stop",
        action="store_true",
        help="simulate every load, even past saturation",
    )
    adaptive.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="also write all curves + engine stats as JSON",
    )
    _add_engine_options(adaptive, queue=False)

    workloads = sub.add_parser(
        "workloads",
        help="PARSEC/SPLASH workload models with the power/EDP join (Fig 18)",
    )
    workloads.add_argument(
        "networks",
        nargs="+",
        help="catalog symbols (cycle times are per symbol)",
    )
    workloads.add_argument(
        "--benches",
        default="barnes,fft,ocean-c,water-s",
        help="comma list of benchmark names "
        "(default barnes,fft,ocean-c,water-s)",
    )
    workloads.add_argument(
        "--baseline",
        default=None,
        help="EDP normalisation network (default: first network)",
    )
    workloads.add_argument(
        "--intensity-scale",
        type=float,
        default=1.0,
        help="multiply each benchmark's injection intensity",
    )
    workloads.add_argument(
        "--no-smart",
        action="store_true",
        help="disable SMART links (Figure 18 uses SMART)",
    )
    workloads.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="also write rows as JSON to this path",
    )
    workloads.add_argument("--seed", type=int, default=3)
    workloads.add_argument("--warmup", type=int, default=300)
    workloads.add_argument("--measure", type=int, default=600)
    workloads.add_argument("--drain", type=int, default=1200)
    _add_engine_options(workloads)

    cache = sub.add_parser(
        "cache",
        help="result-store maintenance",
        description="Result-store maintenance: stats, clear, or LRU gc of "
        "a local store or a 'repro serve' endpoint.  To share a store "
        "with other hosts, serve it in place with "
        "'repro serve --store sqlite:FILE'.",
    )
    cache.add_argument("action", choices=("stats", "clear", "gc"))
    cache.add_argument(
        "--cache-dir",
        default=None,
        help="store to maintain: a cache directory holding results.sqlite "
        "(default .repro_cache), a sqlite:FILE pack file, or an "
        "http(s):// 'repro serve' endpoint",
    )
    cache.add_argument(
        "--max-bytes",
        type=_at_least(int, 0),
        default=None,
        help="gc: evict LRU entries until the store fits",
    )
    cache.add_argument(
        "--max-age",
        type=_at_least(float, 0),
        default=None,
        metavar="DAYS",
        help="gc: evict entries untouched for this many days",
    )

    serve = sub.add_parser(
        "serve",
        help="share a result store over HTTP (and coordinate a work queue)",
        description="Serve a local result store over the JSON/HTTP wire "
        "protocol so any host can use it as its --cache-dir "
        "(http://HOST:PORT).  With --queue the server also coordinates "
        "a fault-tolerant work queue that 'repro work' processes drain "
        "and that 'sweep', 'compare' and 'workloads' submit to with "
        "--queue URL.  Stop with Ctrl-C or SIGTERM: in-flight "
        "requests finish, queue state is persisted, and the store is "
        "closed cleanly (an ordinary pack file afterwards).",
    )
    serve.add_argument(
        "--store",
        default="sqlite:store.sqlite",
        help="store to serve: a sqlite:FILE pack file (default "
        "sqlite:store.sqlite, created on first write) or a cache "
        "directory holding results.sqlite",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1; use 0.0.0.0 to accept "
        "other hosts)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8123,
        help="TCP port (default 8123; 0 picks a free port)",
    )
    serve.add_argument(
        "--token",
        default=None,
        help="require 'Authorization: Bearer TOKEN' on every request "
        "(default: REPRO_CACHE_TOKEN if set; clients send the same "
        "variable)",
    )
    serve.add_argument(
        "--queue",
        action="store_true",
        help="coordinate a work queue on this store (endpoints "
        "queue/submit..queue/status); state persists through the store "
        "and is rebuilt on restart",
    )
    serve.add_argument(
        "--lease-seconds",
        type=float,
        default=60.0,
        help="work-queue lease duration; a worker silent this long "
        "forfeits its batch back to the queue (default 60)",
    )
    serve.add_argument(
        "--quarantine-after",
        type=int,
        default=2,
        help="park a spec after it fails this many distinct workers "
        "(default 2)",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=5,
        help="park a spec after this many failed attempts in total, "
        "regardless of worker identity (default 5)",
    )
    serve.add_argument(
        "--fail-every",
        type=int,
        default=0,
        metavar="N",
        help="chaos testing: fail every Nth store request with an "
        "injected 503 (0 disables; /health and /metrics are exempt)",
    )

    work = sub.add_parser(
        "work",
        help="join a 'repro serve --queue' coordinator as an elastic worker",
        description="Claim leased spec batches from a coordinator's work "
        "queue, simulate them, and write results back through the shared "
        "store.  Any number of workers may run concurrently and join or "
        "leave mid-campaign; a killed worker's lease expires and its "
        "specs are re-issued to the survivors.  SIGINT/SIGTERM drains "
        "gracefully: the in-flight batch finishes and its lease is "
        "settled before exit (a second signal exits immediately).",
    )
    work.add_argument("url", help="coordinator URL (http://host:8123)")
    work.add_argument(
        "--id",
        dest="worker_id",
        default=None,
        help="worker identity shown in queue/status and quarantine "
        "reports (default host-pid)",
    )
    work.add_argument(
        "--max-specs",
        type=int,
        default=4,
        help="specs to claim per lease (default 4)",
    )
    work.add_argument(
        "--poll",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="idle wait between claims while the queue is empty "
        "(default 2)",
    )
    work.add_argument(
        "--workers",
        type=_at_least(int, 1),
        default=None,
        help="simulation worker processes for claimed batches (default: "
        "REPRO_WORKERS, else every CPU this process may use)",
    )
    work.add_argument(
        "--token",
        default=None,
        help="bearer token (default: REPRO_CACHE_TOKEN if set)",
    )
    work.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="write the worker's tally as JSON to this path on exit",
    )

    # Listed for --help only; dispatch short-circuits to repro.perf.
    sub.add_parser(
        "perf",
        help="simulator-core timing harness "
        "(see python -m repro perf --help)",
        add_help=False,
    )
    return parser


def cmd_info(args: argparse.Namespace) -> int:
    from .engine import resolve_topology

    topology = resolve_topology(args.network)
    area = network_area(topology, TECH_45NM, edge_buffer_flits=None)
    power = static_power(topology, TECH_45NM, edge_buffer_flits=None)
    sim = NoCSimulator(topology, SimConfig().with_smart(), seed=1)
    probe = sim.run(
        SyntheticSource(topology, "RND", 0.05), warmup=200, measure=500, drain=1000
    )
    print(
        format_table(
            ["property", "value"],
            [
                ["name", topology.name],
                ["nodes", topology.num_nodes],
                ["routers", topology.num_routers],
                ["network radix k'", topology.network_radix],
                ["router radix k", topology.router_radix],
                ["diameter", topology.diameter],
                ["avg wire [hops]", round(topology.average_wire_length(), 2)],
                ["area [mm^2]", round(area.total, 1)],
                ["static power [W]", round(power.total, 2)],
                ["latency @0.05 RND [cyc]", round(probe.avg_latency, 1)],
                ["throughput @0.05", round(probe.throughput, 4)],
            ],
            title="Network summary (45nm, SMART, RTT buffers)",
        )
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _build_config(args)
    patterns = [p for p in args.patterns.split(",") if p]
    grid = _synthetic_grid(args, config, [args.network], patterns)
    if args.queue is not None:
        return _run_queued(args, grid, cmd_sweep)
    specs, node_counts, _symbols = grid
    curves = {}
    engine = _build_engine(args)
    progress, line = _campaign_progress(args, specs, node_counts)
    for pattern in patterns:
        before = engine.total_stats.snapshot()
        curve = run_sweep(
            engine,
            args.network,
            pattern,
            args.loads,
            config=config,
            packet_flits=args.packet_flits,
            routing=args.routing,
            seed=args.seed,
            warmup=args.warmup,
            measure=args.measure,
            drain=args.drain,
            stop_after_saturation=not args.no_stop,
            progress=progress,
        )
        curves[pattern] = curve
        if line is not None:
            line.finish()
        stats = engine.total_stats.since(before)
        print(
            format_table(
                ["load", "latency [cyc]", "throughput"],
                _curve_rows(curve),
                title=f"{args.network} / {pattern} (sat throughput "
                f"{curve.saturation_throughput():.4f})",
            )
        )
        print(
            f"  engine: {stats.cache_hits} cached, "
            f"{stats.executed} simulated, {stats.workers} workers\n"
        )
    total = engine.total_stats
    _print_stage_seconds(total)
    if args.json_path:
        payload = {
            "network": args.network,
            "curves": {p: c.to_dict() for p, c in curves.items()},
            "engine": total.to_dict(),
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"  wrote {args.json_path}")
    return 0


def _run_queued(args: argparse.Namespace, grid: tuple, command) -> int:
    """``<command> --queue URL``: submit the grid, wait for the fleet,
    then rerun ``command`` against the coordinator's store.

    ``grid`` is ``(specs, node_counts, symbols)`` as the ``*_grid``
    helpers build it.  The submit is idempotent (keys are content
    hashes), so rerunning a crashed submit-and-wait is safe; specs whose
    results are already in the store are marked done at submit time and
    never re-issued.  The final run is the ordinary command pointed at
    the coordinator URL — a pure cache read once the queue drains.
    """
    if args.no_cache:
        raise ValueError(
            "--queue needs the cache: results rendezvous in the "
            "coordinator's store"
        )
    from .engine.queue import QueueClient, jobs_for_specs

    specs, node_counts, symbols = grid
    url = args.queue
    jobs = jobs_for_specs(specs, node_counts)
    client = QueueClient(url)
    reply = client.submit(jobs, symbols)
    if not args.quiet:
        print(
            f"  queue: submitted {len(jobs)} specs to {url} "
            f"({reply['accepted']} accepted, {reply['cached']} already "
            f"cached, {reply['duplicates']} already queued)",
            file=sys.stderr,
        )
    _wait_for_queue(args, client)
    # The queue is drained: every result is in the coordinator's store.
    # Rerun the command (saturation staging, power join and all) pointed
    # at that store — zero simulations by construction.
    args.queue = None
    args.cache_dir = url
    return command(args)


def _wait_for_queue(args: argparse.Namespace, client: QueueClient) -> dict:
    """Poll ``queue/status`` until the campaign drains.

    Shows a live progress line (unless ``--quiet``) with claimed-vs-done
    counts and an ETA extrapolated from the fleet's observed completion
    pace.  Quarantined specs fail the wait loudly: their results will
    never arrive, so assembling curves would silently re-simulate them
    locally — surfacing the poison is the better failure.
    """
    poll = max(0.2, getattr(args, "poll", 1.0) or 1.0)
    started = time.monotonic()
    base_done: int | None = None
    status: dict = {}
    try:
        while True:
            status = client.status()
            done = status["done"]
            if base_done is None:
                base_done = done
            if not args.quiet:
                elapsed = time.monotonic() - started
                pace = (done - base_done) / elapsed if elapsed > 0 else 0.0
                remaining = status["total"] - done - status["quarantined"]
                eta = (
                    f", eta ~{format_duration(remaining / pace)}"
                    if pace > 0 and remaining > 0
                    else ""
                )
                workers = len(status["workers"])
                print(
                    f"\r  queue: {done}/{status['total']} done, "
                    f"{status['leased']} leased, {status['pending']} "
                    f"pending, {workers} worker(s){eta}    ",
                    end="",
                    file=sys.stderr,
                )
            if status["drained"]:
                break
            time.sleep(poll)
    finally:
        if not args.quiet:
            print(file=sys.stderr)
    if status.get("quarantined"):
        for item in status["quarantine"]:
            print(
                f"  quarantined {item['key'][:12]}… after "
                f"{item['attempts']} attempts by "
                f"{len(item['workers'])} worker(s): {item['error']}",
                file=sys.stderr,
            )
        raise ValueError(
            f"{status['quarantined']} spec(s) were quarantined by the "
            "queue; fix the poison specs (or the workers) and resubmit"
        )
    return status


def cmd_adaptive(args: argparse.Namespace) -> int:
    from .analysis import adaptive_study

    routings = [r for r in args.routings.split(",") if r]
    traffic = [t for t in args.traffic.split(",") if t]
    # The grid only sizes the progress line; adaptive_study runs the
    # same specs (those of `sweep --routing R --patterns T`).
    specs, node_counts, _symbols = _synthetic_grid(
        args, None, args.networks, traffic, routings
    )
    engine = _build_engine(args)
    progress, line = _campaign_progress(args, specs, node_counts)
    study = adaptive_study(
        engine,
        args.networks,
        routings,
        traffic,
        args.loads,
        seed=args.seed,
        warmup=args.warmup,
        measure=args.measure,
        drain=args.drain,
        stop_after_saturation=not args.no_stop,
        progress=progress,
    )
    if line is not None:
        line.finish()
    stats = engine.total_stats
    print(study.format_table())
    print(
        f"  engine: {stats.cache_hits} cached, "
        f"{stats.executed} simulated, {stats.workers} workers\n"
    )
    _print_stage_seconds(stats)
    if args.json_path:
        payload = {"study": study.to_dict(), "engine": stats.to_dict()}
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"  wrote {args.json_path}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if args.model and args.queue is not None:
        raise ValueError("--queue applies to simulation campaigns, not --model")
    if args.queue is not None:
        return _run_queued(
            args,
            _synthetic_grid(args, config, args.networks, [args.pattern]),
            cmd_compare,
        )
    engine = _build_engine(args)
    if args.model:
        from dataclasses import replace

        from .analysis import model_curves
        from .engine import resolve_topology

        curves = model_curves(
            {symbol: resolve_topology(symbol) for symbol in args.networks},
            args.pattern,
            args.loads,
            config=replace(config, packet_flits=args.packet_flits),
            cache=engine.cache if engine.cache is not None else False,
            seed=args.seed,
        )
    else:
        specs, node_counts, _symbols = _synthetic_grid(
            args, config, args.networks, [args.pattern]
        )
        progress, line = _campaign_progress(args, specs, node_counts)
        curves = run_compare(
            engine,
            {symbol: symbol for symbol in args.networks},
            args.pattern,
            args.loads,
            config=config,
            packet_flits=args.packet_flits,
            routing=args.routing,
            seed=args.seed,
            warmup=args.warmup,
            measure=args.measure,
            drain=args.drain,
            stop_after_saturation=not args.no_stop,
            progress=progress,
        )
        if line is not None:
            line.finish()
    stats = engine.total_stats
    rows = []
    for label in args.networks:
        curve = curves[label]
        rows.append(
            [
                label,
                round(curve.zero_load_latency(), 2),
                f"{curve.saturation_throughput():.4f}",
                len(curve.points),
            ]
        )
    print(
        format_table(
            ["network", "zero-load latency", "sat throughput", "points"],
            rows,
            title=f"Pattern {args.pattern} over "
            f"{min(args.loads):g}..{max(args.loads):g}",
        )
    )
    print(
        f"  engine: {stats.cache_hits} cached, {stats.executed} simulated, "
        f"{stats.workers} workers\n"
    )
    _print_stage_seconds(stats)
    for label in args.networks:
        print(
            format_table(
                ["load", "latency [cyc]", "throughput"],
                _curve_rows(curves[label]),
                title=f"{label} / {args.pattern}",
            )
        )
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    from .analysis import edp_gain, edp_table, workload_table

    benches = [b for b in args.benches.split(",") if b]
    unknown = set(benches) - set(workload_names())
    if unknown:
        raise ValueError(
            f"unknown benchmarks {sorted(unknown)}; options: {workload_names()}"
        )
    baseline = args.baseline or args.networks[0]
    if baseline not in args.networks:
        raise ValueError(f"baseline {baseline!r} is not among the networks")
    grid = _workload_grid(args, benches)
    if args.queue is not None:
        return _run_queued(args, grid, cmd_workloads)
    specs, node_counts, _symbols = grid
    engine = _build_engine(args)
    progress, line = _campaign_progress(args, specs, node_counts)
    table = workload_table(
        args.networks,
        benches,
        smart=not args.no_smart,
        intensity_scale=args.intensity_scale,
        seed=args.seed,
        warmup=args.warmup,
        measure=args.measure,
        drain=args.drain,
        engine=engine,
        progress=progress,
    )
    if line is not None:
        line.finish()
    stats = engine.total_stats
    edp = edp_table(table, baseline)
    for bench in benches:
        rows = [
            [
                symbol,
                round(table[symbol][bench].avg_latency, 1),
                round(table[symbol][bench].throughput, 4),
                round(table[symbol][bench].total_power_w, 2),
                f"{table[symbol][bench].energy_delay_product:.3e}",
                round(edp[bench][symbol], 3),
            ]
            for symbol in args.networks
        ]
        print(
            format_table(
                [
                    "network",
                    "latency [cyc]",
                    "thr [f/n/c]",
                    "power [W]",
                    "EDP [Js]",
                    f"EDP/{baseline}",
                ],
                rows,
                title=f"Workload '{bench}' "
                f"({'no SMART' if args.no_smart else 'SMART'}, 45nm)",
            )
        )
        print()
    others = [sym for sym in args.networks if sym != baseline]
    if others and len(benches) > 1:
        gains = "  ".join(
            f"{sym}: {edp_gain(edp, sym, baseline):+.0%}" for sym in others
        )
        print(f"  EDP gain vs {baseline} (geomean): {gains}")
    print(
        f"  engine: {stats.cache_hits} cached, {stats.executed} simulated, "
        f"{stats.workers} workers"
    )
    _print_stage_seconds(stats)
    if args.json_path:
        payload = {
            "baseline": baseline,
            "rows": [
                table[symbol][bench].to_dict()
                for symbol in args.networks
                for bench in benches
            ],
            "edp_normalized": edp,
            "engine": {
                "cache_hits": stats.cache_hits,
                "simulated": stats.executed,
            },
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"  wrote {args.json_path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import os

    from .engine import JobQueue, RemoteStore, StoreServer, open_backend
    from .engine.store import TOKEN_ENV

    backend = open_backend(args.store)
    if isinstance(backend, RemoteStore):
        raise ValueError("serve needs a local store, not another server's URL")
    token = args.token if args.token is not None else os.environ.get(TOKEN_ENV)
    queue = None
    if args.queue:
        queue = JobQueue.load(
            backend,
            lease_seconds=args.lease_seconds,
            quarantine_workers=args.quarantine_after,
            max_attempts=args.max_attempts,
        )
    server = StoreServer(
        backend,
        host=args.host,
        port=args.port,
        token=token or None,
        queue=queue,
        fail_every=args.fail_every,
    )
    auth = "token required" if token else "no auth"
    mode = "store + work queue" if queue is not None else "store"
    print(
        f"serving {backend.location} at {server.url} ({mode}, {auth}); "
        "Ctrl-C or SIGTERM to stop",
        file=sys.stderr,
    )
    if args.fail_every:
        print(
            f"  chaos: failing every {args.fail_every}th request with 503",
            file=sys.stderr,
        )
    # Graceful shutdown: the accept loop runs on a daemon thread while
    # the main thread waits on an event the signal handlers set.  close()
    # then stops accepting, joins in-flight request threads, persists
    # queue state, and closes the backing store — a Ctrl-C mid-campaign
    # never drops a SQLite write or the queue's bookkeeping.
    stop = threading.Event()

    def handle_signal(signum, frame) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, handle_signal)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    server.start()
    try:
        stop.wait()
        print("shutting down: draining requests, closing store", file=sys.stderr)
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.close()
    return 0


def cmd_work(args: argparse.Namespace) -> int:
    from .engine.worker import QueueWorker

    worker = QueueWorker(
        args.url,
        worker_id=args.worker_id,
        max_specs=args.max_specs,
        poll_seconds=args.poll,
        max_workers=_workers(args),
        token=args.token,
    )
    signals_seen = 0

    def handle_signal(signum, frame) -> None:
        nonlocal signals_seen
        signals_seen += 1
        if signals_seen == 1:
            print(
                "\ndraining: finishing the in-flight batch, then exiting "
                "(signal again to quit now)",
                file=sys.stderr,
            )
            worker.request_stop()
        else:
            raise SystemExit(130)

    previous = {
        sig: signal.signal(sig, handle_signal)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        stats = worker.run()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print(
        f"worker {worker.worker_id}: {stats.leases} leases, "
        f"{stats.done} done ({stats.cache_hits} cached, "
        f"{stats.executed} simulated), {stats.failed} failed, "
        f"{stats.released} released"
    )
    if args.json_path:
        payload = {"worker": worker.worker_id, **stats.to_dict()}
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"  wrote {args.json_path}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.location}")
        return 0
    if args.action == "gc":
        report = cache.gc(max_bytes=args.max_bytes, max_age_days=args.max_age)
        print(
            format_table(
                ["property", "value"],
                [
                    ["store", cache.location],
                    ["scanned", report.scanned_entries],
                    ["removed", report.removed_entries],
                    ["removed [MB]", round(report.removed_bytes / 1e6, 2)],
                    ["kept", report.kept_entries],
                    ["kept [MB]", round(report.kept_bytes / 1e6, 2)],
                ],
                title="Result cache gc (LRU by mtime)",
            )
        )
        return 0
    stats = cache.stats()
    print(
        format_table(
            ["property", "value"],
            [
                ["store", cache.location],
                ["backend", type(cache.backend).__name__],
                ["entries", stats.entries],
                ["size [MB]", round(stats.size_mb, 2)],
                ["reclaimable entries", stats.reclaimable_entries],
                ["reclaimable [MB]", round(stats.reclaimable_bytes / 1e6, 2)],
            ],
            title="Result cache",
        )
    )
    return 0


def main(argv: list[str]) -> int:
    # One logging setup for every subcommand (REPRO_LOG / REPRO_LOG_FORMAT);
    # the library itself never calls this — embedders configure their own.
    configure_logging()
    if not argv or argv[0] in ("-h", "--help"):
        build_parser().print_help()
        return 0
    if argv[0] == "perf":
        # The perf harness owns its own argparse surface (see repro.perf).
        from .perf import main as perf_main

        return perf_main(argv[1:])
    args = build_parser().parse_args(argv)
    handler = {
        "info": cmd_info,
        "sweep": cmd_sweep,
        "compare": cmd_compare,
        "adaptive": cmd_adaptive,
        "workloads": cmd_workloads,
        "cache": cmd_cache,
        "serve": cmd_serve,
        "work": cmd_work,
    }[args.command]
    try:
        return handler(args)
    except _user_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _user_errors() -> tuple[type[Exception], ...]:
    """Exceptions reported as a one-line ``error:`` and exit code 2.

    ``RemoteStoreError`` joins only once the remote store has been
    imported — it cannot be raised before — so local subcommands never
    load the HTTP stack just to name the class.
    """
    http = sys.modules.get("repro.engine.store.http")
    if http is None:
        return (ValueError, LookupError)
    return (ValueError, LookupError, http.RemoteStoreError)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
