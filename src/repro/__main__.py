"""Command-line interface to the Slim NoC reproduction.

Subcommands (all sharing the experiment engine — parallel workers and a
content-addressed on-disk result cache):

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
  by last use; unreachable entries always go first) / ``cache export
  PACK`` / ``cache merge STORE...`` (move entries between stores by
  content key; remote ``http://`` stores are valid on either side).
* ``serve``   — share a result store over HTTP: ``python -m repro serve
  --store results.sqlite --port 8123 [--token T]`` turns any local
  store into a rendezvous point that every shard host can use as its
  ``--cache-dir``; add ``--queue`` to also coordinate a fault-tolerant
  work queue for an elastic worker fleet (see
  :mod:`repro.engine.store.http` and :mod:`repro.engine.queue`).
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
zero new simulations — every point is served from the cache.  Stores
are pluggable through explicit ``--cache-dir`` location schemes:
``dir:PATH`` (or a plain directory path) keeps the JSON tree,
``sqlite:PATH`` packs the store into one WAL-mode SQLite file,
``http://host:port`` talks to a ``repro serve`` endpoint
(``REPRO_CACHE_TOKEN`` supplies the bearer token when required), and
``s3://bucket/prefix`` / ``obj:http://host:port/bucket/prefix`` write
straight into an object-store bucket (boto3 for real S3, or any
S3-compatible endpoint named by ``REPRO_OBJECT_ENDPOINT`` — no
coordinator host at all).  The historical suffix-sniffed forms
(``*.sqlite``/``*.db``/``*.pack`` paths, ``REPRO_CACHE_BACKEND=sqlite``)
keep working as deprecated aliases that log a one-line warning.

Campaigns too large for one machine split with ``--shard INDEX/COUNT``
(disjoint, covering, stable under reordering; ``--shard-balance cost``
weighs points by predicted work instead of count) and rendezvous by
merge::

    host-a$ python -m repro sweep sn200 --loads 0.02:0.5:0.02 \\
                --shard 0/2 --cache-dir shard-a.sqlite --workers 8
    host-b$ python -m repro sweep sn200 --loads 0.02:0.5:0.02 \\
                --shard 1/2 --cache-dir shard-b.sqlite --workers 8
    # ship shard-b.sqlite to host-a, then:
    host-a$ python -m repro cache merge shard-a.sqlite shard-b.sqlite
    host-a$ python -m repro sweep sn200 --loads 0.02:0.5:0.02
    # ^ assembles the full curves as a pure cache read (0 simulations)

or over the network, with no file shipping::

    host-c$ python -m repro serve --store results.sqlite --port 8123
    host-a$ python -m repro sweep sn200 --loads 0.02:0.5:0.02 \\
                --shard 0/2 --cache-dir http://host-c:8123 --workers 8
    host-b$ python -m repro sweep sn200 --loads 0.02:0.5:0.02 \\
                --shard 1/2 --cache-dir http://host-c:8123 --workers 8
    any   $ python -m repro sweep sn200 --loads 0.02:0.5:0.02 \\
                --cache-dir http://host-c:8123   # pure cache read

Static shards assume every host survives; the work queue does not.
``serve --queue`` plus any number of ``repro work`` processes drains
the same campaign fault-tolerantly — leases expire when a worker dies
and its specs are re-issued, completed results are never recomputed::

    host-c$ python -m repro serve --store results.sqlite --queue
    host-a$ python -m repro work http://host-c:8123 --workers 8
    host-b$ python -m repro work http://host-c:8123 --workers 8
    any   $ python -m repro sweep sn200 --loads 0.02:0.5:0.02 \\
                --queue http://host-c:8123   # submit, wait, assemble
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time

from .analysis import format_table
from .engine import (
    ROUTING_BUILDERS,
    ExperimentEngine,
    QueueClient,
    QueueWorker,
    RemoteStoreError,
    ResultCache,
    build_sweep_specs,
    build_workload_specs,
    estimate_campaign_seconds,
    jobs_for_specs,
    run_compare,
    run_sweep,
    shard_specs,
    spec_load,
)
from .obs import (
    ProgressLine,
    configure_logging,
    default_calibration,
    format_duration,
    get_logger,
)
from .power import TECH_45NM, network_area, static_power
from .sim import BUFFERING_STRATEGIES, NoCSimulator, SimConfig
from .topos import catalog_symbols
from .traffic import SyntheticSource, workload_names

_log = get_logger("cli")

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


def parse_shard(text: str) -> tuple[int, int]:
    """``"0/2"`` → ``(index, count)``, validated."""
    try:
        index_text, count_text = text.split("/")
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "shard must be INDEX/COUNT, e.g. 0/2"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise argparse.ArgumentTypeError("need count >= 1 and 0 <= index < count")
    return index, count


def _build_config(args: argparse.Namespace) -> SimConfig:
    if args.preset is not None:
        config = BUFFERING_STRATEGIES[args.preset]()
    else:
        config = SimConfig()
    return config.with_smart() if args.smart else config


def _build_engine(args: argparse.Namespace) -> ExperimentEngine:
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    # CLI campaigns run calibrated: executed specs feed the measured-cost
    # table, and cost-balanced shards / ETAs read it back.  Library users
    # opt in explicitly (ExperimentEngine(calibration=...)).
    return ExperimentEngine(
        cache=cache, max_workers=args.workers, calibration=default_calibration()
    )


def _save_calibration(engine: ExperimentEngine) -> None:
    """Persist the measured-cost table if this run taught it anything."""
    calibration = engine.calibration
    if calibration is None or not calibration.dirty:
        return
    try:
        path = calibration.save()
    except OSError as exc:
        _log.warning("could not save the cost-calibration table: %s", exc)
    else:
        _log.debug("updated cost calibration at %s", path)


def _progress(done: int, total: int, spec, cached: bool) -> None:
    tag = "cache" if cached else "sim"
    print(
        f"  [{done}/{total}] {spec.topology} {spec.source.label} ({tag})",
        file=sys.stderr,
    )


def _synthetic_grid(
    args: argparse.Namespace,
    config: SimConfig,
    networks: list[str],
    patterns: list[str],
) -> tuple[list[list], dict[str, int], dict[str, str]]:
    """The campaign's spec grid, grouped as the campaign layer shards it.

    Returns ``(groups, node_counts, symbols)``: one spec group per
    independent shard partition (``sweep`` partitions each pattern
    separately — one ``run_sweep`` call each — while ``compare``
    partitions all networks together), the token → node-count map the
    cost model needs, and the token → catalog-symbol map queue workers
    rebuild topologies from.  Built with the same
    :func:`build_sweep_specs` the campaign layer uses, so content
    hashes — and therefore shard membership and queue keys — match the
    real run exactly.
    """
    groups: list[list] = []
    node_counts: dict[str, int] = {}
    symbols: dict[str, str] = {}
    for pattern in patterns:
        group: list = []
        for network in networks:
            specs, topo_map = build_sweep_specs(
                network,
                pattern,
                args.loads,
                config=config,
                packet_flits=args.packet_flits,
                routing=getattr(args, "routing", "default"),
                seed=args.seed,
                warmup=args.warmup,
                measure=args.measure,
                drain=args.drain,
            )
            group.extend(specs)
            for token, topo in topo_map.items():
                node_counts[token] = topo.num_nodes
                symbols[token] = network
        groups.append(group)
    return groups, node_counts, symbols


def _workload_grid(
    args: argparse.Namespace, benches: list[str]
) -> tuple[list[list], dict[str, int]]:
    """Spec grid for a workload campaign (one shard partition)."""
    config = SimConfig().with_smart(not args.no_smart)
    group: list = []
    node_counts: dict[str, int] = {}
    for network in args.networks:
        specs, topo_map = build_workload_specs(
            network,
            benches,
            config=config,
            intensity_scale=args.intensity_scale,
            seed=args.seed,
            warmup=args.warmup,
            measure=args.measure,
            drain=args.drain,
        )
        group.extend(specs)
        for token, topo in topo_map.items():
            node_counts[token] = topo.num_nodes
    return [group], node_counts


def _campaign_progress(
    args: argparse.Namespace,
    engine: ExperimentEngine,
    groups: list[list],
    node_counts: dict[str, int],
):
    """Progress reporting for a campaign: ``(callback, line_or_None)``.

    Default is the classic per-point stderr printer; ``--progress``
    swaps in a live single-line display with hit counts and an ETA from
    the calibrated cost table (falling back to observed pace until the
    table covers the campaign); ``--quiet`` disables both.
    """
    if args.quiet:
        return None, None
    if not getattr(args, "progress", False):
        return _progress, None
    calibration = engine.calibration
    if getattr(args, "shard", None) is not None:
        # A sharded run only completes its own slice; size the line (and
        # its pending cost) to that slice, computed with the same
        # partition function the campaign layer uses.
        index, count = args.shard
        specs = []
        for group in groups:
            specs.extend(
                shard_specs(
                    group,
                    index,
                    count,
                    balance=args.shard_balance,
                    node_counts=node_counts,
                    calibration=calibration,
                )
            )
    else:
        specs = [spec for group in groups for spec in group]

    def cost_fn(spec) -> float | None:
        nodes = node_counts.get(spec.topology)
        if nodes is None or calibration is None:
            return None
        return calibration.seconds_for(
            nodes, spec.warmup + spec.measure + spec.drain, spec_load(spec)
        )

    line = ProgressLine(total=len(specs), cost_fn=cost_fn)
    line.add_pending(specs)

    def callback(done: int, total: int, spec, cached: bool) -> None:
        line.update(spec, cached)

    return callback, line


def _print_shard_eta(
    args: argparse.Namespace,
    engine: ExperimentEngine,
    groups: list[list],
    node_counts: dict[str, int],
) -> None:
    """Announce the sharded slice and its calibrated time estimate."""
    index, count = args.shard
    owned: list = []
    for group in groups:
        owned.extend(
            shard_specs(
                group,
                index,
                count,
                balance=args.shard_balance,
                node_counts=node_counts,
                calibration=engine.calibration,
            )
        )
    total = sum(len(group) for group in groups)
    seconds = estimate_campaign_seconds(owned, node_counts, engine.calibration)
    if seconds is not None:
        print(
            f"  shard {index}/{count}: {len(owned)} of {total} points, "
            f"est ~{format_duration(seconds)} simulation time (calibrated, "
            "cache hits not counted)",
            file=sys.stderr,
        )
    else:
        print(
            f"  shard {index}/{count}: {len(owned)} of {total} points "
            "(no calibrated ETA — the cost table has no measurements for "
            "this grid yet)",
            file=sys.stderr,
        )


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


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="simulation worker processes (default 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result store: a cache directory (default .repro_cache), a "
        "sqlite:/dir: URL, an http:// 'repro serve' endpoint, or an "
        "s3://bucket/prefix / obj:http://host:port/bucket/prefix "
        "object-store bucket (.sqlite/.db/.pack paths still work as "
        "deprecated aliases)",
    )
    parser.add_argument(
        "--shard",
        type=parse_shard,
        default=None,
        metavar="INDEX/COUNT",
        help="run only this shard of the campaign grid (e.g. 0/2; "
        "partitioned by spec content hash — disjoint, covering, "
        "order-independent); merge the shard stores with 'cache merge' "
        "(or point every shard at one 'repro serve' store), then rerun "
        "unsharded to assemble results from cache",
    )
    parser.add_argument(
        "--shard-balance",
        choices=("hash", "cost"),
        default="hash",
        help="shard partition: 'hash' for even point counts (default), "
        "'cost' to balance predicted work (load x network size x "
        "simulated cycles) across shards",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live one-line progress on stderr (done/total, cache hits, "
        "ETA from the measured-cost calibration table) instead of "
        "per-point lines",
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
    sweep.add_argument(
        "--queue",
        default=None,
        metavar="URL",
        help="submit the grid to a 'repro serve --queue' coordinator, "
        "wait for the worker fleet to drain it, then assemble the "
        "curves from the shared store (a pure cache read); "
        "incompatible with --shard",
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
    _add_engine_options(adaptive)

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
        description="Result-store maintenance.  A two-host campaign "
        "rendezvous looks like: run each shard with --shard I/N "
        "--cache-dir shard-I.sqlite, ship the packs to one host, "
        "'cache merge shard-0.sqlite shard-1.sqlite', then rerun "
        "unsharded — a pure cache read.",
    )
    cache.add_argument(
        "action", choices=("stats", "clear", "gc", "export", "merge")
    )
    cache.add_argument(
        "stores",
        nargs="*",
        metavar="STORE",
        help="export: one destination store; merge: source stores to "
        "copy in (directories, sqlite:/dir: URLs, http:// endpoints, "
        "or s3://bucket/prefix buckets)",
    )
    cache.add_argument("--cache-dir", default=None)
    cache.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="gc: evict LRU entries until the store fits",
    )
    cache.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="DAYS",
        help="gc: evict entries untouched for this many days",
    )

    serve = sub.add_parser(
        "serve",
        help="share a result store over HTTP (sharded-campaign rendezvous)",
        description="Serve a local result store over the JSON/HTTP wire "
        "protocol so shard hosts can use it as their --cache-dir "
        "(http://HOST:PORT) — results rendezvous over the network "
        "instead of shipping pack files.  With --queue the server also "
        "coordinates a fault-tolerant work queue that 'repro work' "
        "processes drain.  Stop with Ctrl-C or SIGTERM: in-flight "
        "requests finish, queue state is persisted, and the store is "
        "closed cleanly (an ordinary pack/directory afterwards).",
    )
    serve.add_argument(
        "--store",
        default="store.sqlite",
        help="store to serve: a .sqlite/.db/.pack file (default "
        "store.sqlite, created on first write), a cache directory, or "
        "a sqlite:/dir: URL",
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
        type=int,
        default=1,
        help="simulation worker processes for claimed batches (default 1)",
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
    if args.queue is not None:
        return _sweep_queued(args, config, patterns)
    curves = {}
    with _build_engine(args) as engine:
        groups, node_counts, _symbols = _synthetic_grid(
            args, config, [args.network], patterns
        )
        progress, line = _campaign_progress(args, engine, groups, node_counts)
        if args.shard is not None and not args.quiet:
            _print_shard_eta(args, engine, groups, node_counts)
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
                shard=args.shard,
                shard_balance=args.shard_balance,
                progress=progress,
            )
            curves[pattern] = curve
            if line is not None:
                line.finish()
            stats = engine.total_stats.since(before)
            if args.shard is not None:
                title = (
                    f"{args.network} / {pattern} "
                    f"[shard {args.shard[0]}/{args.shard[1]}: "
                    f"{len(curve.points)} of {len(args.loads)} points]"
                )
            else:
                title = (
                    f"{args.network} / {pattern} (sat throughput "
                    f"{curve.saturation_throughput():.4f})"
                )
            print(
                format_table(
                    ["load", "latency [cyc]", "throughput"],
                    _curve_rows(curve),
                    title=title,
                )
            )
            print(
                f"  engine: {stats.cache_hits} cached, "
                f"{stats.executed} simulated, {stats.workers} workers\n"
            )
        total = engine.total_stats
        _print_stage_seconds(total)
        _save_calibration(engine)
    if args.json_path:
        payload = {
            "network": args.network,
            "shard": None if args.shard is None else list(args.shard),
            "curves": {p: c.to_dict() for p, c in curves.items()},
            "engine": total.to_dict(),
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"  wrote {args.json_path}")
    return 0


def _sweep_queued(
    args: argparse.Namespace, config: SimConfig, patterns: list[str]
) -> int:
    """``sweep --queue URL``: submit the grid, wait for the fleet, then
    assemble the curves from the coordinator's store.

    The submit is idempotent (keys are content hashes), so rerunning a
    crashed submit-and-wait is safe; specs whose results are already in
    the store are marked done at submit time and never re-issued.  The
    final assembly is the ordinary unsharded sweep pointed at the
    coordinator URL — a pure cache read once the queue drains.
    """
    if args.shard is not None:
        raise ValueError(
            "--queue and --shard are mutually exclusive: the queue "
            "balances work across the fleet dynamically"
        )
    if args.no_cache:
        raise ValueError(
            "--queue needs the cache: results rendezvous in the "
            "coordinator's store"
        )
    url = args.queue
    groups, node_counts, symbols = _synthetic_grid(
        args, config, [args.network], patterns
    )
    specs = [spec for group in groups for spec in group]
    jobs = jobs_for_specs(specs, node_counts, default_calibration())
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
    # Assemble with the ordinary sweep path (saturation staging and all)
    # pointed at that store — zero simulations by construction.
    args.queue = None
    args.cache_dir = url
    return cmd_sweep(args)


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

    if args.shard is not None:
        print("error: adaptive does not support --shard", file=sys.stderr)
        return 2
    routings = [r for r in args.routings.split(",") if r]
    traffic = [t for t in args.traffic.split(",") if t]
    with _build_engine(args) as engine:
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
        )
        stats = engine.total_stats
        _save_calibration(engine)
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
    if args.model and args.shard is not None:
        raise ValueError("--shard applies to simulation campaigns, not --model")
    with _build_engine(args) as engine:
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
            groups, node_counts, _symbols = _synthetic_grid(
                args, config, args.networks, [args.pattern]
            )
            progress, line = _campaign_progress(args, engine, groups, node_counts)
            if args.shard is not None and not args.quiet:
                _print_shard_eta(args, engine, groups, node_counts)
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
                shard=args.shard,
                shard_balance=args.shard_balance,
                progress=progress,
            )
            if line is not None:
                line.finish()
        stats = engine.total_stats
        _save_calibration(engine)
    if args.shard is None:
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
    else:
        computed = sum(len(curves[label].points) for label in args.networks)
        grid = len(args.networks) * len(args.loads)
        print(
            f"shard {args.shard[0]}/{args.shard[1]}: computed {computed} "
            f"of {grid} grid points (merge stores, then rerun unsharded "
            "to assemble curves)"
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
    if args.shard is not None:
        return _workloads_shard(args, benches)
    with _build_engine(args) as engine:
        groups, node_counts = _workload_grid(args, benches)
        progress, line = _campaign_progress(args, engine, groups, node_counts)
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
        _save_calibration(engine)
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


def _workloads_shard(args: argparse.Namespace, benches) -> int:
    """Cache-population pass for one shard of a workload campaign.

    The power/EDP join needs the full (network × benchmark) table, so a
    shard run only simulates its slice of the grid; merge the shard
    stores and rerun unsharded for the joined report.
    """
    from .engine import workload_compare

    config = SimConfig().with_smart(not args.no_smart)
    with _build_engine(args) as engine:
        groups, node_counts = _workload_grid(args, benches)
        progress, line = _campaign_progress(args, engine, groups, node_counts)
        if not args.quiet:
            _print_shard_eta(args, engine, groups, node_counts)
        table = workload_compare(
            engine,
            {symbol: symbol for symbol in args.networks},
            benches,
            config=config,
            intensity_scale=args.intensity_scale,
            seed=args.seed,
            warmup=args.warmup,
            measure=args.measure,
            drain=args.drain,
            shard=args.shard,
            shard_balance=args.shard_balance,
            progress=progress,
        )
        if line is not None:
            line.finish()
        stats = engine.total_stats
        _save_calibration(engine)
    computed = sum(len(cells) for cells in table.values())
    grid = len(args.networks) * len(benches)
    print(
        f"shard {args.shard[0]}/{args.shard[1]}: computed {computed} of "
        f"{grid} grid points (merge stores, then rerun unsharded for the "
        "power/EDP join)"
    )
    print(
        f"  engine: {stats.cache_hits} cached, {stats.executed} simulated, "
        f"{stats.workers} workers"
    )
    if args.json_path:
        payload = {
            "shard": list(args.shard),
            "computed": computed,
            "grid": grid,
            "engine": stats.to_dict(),
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
    worker = QueueWorker(
        args.url,
        worker_id=args.worker_id,
        max_specs=args.max_specs,
        poll_seconds=args.poll,
        max_workers=args.workers,
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
    if args.action in ("export", "merge"):
        return _cache_transfer(cache, args)
    if args.stores:
        raise ValueError(f"cache {args.action} takes no STORE arguments")
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


def _cache_transfer(cache: ResultCache, args: argparse.Namespace) -> int:
    """``cache export PACK`` / ``cache merge STORE...``: move entries
    between stores by content key (skip-if-present, conflicts counted)."""
    from .engine import merge_stores, open_backend
    from .obs import TransferLine

    def transfer(destination, source):
        # The live line streams per copied page: keys moved (however
        # they resolved), bytes, and a pace ETA against the source's
        # total entry count.
        line = TransferLine(source.stats().entries, label="transfer")
        report = merge_stores(
            destination,
            source,
            progress=lambda delta: line.advance(
                keys=delta.copied + delta.skipped + delta.conflicts,
                nbytes=delta.copied_bytes,
            ),
        )
        line.finish()
        return report

    if args.action == "export":
        if len(args.stores) != 1:
            raise ValueError("cache export takes exactly one destination store")
        destination = open_backend(args.stores[0])
        report = transfer(destination, cache.backend)
        print(
            f"exported {cache.location} -> {destination.location}: "
            f"{report.copied} copied "
            f"({round(report.copied_bytes / 1e6, 2)} MB), "
            f"{report.skipped} already present, "
            f"{report.conflicts} conflicts kept theirs"
        )
        destination.close()
        return 0
    if not args.stores:
        raise ValueError("cache merge needs at least one source store")
    for source_location in args.stores:
        source = open_backend(source_location)
        report = transfer(cache.backend, source)
        print(
            f"merged {source.location} -> {cache.location}: "
            f"{report.copied} copied "
            f"({round(report.copied_bytes / 1e6, 2)} MB), "
            f"{report.skipped} already present, "
            f"{report.conflicts} conflicts kept ours"
        )
        source.close()
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
    except (ValueError, LookupError, RemoteStoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
