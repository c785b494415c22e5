"""One measured campaign in a fresh interpreter (launched by ``run.py``).

The parent passes the wall-clock instant it launched this process, so
``setup_s`` covers interpreter start, ``import repro``, importing the
figure modules (paper-warm) and opening the store.  ``wall_s`` runs from
the end of set-up to the last in-run output check, and ``cpu_s`` is the
process's user+sys time over the same span.  Each is recorded raw
(``*_raw_s``) and in reference seconds (see :mod:`hostspeed`).  The
record goes to ``--result`` as JSON; checks that must not be timed (the
store replay) run after the clock stops.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument(
        "--mode", choices=("measure", "setup", "trace", "populate"), default="measure"
    )
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    host = HostSpeed()
    host.start()
    try:
        return run(args, host, time.perf_counter())
    finally:
        host.stop()  # before shutdown, where SIGALRM would kill the process


def run(args, host: HostSpeed, setup_start: float) -> int:
    sys.path.insert(0, str(args.root / "src"))
    import workloads

    from repro.engine import default_engine
    from repro.obs.metrics import REGISTRY

    warm = args.workload == "paper-warm"
    cases = workloads.collect_figures(args.root / "benchmarks") if warm else None
    engine = default_engine()
    entries = engine.cache.stats().entries if engine.cache is not None else 0
    setup_raw_s = time.time() - args.launched
    setup_slowdown = host.slowdown(setup_start, time.perf_counter())
    record = {
        "setup_s": setup_raw_s / setup_slowdown,
        "setup_raw_s": setup_raw_s,
        "setup_slowdown": setup_slowdown,
        "store_entries_at_start": entries,
    }

    def finish(**extra) -> int:
        record.update(extra)
        args.result.write_text(json.dumps(record))
        return 0

    if args.mode == "setup":
        return finish()
    if not warm and entries:
        return finish(invalid=f"cold run found {entries} entries in its store")

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    if warm:
        outcome = workloads.run_figures(cases, span=tracer.span if tracer else None)
    else:
        outcome = workloads.run_cold(args.workload, args.seed)
    end = time.perf_counter()
    cpu_raw_s = _cpu_seconds() - cpu0
    host.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = engine.total_stats.snapshot()
    slowdown = host.slowdown(start, end)

    record.update(
        wall_s=(end - start) / slowdown,
        wall_raw_s=end - start,
        cpu_s=cpu_raw_s / slowdown,
        cpu_raw_s=cpu_raw_s,
        slowdown=slowdown,
        host_samples=len(host.seconds),
        peak_rss_mb=peak_rss_mb,
        attempted=outcome.attempted,
        failed=outcome.failed,
        digest=outcome.digest(),
        figures=outcome.figures,
        failures=sorted(outcome.failures),
        counts={
            "engine.requested": stats.requested,
            "engine.executed": stats.executed,
            "engine.cache_hits": stats.cache_hits,
        },
    )
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer, stats, REGISTRY)
        for name in ("sim.runs", "sim.cycles", "sim.delivered_flits"):
            record["counts"][name] = record["layers"][name]
        if args.spans is not None:
            tracer.write(args.spans)

    if args.mode == "populate":
        store = engine.cache.stats()
        return finish(snapshot_entries=store.entries, snapshot_bytes=store.size_bytes)
    if warm and stats.executed:
        return finish(invalid=f"warm run simulated {stats.executed} specs")
    if not warm:
        # Untimed: replaying the campaign must be a pure store read that
        # reproduces every point bit for bit.
        replay = workloads.run_cold(args.workload, args.seed)
        again = engine.total_stats.since(stats)
        if again.executed or replay.digest() != outcome.digest():
            print(
                f"store replay mismatch: {again.executed} re-simulated, digest "
                f"{replay.digest()} != {outcome.digest()}",
                file=sys.stderr,
            )
            record["failed"] = outcome.attempted
    return finish()


if __name__ == "__main__":
    sys.exit(main())
