"""Batch executor: cache lookup, then fan-out across worker processes.

:class:`ExperimentEngine` takes a list of :class:`ExperimentSpec`\\ s and
returns one :class:`~repro.sim.SimResult` per spec, in order:

1. duplicate specs are coalesced (one simulation serves all copies);
2. the content-addressed cache is consulted for every unique spec in a
   *single* batched round trip (:meth:`ResultCache.get_many` — one
   indexed query on a SQLite pack, instead of per-spec file probes);
3. misses are executed — on a ``ProcessPoolExecutor`` when the batch has
   at least ``serial_threshold`` of them, serially in-process otherwise —
   and written back through one batched :meth:`ResultCache.put_many`.

Each parallel batch gets its own pool, sized to its misses and joined
before :meth:`ExperimentEngine.run` returns: the engine holds no process
state between calls, no worker outlives a batch, and the workers' CPU
time is in the parent's ``RUSAGE_CHILDREN`` as soon as ``run`` is done.
A batch with zero misses (e.g. replaying a campaign against the store a
queue fleet filled) or a single miss costs no ``fork``/``spawn`` at all.

Results are *normalized* through the JSON codec in both paths, so a
fresh simulation, a parallel run, and a cache hit are indistinguishable
point-for-point (simulations are deterministic per spec; only the
meaningless per-packet latency ordering is canonicalized).

Catalog-symbol specs ship only their token to workers (the topology is
rebuilt there); fingerprint specs pickle the live topology object.

Environment knobs: ``REPRO_WORKERS=N`` (a positive integer) sets the
default worker count, which is otherwise every CPU this process may run
on (:func:`default_workers`), and ``REPRO_NO_CACHE=1`` disables the
default on-disk cache.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..obs.metrics import ENGINE_SPEC_SECONDS, ENGINE_SPECS, span
from ..sim import SimResult
from ..topos.base import Topology
from .spec import FINGERPRINT_PREFIX, ExperimentSpec, resolve_topology
from .store import ResultCache

#: progress(done, total, spec, from_cache) — invoked once per unique spec.
ProgressFn = Callable[[int, int, ExperimentSpec, bool], None]

WORKERS_ENV = "REPRO_WORKERS"
NO_CACHE_ENV = "REPRO_NO_CACHE"


def __getattr__(name: str):
    # ``ProcessPoolExecutor`` (and with it ``multiprocessing``) loads when
    # the first parallel batch needs a pool, so a cache replay or a
    # serial run never imports it.  ``run`` reads it as a module
    # attribute, so a test can replace the pool class.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _simulate(spec: ExperimentSpec, topology: Topology | None) -> dict:
    """Simulate ``spec`` and return its result as a JSON dict plus its
    measured wall seconds — the one simulate path of both dispatch modes.

    Returning the serialized form (not the ``SimResult``) keeps a
    worker's transfer compact for large runs and guarantees every result
    passes through exactly the codec the cache uses.  The seconds feed
    the engine's ``simulate`` stage time.
    """
    if topology is None:
        topology = resolve_topology(spec.topology, spec.layout)
    start = time.perf_counter()
    result = spec.execute(topology=topology)
    return {"result": result.to_dict(), "seconds": time.perf_counter() - start}


def _execute_remote(payload: tuple[dict, Topology | None]) -> dict:
    """Worker entry point: rebuild the spec, then :func:`_simulate` it."""
    spec_dict, topology = payload
    return _simulate(ExperimentSpec.from_dict(spec_dict), topology)


def _exit_with_engine(engine: int) -> None:
    """Pool-worker initializer: exit as soon as the engine's process is
    gone.  A parent killed outright cannot shut its pool down, and an
    orphaned worker would finish its spec and then wait for work
    forever.

    Under ``fork``/``spawn`` the engine is the worker's parent, and a
    change of parent means it died.  Under ``forkserver`` the parent is
    the forkserver, which lives on while its workers do, so the engine's
    pid is probed instead."""
    parent = os.getppid()

    def engine_alive() -> bool:
        if parent == engine:
            return os.getppid() == engine
        try:
            os.kill(engine, 0)
        except ProcessLookupError:
            return False
        return True

    def watch() -> None:
        while engine_alive():
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@dataclass
class RunStats:
    """Accounting for one :meth:`ExperimentEngine.run` call (or, as
    ``engine.total_stats``, everything the engine has done so far)."""

    requested: int = 0
    unique: int = 0
    cache_hits: int = 0
    executed: int = 0
    workers: int = 1
    #: Wall seconds by engine stage (cache_lookup / dispatch / simulate /
    #: write_back / total).  ``simulate`` is the *sum of per-spec measured
    #: times*, so under parallel dispatch it exceeds the wall-clock
    #: ``dispatch`` that contains it — the ratio is the realized speedup.
    stage_seconds: dict[str, float] = field(default_factory=dict)

    #: Always 0: every miss runs on the scalar core.  Kept because the
    #: benchmark's per-layer trace reads it.
    batched = 0

    def accumulate(self, other: "RunStats") -> None:
        self.requested += other.requested
        self.unique += other.unique
        self.cache_hits += other.cache_hits
        self.executed += other.executed
        for stage, seconds in other.stage_seconds.items():
            self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def since(self, earlier: "RunStats") -> "RunStats":
        return RunStats(
            requested=self.requested - earlier.requested,
            unique=self.unique - earlier.unique,
            cache_hits=self.cache_hits - earlier.cache_hits,
            executed=self.executed - earlier.executed,
            workers=self.workers,
            stage_seconds={
                stage: seconds - earlier.stage_seconds.get(stage, 0.0)
                for stage, seconds in self.stage_seconds.items()
            },
        )

    def snapshot(self) -> "RunStats":
        return RunStats(
            requested=self.requested,
            unique=self.unique,
            cache_hits=self.cache_hits,
            executed=self.executed,
            workers=self.workers,
            stage_seconds=dict(self.stage_seconds),
        )

    def to_dict(self) -> dict:
        return {
            "requested": self.requested,
            "unique": self.unique,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "workers": self.workers,
            "stage_seconds": {
                stage: round(seconds, 6)
                for stage, seconds in sorted(self.stage_seconds.items())
            },
        }


class ExperimentEngine:
    """Cache-aware, optionally parallel experiment executor.

    Args:
        cache: Result store; ``None`` disables caching entirely.
        max_workers: Process count for simulation fan-out; ``1`` (the
            default here) runs everything serially in-process.  The CLI
            and :func:`default_engine` pass :func:`default_workers`.
        serial_threshold: Batches with fewer misses than this run
            serially even when ``max_workers > 1`` (worker startup would
            dominate).
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        max_workers: int = 1,
        serial_threshold: int = 2,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.cache = cache
        self.max_workers = max_workers
        self.serial_threshold = serial_threshold
        self.last_stats = RunStats()
        self.total_stats = RunStats(workers=max_workers)

    def _dispatch_parallel(self, misses, topology_for, record) -> None:
        """Simulate ``misses`` on a pool of their own.  The pool is shut
        down before this returns, so no worker outlives the batch.  After
        an error the specs still queued are dropped, not simulated, and
        those the workers did finish are still recorded."""
        import multiprocessing

        pool_class = sys.modules[__name__].ProcessPoolExecutor
        # Fork on Linux whatever the interpreter's default (forkserver from
        # Python 3.14): a forked worker inherits the loaded simulator, so a
        # pool per batch costs no re-imports, and a direct child's CPU time
        # is in ``RUSAGE_CHILDREN`` once it is joined.
        context = multiprocessing.get_context(
            "fork" if sys.platform == "linux" else None
        )
        pool = pool_class(
            max_workers=min(self.max_workers, len(misses)),
            mp_context=context,
            initializer=_exit_with_engine,
            initargs=(os.getpid(),),
        )

        def take(future, key: str, spec: ExperimentSpec) -> None:
            record(key, spec, future.result())

        pending = {}
        try:
            for key, spec in misses:
                payload = (spec.to_dict(), topology_for(spec))
                pending[pool.submit(_execute_remote, payload)] = (key, spec)
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    take(future, *pending.pop(future))
        finally:
            pool.shutdown(cancel_futures=True)
            # Only after an error is anything left: keep what finished.
            for future, (key, spec) in pending.items():
                if not future.cancelled() and future.exception() is None:
                    take(future, key, spec)

    def run(
        self,
        specs: Sequence[ExperimentSpec],
        topologies: dict[str, Topology] | None = None,
        progress: ProgressFn | None = None,
    ) -> list[SimResult]:
        """Execute ``specs``; returns results aligned with the input order.

        ``topologies`` maps fingerprint tokens (``spec.topology``) to live
        :class:`Topology` objects for specs built from ad-hoc networks.
        """
        run_start = time.perf_counter()
        topologies = topologies or {}
        unique: dict[str, ExperimentSpec] = {}
        for spec in specs:
            unique.setdefault(spec.content_hash(), spec)
        stats = RunStats(
            requested=len(specs),
            unique=len(unique),
            workers=self.max_workers,
            stage_seconds={
                "cache_lookup": 0.0,
                "dispatch": 0.0,
                "simulate": 0.0,
                "write_back": 0.0,
                "total": 0.0,
            },
        )

        # Cache-first pass: one batched backend round trip for the whole
        # batch, not a per-spec probe.
        results: dict[str, SimResult] = {}
        with span("engine.cache_lookup") as lookup_span:
            if self.cache is not None:
                results = self.cache.get_many(unique.values())
        stats.stage_seconds["cache_lookup"] = lookup_span.seconds
        misses: list[tuple[str, ExperimentSpec]] = []
        done = 0
        for key, spec in unique.items():
            if key in results:
                stats.cache_hits += 1
                done += 1
                if progress is not None:
                    progress(done, len(unique), spec, True)
            else:
                misses.append((key, spec))
        if stats.cache_hits:
            ENGINE_SPECS.labels(outcome="cache_hit").inc(stats.cache_hits)

        def topology_for(spec: ExperimentSpec) -> Topology | None:
            if spec.topology.startswith(FINGERPRINT_PREFIX):
                try:
                    return topologies[spec.topology]
                except KeyError:
                    raise LookupError(
                        f"spec references fingerprint topology {spec.topology!r} "
                        "but no object was supplied via `topologies`"
                    ) from None
            return None

        executed: list[tuple[ExperimentSpec, SimResult]] = []

        def record(key: str, spec: ExperimentSpec, reply: dict) -> None:
            """Take one :func:`_simulate` reply, from a worker or not."""
            nonlocal done
            result = SimResult.from_dict(reply["result"])
            seconds = reply["seconds"]
            executed.append((spec, result))
            results[key] = result
            stats.executed += 1
            stats.stage_seconds["simulate"] += seconds
            done += 1
            ENGINE_SPECS.labels(outcome="executed").inc()
            if seconds > 0:
                ENGINE_SPEC_SECONDS.observe(seconds)
            if progress is not None:
                progress(done, len(unique), spec, False)

        if misses:
            parallel = self.max_workers > 1 and len(misses) >= self.serial_threshold
            try:
                with span("engine.dispatch") as dispatch_span:
                    if parallel:
                        self._dispatch_parallel(misses, topology_for, record)
                    else:
                        for key, spec in misses:
                            record(key, spec, _simulate(spec, topology_for(spec)))
                stats.stage_seconds["dispatch"] = dispatch_span.seconds
            finally:
                # One batched write-back per engine batch (a single
                # transaction on a SQLite pack).  Flushed even when a miss
                # raises or the run is interrupted, so every simulation
                # that *did* finish survives into the store — nothing a
                # campaign already paid for is re-simulated.
                if self.cache is not None and executed:
                    with span("engine.write_back") as write_span:
                        self.cache.put_many(executed)
                    stats.stage_seconds["write_back"] = write_span.seconds

        stats.stage_seconds["total"] = time.perf_counter() - run_start
        self.last_stats = stats
        self.total_stats.accumulate(stats)
        return [results[spec.content_hash()] for spec in specs]


_default_engines: dict[tuple, ExperimentEngine] = {}


def default_workers() -> int:
    """The default worker count: ``REPRO_WORKERS`` if set, otherwise
    every CPU this process may run on (its scheduler affinity, which
    honours ``taskset`` and container CPU sets, not the host's count).

    Raises ``ValueError`` naming the variable when ``REPRO_WORKERS`` is
    not a positive integer, rather than quietly running serially.
    """
    text = os.environ.get(WORKERS_ENV, "")
    if not text:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1  # no affinity call on this platform
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {text!r}")
    return workers


def default_engine() -> ExperimentEngine:
    """Engine configured from the environment (used by the analysis layer).

    It runs :func:`default_workers` processes; ``REPRO_NO_CACHE=1``
    turns off the on-disk cache (otherwise ``REPRO_CACHE_DIR`` or
    ``.repro_cache/``).  One engine is shared per environment
    configuration so its hit counters persist across sweeps.
    """
    from .store import CACHE_DIR_ENV

    no_cache = bool(os.environ.get(NO_CACHE_ENV))
    workers = default_workers()
    signature = (no_cache, os.environ.get(CACHE_DIR_ENV), workers)
    engine = _default_engines.get(signature)
    if engine is None:
        cache = None if no_cache else ResultCache()
        engine = ExperimentEngine(cache=cache, max_workers=workers)
        _default_engines[signature] = engine
    return engine
