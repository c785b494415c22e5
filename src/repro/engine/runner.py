"""Batch executor: cache lookup, then fan-out across worker processes.

:class:`ExperimentEngine` takes a list of :class:`ExperimentSpec`\\ s and
returns one :class:`~repro.sim.SimResult` per spec, in order:

1. duplicate specs are coalesced (one simulation serves all copies);
2. the content-addressed cache is consulted for every unique spec in a
   *single* batched round trip (:meth:`ResultCache.get_many` — one
   indexed query on a SQLite pack, instead of per-spec file probes);
3. misses are executed — on a ``ProcessPoolExecutor`` when the batch is
   big enough to amortize worker startup, serially in-process otherwise —
   and written back through one batched :meth:`ResultCache.put_many`.

A batch with zero misses never touches the process machinery at all:
the worker pool is created lazily by the first miss that goes parallel,
so a fully cached repeat run (e.g. replaying a campaign against the
store a queue fleet filled) costs one cache query and no ``fork``/``spawn``.

Results are *normalized* through the JSON codec in both paths, so a
fresh simulation, a parallel run, and a cache hit are indistinguishable
point-for-point (simulations are deterministic per spec; only the
meaningless per-packet latency ordering is canonicalized).

Catalog-symbol specs ship only their token to workers (the topology is
rebuilt there); fingerprint specs pickle the live topology object.

Environment knobs: ``REPRO_WORKERS`` sets the default worker count and
``REPRO_NO_CACHE=1`` disables the default on-disk cache.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from ..obs.metrics import ENGINE_SPEC_SECONDS, ENGINE_SPECS, span
from ..sim import SimResult
from ..topos.base import Topology
from .spec import FINGERPRINT_PREFIX, ExperimentSpec, resolve_topology
from .store import ResultCache

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: progress(done, total, spec, from_cache) — invoked once per unique spec.
ProgressFn = Callable[[int, int, ExperimentSpec, bool], None]

WORKERS_ENV = "REPRO_WORKERS"
NO_CACHE_ENV = "REPRO_NO_CACHE"


def __getattr__(name: str):
    # ``ProcessPoolExecutor`` (and with it ``multiprocessing``) loads when
    # the first parallel batch needs a pool, so a cache replay or a
    # serial run never imports it.  Reading it as a module attribute lets
    # a test replace the pool class for ``_ensure_pool``.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _execute_remote(payload: tuple[dict, Topology | None]) -> dict:
    """Worker entry point: rebuild the spec, simulate, return the result
    as a JSON dict plus its measured wall seconds.

    Returning the serialized form (not the ``SimResult``) keeps the
    transfer compact for large runs and guarantees parallel results pass
    through exactly the codec the cache uses.  The seconds feed the
    engine's ``simulate`` stage time.
    """
    spec_dict, topology = payload
    spec = ExperimentSpec.from_dict(spec_dict)
    if topology is None:
        topology = resolve_topology(spec.topology, spec.layout)
    start = time.perf_counter()
    result = spec.execute(topology=topology)
    return {"result": result.to_dict(), "seconds": time.perf_counter() - start}


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
            default) runs everything serially in-process.
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
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------

    @property
    def pool_active(self) -> bool:
        """Whether a worker pool currently exists.  Pure cache replays
        must leave this ``False`` — process startup is the one cost a
        warm repeat run is supposed to skip."""
        return self._pool is not None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """Lazily create (and then reuse) the worker pool, so staged
        campaigns don't pay process startup once per batch — and fully
        cached runs never pay it at all."""
        if self._pool is None:
            pool_class = sys.modules[__name__].ProcessPoolExecutor
            self._pool = pool_class(max_workers=self.max_workers)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool if one was ever started (idempotent;
        a no-op for engines that only ever served cache hits)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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

        def record(
            key: str,
            spec: ExperimentSpec,
            result: SimResult,
            seconds: float = 0.0,
        ) -> None:
            nonlocal done
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
                        pool = self._ensure_pool()
                        pending = {
                            pool.submit(
                                _execute_remote, (spec.to_dict(), topology_for(spec))
                            ): (key, spec)
                            for key, spec in misses
                        }
                        while pending:
                            finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                            for future in finished:
                                key, spec = pending.pop(future)
                                reply = future.result()
                                record(
                                    key,
                                    spec,
                                    SimResult.from_dict(reply["result"]),
                                    seconds=reply["seconds"],
                                )
                    else:
                        for key, spec in misses:
                            topo = topology_for(spec)
                            if topo is None:
                                topo = resolve_topology(spec.topology, spec.layout)
                            start = time.perf_counter()
                            raw = spec.execute(topology=topo)
                            elapsed = time.perf_counter() - start
                            # Normalize through the codec so serial results
                            # match cached/parallel ones byte-for-byte.
                            record(
                                key,
                                spec,
                                SimResult.from_dict(raw.to_dict()),
                                seconds=elapsed,
                            )
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


def default_engine() -> ExperimentEngine:
    """Engine configured from the environment (used by the analysis layer).

    ``REPRO_WORKERS=N`` enables N-process fan-out; ``REPRO_NO_CACHE=1``
    turns off the on-disk cache (otherwise ``REPRO_CACHE_DIR`` or
    ``.repro_cache/``).  One engine is shared per environment
    configuration so its worker pool and hit counters persist across
    sweeps.
    """
    from .store import CACHE_DIR_ENV

    no_cache = bool(os.environ.get(NO_CACHE_ENV))
    try:
        workers = max(1, int(os.environ.get(WORKERS_ENV, "") or 1))
    except ValueError:
        workers = 1
    signature = (no_cache, os.environ.get(CACHE_DIR_ENV), workers)
    engine = _default_engines.get(signature)
    if engine is None:
        cache = None if no_cache else ResultCache()
        engine = ExperimentEngine(cache=cache, max_workers=workers)
        _default_engines[signature] = engine
    return engine
