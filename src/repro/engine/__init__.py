"""Parallel experiment engine with content-addressed result caching.

The engine turns figure reproduction from serial, in-process re-simulation
into an incremental, parallel pipeline:

* :mod:`~repro.engine.spec` — :class:`ExperimentSpec`, a frozen, hashable
  description of one simulation point with a stable content hash;
* :mod:`~repro.engine.store` — result stores behind the
  :class:`CacheBackend` protocol: :class:`SqlitePackStore` (the local
  store, one WAL-mode file; the default ``.repro_cache/`` directory
  holds one named ``results.sqlite``) and :class:`RemoteStore` (the
  shared store, a JSON/HTTP client for a ``python -m repro serve``
  rendezvous endpoint), fronted by :class:`ResultCache` (codec, hit
  counters, batched lookups, ``REPRO_CACHE_MAX_BYTES`` auto-GC);
* :mod:`~repro.engine.runner` — :class:`ExperimentEngine`, a batch
  executor fanning cache misses across a process pool of its own per
  batch (every CPU by default, :func:`default_workers`);
* :mod:`~repro.engine.campaign` — latency curves, each a
  :class:`~repro.engine.campaign.CurveSpec`, swept as one staged
  early-stop-on-saturation campaign (``run_curves``: the CLI, the
  figures, :func:`run_compare` and the adaptive study all go through
  it), and (network × benchmark) workload campaigns
  (:func:`workload_compare`);
* :mod:`~repro.engine.queue` / :mod:`~repro.engine.worker` — the
  fault-tolerant work queue (:class:`JobQueue` behind ``repro serve
  --queue``) and the elastic :class:`QueueWorker` fleet loop
  (``python -m repro work``): leased batches, heartbeats, expired-lease
  requeue, and poison-spec quarantine, so workers can join, crash, or
  be killed at any point and the campaign still drains.  This is the
  one way to spread a campaign across hosts.

Specs carry a tagged traffic union — synthetic patterns *or*
PARSEC/SPLASH workload models — so every experiment class in the repo
flows through the same cached, parallel orchestration.  End to end::

    python -m repro sweep sn200 --patterns RND,ADV2 \\
        --loads 0.02:0.5:0.04 --workers 8
    python -m repro workloads sn200 fbf3 --benches barnes,fft --workers 8

or drained across hosts from one work queue by an elastic fleet
(workers may join late, crash, or be killed — leases expire and their
specs are re-issued)::

    host-c$ python -m repro serve --store sqlite:results.sqlite --queue
    host-a$ python -m repro work http://c:8123
    host-b$ python -m repro work http://c:8123
    any   $ python -m repro sweep sn200 --queue http://c:8123
    any   $ python -m repro sweep sn200 --cache-dir http://c:8123  # 0 sims

Re-running any form performs zero new simulations: every point is
served from the cache.

The remote-store, fault-injection, queue and worker names are exported
lazily: ``import repro.engine`` does not load those submodules (nor
``urllib``, ``ssl``, ``http.server`` or ``multiprocessing``); the first
read of one of their names does.
"""

from importlib import import_module

from .campaign import (
    build_workload_specs,
    run_compare,
    traffic_for_token,
    workload_compare,
)
from .runner import ExperimentEngine, RunStats, default_engine, default_workers
from .spec import (
    ROUTING_BUILDERS,
    SPEC_VERSION,
    BurstTraffic,
    ExperimentSpec,
    HotspotTraffic,
    SyntheticTraffic,
    TransientTraffic,
    WorkloadTraffic,
    build_routing,
    iter_spec_keys,
    predicted_cost,
    resolve_topology,
    topology_fingerprint,
    topology_token,
    traffic_from_dict,
)
from .store import (
    SCHEMA_VERSION,
    CacheBackend,
    CacheStats,
    GCReport,
    ResultCache,
    SqlitePackStore,
    default_cache_dir,
    open_backend,
)

#: Names served on first access (PEP 562): the remote store, the work
#: queue and the worker fleet, which a serial run on the local store
#: never uses (the remote store alone pulls in ``urllib.request``,
#: ``ssl`` and ``http.server``).  Name -> submodule that defines it.
_LAZY = {
    "TOKEN_ENV": ".store.http",
    "RemoteAuthError": ".store.http",
    "RemoteStore": ".store.http",
    "RemoteStoreError": ".store.http",
    "StoreServer": ".store.http",
    "JobQueue": ".queue",
    "QueueClient": ".queue",
    "QueueJob": ".queue",
    "jobs_for_specs": ".queue",
    "QueueWorker": ".worker",
    "WorkerStats": ".worker",
    "default_worker_id": ".worker",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "ExperimentSpec",
    "ExperimentEngine",
    "CacheBackend",
    "JobQueue",
    "QueueClient",
    "QueueJob",
    "QueueWorker",
    "SqlitePackStore",
    "RemoteStore",
    "RemoteStoreError",
    "RemoteAuthError",
    "StoreServer",
    "ResultCache",
    "CacheStats",
    "GCReport",
    "RunStats",
    "WorkerStats",
    "SCHEMA_VERSION",
    "SPEC_VERSION",
    "ROUTING_BUILDERS",
    "TOKEN_ENV",
    "SyntheticTraffic",
    "BurstTraffic",
    "HotspotTraffic",
    "TransientTraffic",
    "WorkloadTraffic",
    "traffic_from_dict",
    "traffic_for_token",
    "default_engine",
    "default_workers",
    "default_cache_dir",
    "open_backend",
    "build_routing",
    "predicted_cost",
    "resolve_topology",
    "topology_fingerprint",
    "topology_token",
    "iter_spec_keys",
    "build_workload_specs",
    "default_worker_id",
    "jobs_for_specs",
    "run_compare",
    "workload_compare",
]
