"""Parallel experiment engine with content-addressed result caching.

The engine turns figure reproduction from serial, in-process re-simulation
into an incremental, parallel pipeline:

* :mod:`~repro.engine.spec` — :class:`ExperimentSpec`, a frozen, hashable
  description of one simulation point with a stable content hash;
* :mod:`~repro.engine.store` — pluggable result stores behind the
  :class:`CacheBackend` protocol: :class:`LocalDirStore` (sharded JSON
  directory, the classic ``.repro_cache/`` layout),
  :class:`SqlitePackStore` (single WAL-mode file for 10k+ entry
  campaigns), and :class:`RemoteStore` (a JSON/HTTP client for a
  ``python -m repro serve`` rendezvous endpoint — shard hosts share one
  network store with no pack-file shipping), fronted by
  :class:`ResultCache` (codec, hit counters, batched lookups,
  ``REPRO_CACHE_MAX_BYTES`` auto-GC) and mergeable by content key via
  :func:`merge_stores`;
* :mod:`~repro.engine.runner` — :class:`ExperimentEngine`, a batch
  executor fanning cache misses across a process pool;
* :mod:`~repro.engine.campaign` — sweep/compare grid builders with
  staged early stop on saturation, (network × benchmark) workload
  campaigns (:func:`workload_compare`), and deterministic shard
  partitioning (:func:`shard_specs`) for splitting one campaign across
  hosts;
* :mod:`~repro.engine.queue` / :mod:`~repro.engine.worker` — the
  fault-tolerant work queue (:class:`JobQueue` behind ``repro serve
  --queue``) and the elastic :class:`QueueWorker` fleet loop
  (``python -m repro work``): leased batches, heartbeats, expired-lease
  requeue, and poison-spec quarantine, so workers can join, crash, or
  be killed at any point and the campaign still drains.

Specs carry a tagged traffic union — synthetic patterns *or*
PARSEC/SPLASH workload models — so every experiment class in the repo
flows through the same cached, parallel orchestration.  End to end::

    python -m repro sweep sn200 --patterns RND,ADV2 \\
        --loads 0.02:0.5:0.04 --workers 8
    python -m repro workloads sn200 fbf3 --benches barnes,fft --workers 8

or, split across two hosts and merged back together::

    host-a$ python -m repro sweep sn200 --shard 0/2 --cache-dir a.sqlite
    host-b$ python -m repro sweep sn200 --shard 1/2 --cache-dir b.sqlite
    host-a$ python -m repro cache merge a.sqlite b.sqlite
    host-a$ python -m repro sweep sn200   # pure cache read, 0 simulations

or rendezvoused over the network, with no file shipping at all::

    host-c$ python -m repro serve --store results.sqlite --port 8123
    host-a$ python -m repro sweep sn200 --shard 0/2 --cache-dir http://c:8123
    host-b$ python -m repro sweep sn200 --shard 1/2 --cache-dir http://c:8123
    any   $ python -m repro sweep sn200 --cache-dir http://c:8123  # 0 sims

or, fault-tolerantly, drained from one work queue by an elastic fleet
(workers may join late, crash, or be killed — leases expire and their
specs are re-issued)::

    host-c$ python -m repro serve --store results.sqlite --queue
    host-a$ python -m repro work http://c:8123
    host-b$ python -m repro work http://c:8123
    any   $ python -m repro sweep sn200 --queue http://c:8123

Re-running any form performs zero new simulations: every point is
served from the cache.
"""

from .campaign import (
    SHARD_BALANCE_MODES,
    assemble_curve,
    build_sweep_specs,
    build_workload_specs,
    estimate_campaign_seconds,
    run_compare,
    run_sweep,
    shard_specs,
    traffic_for_token,
    workload_compare,
)
from .queue import JobQueue, QueueClient, QueueJob, jobs_for_specs
from .runner import ExperimentEngine, RunStats, default_engine
from .spec import (
    LIVE_SPEC_VERSIONS,
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
    shard_for_key,
    spec_load,
    topology_fingerprint,
    topology_token,
    traffic_from_dict,
)
from .store import (
    SCHEMA_VERSION,
    TOKEN_ENV,
    CacheBackend,
    CacheStats,
    FaultyBackend,
    GCReport,
    InjectedFault,
    LocalDirStore,
    MergeReport,
    ObjectStore,
    ObjectStoreError,
    RemoteAuthError,
    RemoteStore,
    RemoteStoreError,
    ResultCache,
    SqlitePackStore,
    StoreServer,
    default_cache_dir,
    merge_stores,
    open_backend,
)
from .worker import QueueWorker, WorkerStats, default_worker_id

__all__ = [
    "ExperimentSpec",
    "ExperimentEngine",
    "CacheBackend",
    "FaultyBackend",
    "InjectedFault",
    "JobQueue",
    "LocalDirStore",
    "QueueClient",
    "QueueJob",
    "QueueWorker",
    "ObjectStore",
    "ObjectStoreError",
    "SqlitePackStore",
    "RemoteStore",
    "RemoteStoreError",
    "RemoteAuthError",
    "StoreServer",
    "ResultCache",
    "CacheStats",
    "GCReport",
    "MergeReport",
    "RunStats",
    "WorkerStats",
    "SCHEMA_VERSION",
    "SHARD_BALANCE_MODES",
    "SPEC_VERSION",
    "LIVE_SPEC_VERSIONS",
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
    "default_cache_dir",
    "open_backend",
    "merge_stores",
    "build_routing",
    "estimate_campaign_seconds",
    "predicted_cost",
    "resolve_topology",
    "spec_load",
    "topology_fingerprint",
    "topology_token",
    "iter_spec_keys",
    "shard_for_key",
    "shard_specs",
    "build_sweep_specs",
    "build_workload_specs",
    "assemble_curve",
    "default_worker_id",
    "jobs_for_specs",
    "run_sweep",
    "run_compare",
    "workload_compare",
]
