"""Pluggable result stores for the experiment engine.

The store package is a small :class:`CacheBackend` protocol plus the two
backends the workflows use — one local, one shared:

* :mod:`~repro.engine.store.base` — the protocol, the canonical entry
  codec, version-reachability rules and location parsing
  (:func:`open_backend`);
* :mod:`~repro.engine.store.sqlite` — :class:`SqlitePackStore`, the
  local store: a single WAL-mode SQLite file, safe for concurrent
  writers on one host, one inode for 10k+ entries;
* :mod:`~repro.engine.store.http` — :class:`RemoteStore`, the shared
  store: the same protocol over a minimal JSON/HTTP wire format against
  a ``python -m repro serve`` endpoint (:class:`StoreServer`), which
  also hosts the work queue that spreads a campaign across hosts;
* :mod:`~repro.engine.store.frontend` — :class:`ResultCache`, the
  engine-facing wrapper adding the SimResult codec, hit counters,
  batched ``get_many``/``put_many``, and the ``REPRO_CACHE_MAX_BYTES``
  auto-GC;
* :mod:`~repro.engine.store.faulty` — :class:`FaultyBackend`, a
  deterministic fault-injection wrapper around any backend (chaos
  tests for the engine's write-back and the queue's retry paths).

The ``http`` and ``faulty`` names are exported lazily: each submodule
is imported the first time one of its names is read from this package.

A location is ``sqlite:FILE`` (a pack file), ``http(s)://HOST:PORT``
(a ``repro serve`` endpoint), or a plain path — a cache directory,
opened as ``<dir>/results.sqlite``.  Iteration over any backend is
**cursored**: ``iter_keys(start_after, limit)`` returns one bounded
sorted page, and the maintenance paths (``stats``/``gc``) stream
pages, so no store
operation ever materializes a full key set — the property that lets a
campaign cache grow past one process's memory.
"""

from importlib import import_module

from .base import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    DEFAULT_KEY_BATCH,
    MAX_BYTES_ENV,
    SCHEME_REGISTRY,
    SCHEMA_VERSION,
    CacheBackend,
    CacheStats,
    GCReport,
    RawEntry,
    default_cache_dir,
    encode_entry,
    entry_is_unreachable,
    iter_all_keys,
    iter_key_pages,
    open_backend,
)
from .frontend import ResultCache
from .sqlite import SqlitePackStore

#: Names served on first access (PEP 562): the remote store pulls in
#: ``urllib.request``, ``ssl`` and ``http.server``, which a run on the
#: local store never needs.  Name -> submodule that defines it.
_LAZY = {
    "DEFAULT_FAILABLE_OPS": ".faulty",
    "FaultyBackend": ".faulty",
    "InjectedFault": ".faulty",
    "DEFAULT_PORT": ".http",
    "PROTOCOL_VERSION": ".http",
    "TOKEN_ENV": ".http",
    "RemoteAuthError": ".http",
    "RemoteStore": ".http",
    "RemoteStoreError": ".http",
    "StoreServer": ".http",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_FAILABLE_OPS",
    "DEFAULT_KEY_BATCH",
    "DEFAULT_PORT",
    "MAX_BYTES_ENV",
    "PROTOCOL_VERSION",
    "SCHEMA_VERSION",
    "SCHEME_REGISTRY",
    "TOKEN_ENV",
    "CacheBackend",
    "CacheStats",
    "FaultyBackend",
    "GCReport",
    "InjectedFault",
    "RawEntry",
    "RemoteAuthError",
    "RemoteStore",
    "RemoteStoreError",
    "ResultCache",
    "SqlitePackStore",
    "StoreServer",
    "default_cache_dir",
    "encode_entry",
    "entry_is_unreachable",
    "iter_all_keys",
    "iter_key_pages",
    "open_backend",
]
