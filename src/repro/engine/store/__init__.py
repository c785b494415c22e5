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
opened as ``<dir>/results.sqlite``.  The protocol carries payloads only
(single and batched reads and writes) plus ``size_bytes``, ``stats``,
``gc``, ``clear`` and ``close``; ``stats`` and ``gc`` scan the store one
bounded page at a time, so a campaign cache can grow past one
process's memory.
"""

from importlib import import_module

from .base import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    MAX_BYTES_ENV,
    SCHEMA_VERSION,
    CacheBackend,
    CacheStats,
    GCReport,
    default_cache_dir,
    encode_entry,
    entry_is_unreachable,
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
    "DEFAULT_PORT",
    "MAX_BYTES_ENV",
    "PROTOCOL_VERSION",
    "SCHEMA_VERSION",
    "TOKEN_ENV",
    "CacheBackend",
    "CacheStats",
    "FaultyBackend",
    "GCReport",
    "InjectedFault",
    "RemoteAuthError",
    "RemoteStore",
    "RemoteStoreError",
    "ResultCache",
    "SqlitePackStore",
    "StoreServer",
    "default_cache_dir",
    "encode_entry",
    "entry_is_unreachable",
    "open_backend",
]
