"""Backend-neutral pieces of the result store: protocol, codec, reports.

A :class:`CacheBackend` is anything that can hold content-addressed JSON
*entries* — ``{"schema": 1, "kind": ..., "result": ..., ["spec": ...]}``
— keyed by a spec content hash.  Two implementations ship with the
engine: :class:`~repro.engine.store.sqlite.SqlitePackStore` (a single
SQLite file in WAL mode, the one local store) and
:class:`~repro.engine.store.http.RemoteStore` (a client for a ``repro
serve`` endpoint, the one shared store).  Everything that gives the
cache its semantics — the canonical entry encoding, the
schema/spec-version reachability rules, LRU-by-mtime eviction — lives
here so the backends cannot drift apart.

Backends move JSON payloads and know nothing about simulation results
or hit counting; that is the job of the
:class:`~repro.engine.store.frontend.ResultCache` front end.  The
protocol is exactly what the engine, the work queue and the ``cache``
commands call: single and batched payload reads and writes,
``size_bytes``, ``stats``, ``gc``, ``clear`` and ``close``.

The backend contract
--------------------

Anything implementing :class:`CacheBackend` — including out-of-process
stores like :class:`~repro.engine.store.http.RemoteStore` — must keep
these guarantees, which the rest of the engine assumes rather than
checks:

* **Canonical bytes.**  Every stored entry is the output of
  :func:`encode_entry` (sorted keys, ``(",", ":")`` separators).
  Payload writes construct the entry dict themselves and *must* encode
  it with this function.  This is what makes the same campaign
  byte-identical in every backend and lets
  :func:`entry_is_unreachable` test version markers on raw text.
* **mtimes are the LRU clock.**  Each entry carries one last-use
  timestamp.  ``get_payload``/``get_payload_many`` refresh it on a hit
  ("touch on read") when it is more than one hour old
  (:data:`~repro.engine.store.sqlite.TOUCH_GRANULARITY_S`, the
  ``relatime`` rule), so a warm replay of fresh entries writes
  nothing; ``put_payload*`` stamps "now".  ``gc`` evicts strictly in
  mtime order, so recency is exact to within that hour.
* **Misses are silent, never errors.**  A missing, unreadable, corrupt,
  wrong-``kind``, or wrong-schema entry makes ``get_payload`` return
  ``None`` (the engine recomputes and overwrites).  Backends raise
  only for infrastructure failures (e.g. an unreachable server), not
  for content.
* **Concurrent writers, last-writer-wins.**  Several engines or queue
  workers may write the same store at once.  Writers of the same key
  are racing to store *identical canonical bytes* (keys are content
  addresses), so last-writer-wins — an ``INSERT OR REPLACE``, one
  server-side lock — is always correct.
* **Batch calls are plural, not different.**  ``*_many`` methods must
  be observably equivalent to a loop over their singular forms —
  missing keys are simply absent from the result dict (never ``None``
  placeholders), duplicates are allowed in the request — but should
  collapse the work into one round trip / transaction / fsync window.
  Callers bound request sizes with :func:`chunked`, so a backend may
  assume batches of at most a few hundred items.
* **Maintenance streams.**  ``stats`` and ``gc`` hold one bounded page
  of entries in memory at a time, never the whole store; the SQLite
  pack pages over its primary-key and ``(mtime, key)`` indexes.
* **``stats`` counters stay zero.**  ``hits``/``misses`` belong to the
  :class:`~repro.engine.store.frontend.ResultCache` front end; backends
  report entry/byte totals only.  ``size_bytes`` must be cheap (no
  per-entry content scan) — the auto-GC estimate calls it on the write
  path.

Backends are selected by :func:`open_backend`: ``sqlite:FILE`` is a
pack file, an ``http(s)://`` URL is a ``repro serve`` endpoint, and a
plain path is a cache directory holding ``results.sqlite``.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Protocol, runtime_checkable

#: Bump when the encoded layout of cache entries changes; mismatched
#: entries are ignored (recomputed and overwritten), never misread.
SCHEMA_VERSION = 1

#: Default cache location, overridable via the environment.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro_cache"

#: The pack file a plain-path cache directory holds.
CACHE_PACK_NAME = "results.sqlite"

#: When set, :class:`~repro.engine.store.frontend.ResultCache` runs the
#: LRU ``gc`` automatically once writes push the store past this size.
MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"


def default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


def encode_entry(entry: dict) -> str:
    """Canonical, byte-deterministic JSON encoding of one entry.

    Every writer uses this encoder, so the same spec always produces
    byte-identical entries — across processes, hosts, and backends.
    """
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


def chunked(seq: list, size: int = 500) -> Iterator[list]:
    """Split ``seq`` for batched backend calls (SQLite's default bound
    variable limit is 999; stay well under it)."""
    for start in range(0, len(seq), size):
        yield seq[start : start + size]


def entry_is_unreachable(
    text: str, spec_versions: Iterable[int] | None = None
) -> bool:
    """True when no current lookup key can ever hit this entry.

    Entries are written by :func:`encode_entry` with a canonical
    encoding (sorted keys, ``(",", ":")`` separators), so the version
    markers appear as exact byte sequences — membership tests on the
    raw text replace a full JSON parse of every result payload.
    Anything not written by that encoder fails the check and counts as
    unreachable, which matches ``get_payload`` treating it as a
    permanent miss.

    Several spec versions can be live at once: serialization writes each
    spec's *minimum required* version, so a version-3-shaped spec keeps
    its version-3 bytes (and key) under the current code.  An entry is
    unreachable only when its embedded spec matches none of
    :data:`~repro.engine.spec.LIVE_SPEC_VERSIONS`.
    """
    if spec_versions is None:
        from ..spec import LIVE_SPEC_VERSIONS

        spec_versions = LIVE_SPEC_VERSIONS

    def has(marker: str) -> bool:  # value followed by , or } (not "1" in "12")
        return marker + "," in text or marker + "}" in text

    if not has(f'"schema":{SCHEMA_VERSION}'):
        return True
    if '"spec":{' in text and not any(
        has(f'"spec_version":{version}') for version in spec_versions
    ):
        return True
    return False


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of a result store plus this process's hit counters.

    ``reclaimable_entries``/``reclaimable_bytes`` count *unreachable*
    entries: ones written under an older cache schema or an older spec
    version, which no current lookup key can ever hit.  ``cache gc``
    removes them unconditionally.
    """

    entries: int
    size_bytes: int
    hits: int
    misses: int
    reclaimable_entries: int = 0
    reclaimable_bytes: int = 0

    @property
    def size_mb(self) -> float:
        return self.size_bytes / 1e6


@dataclass(frozen=True)
class GCReport:
    """Outcome of one :meth:`CacheBackend.gc` pass."""

    scanned_entries: int
    removed_entries: int
    removed_bytes: int
    kept_entries: int
    kept_bytes: int


@runtime_checkable
class CacheBackend(Protocol):
    """What a result store must provide to back a ``ResultCache``.

    ``get_payload``/``put_payload`` move schema-checked payloads for one
    ``kind``; ``size_bytes``/``stats``/``gc``/``clear`` support
    maintenance.  Implementations must be safe for concurrent writers
    on one host: last-writer-wins on identical canonical bytes.
    """

    @property
    def location(self) -> str:
        """Human-readable position of the store (path or URL)."""
        ...

    def get_payload(self, key: str, kind: str) -> dict | None:
        """Payload under ``key`` if present, readable, and current;
        refreshes the entry's LRU position on a hit."""
        ...

    def get_payload_many(self, keys: Iterable[str], kind: str) -> dict[str, dict]:
        """Batch form of :meth:`get_payload`: one backend round trip,
        returning ``{key: payload}`` for the hits only."""
        ...

    def put_payload(
        self, key: str, kind: str, result: dict, spec: dict | None = None
    ) -> int:
        """Atomically store ``result`` under ``key``; returns bytes written."""
        ...

    def put_payload_many(
        self, items: Iterable[tuple[str, str, dict, dict | None]]
    ) -> int:
        """Batch form of :meth:`put_payload` (one transaction / fsync
        window); returns total bytes written."""
        ...

    def size_bytes(self) -> int:
        """Total stored bytes — cheap (no per-entry content scan), for
        the auto-GC size estimate."""
        ...

    def stats(self) -> CacheStats:
        """Entry/byte totals; ``hits``/``misses`` are always 0 (the
        front end owns the counters)."""
        ...

    def gc(
        self,
        max_bytes: int | None = None,
        max_age_days: float | None = None,
        now: float | None = None,
    ) -> GCReport:
        """Evict entries, least-recently-used first (see ``ResultCache.gc``)."""
        ...

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        ...

    def close(self) -> None:
        """Release any handles (idempotent)."""
        ...


#: A ``word:`` prefix that reads as a URL scheme.  Two characters at
#: least, so a Windows drive letter (``C:``) stays a plain path.
_SCHEME_LIKE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]+")

_LOCATION_FORMS = (
    "accepted forms: sqlite:FILE (a pack file), http(s)://HOST:PORT "
    "(a 'repro serve' endpoint), or a plain cache-directory path"
)


def open_backend(location: str | os.PathLike | None = None) -> CacheBackend:
    """Open the store at ``location``.

    * ``sqlite:<file>`` — a SQLite pack (:class:`SqlitePackStore`);
    * ``http://`` / ``https://`` URLs — a
      :class:`~repro.engine.store.http.RemoteStore` client against a
      ``python -m repro serve`` endpoint (bearer token from
      ``REPRO_CACHE_TOKEN``);
    * a plain path — a cache directory, opened as the pack
      ``<dir>/results.sqlite``.

    Any other ``word:`` prefix is rejected rather than read as a
    directory name, and so is a plain path naming an existing file (a
    pack file needs the ``sqlite:`` prefix).  ``None`` falls back to
    ``REPRO_CACHE_DIR`` / ``.repro_cache``.
    """
    from .sqlite import SqlitePackStore

    text = os.fspath(default_cache_dir() if location is None else location)
    scheme, sep, rest = text.partition(":")
    if sep and scheme.lower() == "sqlite":
        return SqlitePackStore(rest)
    if sep and scheme.lower() in ("http", "https"):
        from .http import RemoteStore

        return RemoteStore(text)
    if sep and _SCHEME_LIKE.fullmatch(scheme):
        raise ValueError(
            f"unknown store scheme {scheme + ':'!r} in {text!r}; {_LOCATION_FORMS}"
        )
    path = Path(text)
    if path.is_file():
        raise ValueError(
            f"{text!r} is a file, not a cache directory; open a pack file "
            f"as 'sqlite:{text}'"
        )
    return SqlitePackStore(path / CACHE_PACK_NAME)

