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

Backends store raw entries and know nothing about simulation results or
hit counting; that is the job of the
:class:`~repro.engine.store.frontend.ResultCache` front end.  Because
every entry is encoded canonically, an entry read through one backend
and written through another (the raw ``get_entry*``/``put_entry*``
calls) keeps its exact bytes.

The backend contract
--------------------

Anything implementing :class:`CacheBackend` — including out-of-process
stores like :class:`~repro.engine.store.http.RemoteStore` — must keep
these guarantees, which the rest of the engine assumes rather than
checks:

* **Canonical bytes.**  Every stored entry is the output of
  :func:`encode_entry` (sorted keys, ``(",", ":")`` separators).
  Payload writes construct the entry dict themselves and *must* encode
  it with this function; :meth:`CacheBackend.put_entry` stores the
  caller's dict verbatim (re-encoded, never re-ordered or annotated).
  This is what makes cross-backend copies byte-identical and lets
  :func:`entry_is_unreachable` test version markers on raw text.
* **mtimes are the LRU clock.**  Each entry carries one last-use
  timestamp.  ``get_payload``/``get_payload_many`` refresh it on a hit
  ("touch on read") when it is more than one hour old
  (:data:`~repro.engine.store.sqlite.TOUCH_GRANULARITY_S`, the
  ``relatime`` rule), so a warm replay of fresh entries writes
  nothing; ``put_payload*`` stamps "now"; ``put_entry*``
  *preserves* a supplied ``mtime`` (so a copied entry keeps its
  eviction order) and only defaults to "now" when none is given.
  ``gc`` evicts strictly in mtime order, so recency is exact to within
  that hour.
* **Misses are silent, never errors.**  A missing, unreadable, corrupt,
  wrong-``kind``, or wrong-schema entry makes ``get_payload`` return
  ``None`` (the engine recomputes and overwrites); raw ``get_entry``
  skips undecodable entries.  Backends raise only for infrastructure
  failures (e.g. an unreachable server), not for content.
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
* **``iter_keys`` is a cursor, not a dump.**  One call returns one
  *sorted page* of keys strictly greater than ``start_after``, at most
  ``limit`` of them (:data:`DEFAULT_KEY_BATCH` when ``limit`` is
  ``None`` — a page is always bounded; nothing may materialize the
  whole key set).  Passing the last key of a page as the next call's
  ``start_after`` resumes exactly where it left off, so iteration is
  restartable across processes and survives pagination-sized stores.
  Keyset semantics under concurrent writers: a key is never skipped or
  re-served once the cursor has passed it; keys written behind an
  in-flight cursor may be missed by that sweep (they are found by the
  next one).  :func:`iter_all_keys` / :func:`iter_key_pages` wrap the
  paging loop for callers that want a lazy stream.  Maintenance paths
  (``stats``/``gc``) must stream over cursors — per-page content in
  memory, never the whole store; the SQLite pack pages natively over
  its primary-key index.
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
from typing import Callable, Iterable, Iterator, Protocol, runtime_checkable

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

#: Default page size for cursored ``iter_keys`` calls: one page per
#: backend round trip, small enough that no maintenance pass ever holds
#: more than a few hundred keys (the acceptance bound is 512).
DEFAULT_KEY_BATCH = 500


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


@dataclass(frozen=True)
class RawEntry:
    """One raw store entry: the decoded entry dict plus its last-use
    timestamp (so a copy preserves LRU order)."""

    key: str
    entry: dict
    mtime: float

    def encoded(self) -> str:
        return encode_entry(self.entry)


@runtime_checkable
class CacheBackend(Protocol):
    """What a result store must provide to back a ``ResultCache``.

    ``get_payload``/``put_payload`` move schema-checked payloads for one
    ``kind``; ``get_entry``/``put_entry`` move raw entries with their
    mtimes; ``iter_keys``/``stats``/``gc`` support
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

    def iter_keys(
        self, start_after: str | None = None, limit: int | None = None
    ) -> list[str]:
        """One sorted page of entry keys strictly after ``start_after``.

        At most ``limit`` keys (:data:`DEFAULT_KEY_BATCH` when
        ``None`` — a page is always bounded).  Resume by passing the
        last key of a page as the next call's ``start_after``; a short
        page means the key space is exhausted.  See the cursor bullet
        of the backend contract for semantics under concurrent writers.
        """
        ...

    def get_entry(self, key: str) -> RawEntry | None:
        """Raw entry for ``key`` (no schema check, no LRU touch)."""
        ...

    def get_entry_many(self, keys: Iterable[str]) -> dict[str, RawEntry]:
        """Batch form of :meth:`get_entry`: one backend round trip,
        returning ``{key: entry}`` for the keys that exist."""
        ...

    def put_entry(self, key: str, entry: dict, mtime: float | None = None) -> int:
        """Store a raw entry verbatim (optionally backdating its LRU
        timestamp); returns bytes written."""
        ...

    def put_entry_many(self, entries: Iterable[RawEntry]) -> int:
        """Batch form of :meth:`put_entry`, preserving each entry's
        mtime (one transaction); returns total bytes written."""
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


def iter_key_pages(
    backend: CacheBackend,
    *,
    batch: int = DEFAULT_KEY_BATCH,
    start_after: str | None = None,
) -> Iterator[list[str]]:
    """Stream ``backend``'s key space as sorted pages of ≤ ``batch`` keys.

    The cursored-iteration loop every maintenance path shares: each page
    is one ``iter_keys`` call, resumed from the previous page's last
    key, so memory is bounded by one page regardless of store size.
    """
    cursor = start_after
    while True:
        page = list(backend.iter_keys(start_after=cursor, limit=batch))
        if not page:
            return
        yield page
        if len(page) < batch:
            return
        cursor = page[-1]


def iter_all_keys(
    backend: CacheBackend,
    *,
    batch: int = DEFAULT_KEY_BATCH,
    start_after: str | None = None,
) -> Iterator[str]:
    """Every key of ``backend`` in sorted order, lazily, one bounded
    page per backend round trip (the flat form of :func:`iter_key_pages`)."""
    for page in iter_key_pages(backend, batch=batch, start_after=start_after):
        yield from page


def _open_sqlite_scheme(text: str, rest: str) -> CacheBackend:
    from .sqlite import SqlitePackStore

    return SqlitePackStore(rest)


def _open_remote_scheme(text: str, rest: str) -> CacheBackend:
    from .http import RemoteStore

    return RemoteStore(text)


#: Location-scheme registry: ``<scheme>:`` prefix -> opener taking
#: ``(full_location_text, text_after_colon)``.  A location without one
#: of these prefixes is a plain cache-directory path.
SCHEME_REGISTRY: dict[str, Callable[[str, str], CacheBackend]] = {
    "sqlite": _open_sqlite_scheme,
    "http": _open_remote_scheme,
    "https": _open_remote_scheme,
}

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
    if sep and scheme.lower() in SCHEME_REGISTRY:
        return SCHEME_REGISTRY[scheme.lower()](text, rest)
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

