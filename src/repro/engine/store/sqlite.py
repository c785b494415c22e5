"""Single-file SQLite pack store: the engine's one local backend.

One ``entries`` table holds every content-addressed entry as its
canonical JSON text (the bytes :func:`~repro.engine.store.base.encode_entry`
produces), plus the byte count and an explicit LRU timestamp::

    entries(key TEXT PRIMARY KEY, kind TEXT, entry TEXT,
            nbytes INTEGER, mtime REAL)

The database runs in WAL mode with a generous busy timeout, so several
engines on one host can write the same pack concurrently —
writers of the same key race to store identical canonical bytes, so
last-writer-wins is always correct.  A 10k+ entry campaign costs one
inode, and the batch operations (:meth:`get_payload_many` /
:meth:`put_payload_many`) collapse a whole engine batch into one
indexed query / one transaction.

A plain cache directory (the default ``.repro_cache/``) is one pack
named ``results.sqlite`` inside it.  To share a pack with other hosts,
serve it in place: ``python -m repro serve --store sqlite:FILE``.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Iterable

from ...obs import store_op
from .base import (
    DEFAULT_KEY_BATCH,
    SCHEMA_VERSION,
    CacheStats,
    GCReport,
    RawEntry,
    chunked,
    encode_entry,
    entry_is_unreachable,
)

#: Metrics label for this backend (``repro_store_*{backend="sqlite"}``).
#: The batch methods are the funnels here — the singular forms delegate
#: to them.
_BACKEND = "sqlite"

#: A hit refreshes an entry's mtime only when the stamp is older than
#: this many seconds (the ``relatime`` rule).  LRU order is kept to
#: within this granularity, and a batch whose hits are all fresh reads
#: without opening a write transaction.
TOUCH_GRANULARITY_S = 3600.0

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS entries (
    key    TEXT PRIMARY KEY,
    kind   TEXT NOT NULL,
    entry  TEXT NOT NULL,
    nbytes INTEGER NOT NULL,
    mtime  REAL NOT NULL
)
"""


class SqlitePackStore:
    """Content-addressed JSON store packed into one SQLite file."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._conn: sqlite3.Connection | None = None

    @property
    def location(self) -> str:
        return str(self.path)

    def __repr__(self) -> str:
        return f"SqlitePackStore({str(self.path)!r})"

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # check_same_thread=False: `repro serve` handles requests on
            # ThreadingHTTPServer worker threads but serializes every
            # store call behind one lock, which is the sharing discipline
            # sqlite3 requires of a cross-thread connection.
            conn = sqlite3.connect(self.path, timeout=30.0, check_same_thread=False)
            # Must precede table creation to take effect on a new file;
            # lets gc hand freed pages back without a full VACUUM (which
            # needs exclusive access and would block concurrent
            # writers — see incremental_vacuum in _reclaim_pages).
            conn.execute("PRAGMA auto_vacuum=INCREMENTAL")
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(_SCHEMA_SQL)
            # LRU eviction walks entries oldest-first; without this index
            # each gc pass-2 page would sort the whole table.
            conn.execute(
                "CREATE INDEX IF NOT EXISTS entries_mtime ON entries (mtime, key)"
            )
            conn.commit()
            self._conn = conn
        return self._conn

    def _reclaim_pages(self, conn: sqlite3.Connection) -> None:
        """Give deleted entries' pages back to the filesystem.

        ``PRAGMA incremental_vacuum`` frees pages inside an ordinary
        write transaction (WAL-safe, no exclusive lock), so auto-GC can
        run while other writers hold the pack open; on packs
        created without ``auto_vacuum`` it is a harmless no-op and the
        pages are simply reused by later inserts.
        """
        conn.execute("PRAGMA incremental_vacuum")
        conn.commit()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- payloads -----------------------------------------------------------

    @staticmethod
    def _check(text: str, kind: str) -> dict | None:
        """Decode + schema-check one entry text; ``None`` is a miss."""
        try:
            entry = json.loads(text)
        except ValueError:
            return None
        result = entry.get("result")
        if (
            entry.get("schema") != SCHEMA_VERSION
            or entry.get("kind") != kind
            or result is None
        ):
            return None
        return result

    def get_payload(self, key: str, kind: str) -> dict | None:
        found = self.get_payload_many([key], kind)
        return found.get(key)

    def get_payload_many(self, keys: Iterable[str], kind: str) -> dict[str, dict]:
        wanted = list(dict.fromkeys(keys))
        if not wanted:
            return {}
        with store_op(_BACKEND, "get") as op:
            conn = self._connect()
            found: dict[str, dict] = {}
            now = time.time()
            stale_before = now - TOUCH_GRANULARITY_S
            stale: list[str] = []
            for chunk in chunked(wanted):
                marks = ",".join("?" * len(chunk))
                query = (
                    f"SELECT key, entry, mtime FROM entries WHERE key IN ({marks})"
                )
                for key, text, mtime in conn.execute(query, chunk):
                    payload = self._check(text, kind)
                    if payload is not None:
                        found[key] = payload
                        op.add_bytes(len(text))
                        if mtime < stale_before:
                            stale.append(key)
            if stale:
                # Touch on read: mtime order is the LRU order gc()
                # evicts in.
                for chunk in chunked(stale):
                    marks = ",".join("?" * len(chunk))
                    conn.execute(
                        f"UPDATE entries SET mtime = ? WHERE key IN ({marks})",
                        [now, *chunk],
                    )
                conn.commit()
            return found

    def put_payload(
        self, key: str, kind: str, result: dict, spec: dict | None = None
    ) -> int:
        return self.put_payload_many([(key, kind, result, spec)])

    def put_payload_many(
        self, items: Iterable[tuple[str, str, dict, dict | None]]
    ) -> int:
        with store_op(_BACKEND, "put") as op:
            rows = []
            now = time.time()
            written = 0
            for key, kind, result, spec in items:
                entry = {"schema": SCHEMA_VERSION, "kind": kind, "result": result}
                if spec is not None:
                    entry["spec"] = spec
                blob = encode_entry(entry)
                written += len(blob)
                rows.append((key, kind, blob, len(blob), now))
            if rows:
                conn = self._connect()
                conn.executemany(
                    "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?, ?)", rows
                )
                conn.commit()
            op.add_bytes(written)
            return written

    # -- raw entries --------------------------------------------------------

    def get_entry(self, key: str) -> RawEntry | None:
        return self.get_entry_many([key]).get(key)

    def get_entry_many(self, keys: Iterable[str]) -> dict[str, RawEntry]:
        wanted = list(dict.fromkeys(keys))
        found: dict[str, RawEntry] = {}
        if not wanted:
            return found
        with store_op(_BACKEND, "get_entry") as op:
            conn = self._connect()
            for chunk in chunked(wanted):
                marks = ",".join("?" * len(chunk))
                query = (
                    f"SELECT key, entry, mtime FROM entries WHERE key IN ({marks})"
                )
                for key, text, mtime in conn.execute(query, chunk):
                    try:
                        entry = json.loads(text)
                    except ValueError:
                        continue
                    if isinstance(entry, dict):
                        found[key] = RawEntry(key=key, entry=entry, mtime=mtime)
                        op.add_bytes(len(text))
            return found

    def put_entry(self, key: str, entry: dict, mtime: float | None = None) -> int:
        raw = RawEntry(
            key=key, entry=entry, mtime=time.time() if mtime is None else mtime
        )
        return self.put_entry_many([raw])

    def put_entry_many(self, entries: Iterable[RawEntry]) -> int:
        with store_op(_BACKEND, "put_entry") as op:
            rows = []
            written = 0
            for raw in entries:
                blob = encode_entry(raw.entry)
                written += len(blob)
                kind = str(raw.entry.get("kind", ""))
                rows.append((raw.key, kind, blob, len(blob), raw.mtime))
            if rows:
                conn = self._connect()
                conn.executemany(
                    "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?, ?)", rows
                )
                conn.commit()
            op.add_bytes(written)
            return written

    # -- maintenance --------------------------------------------------------

    def iter_keys(
        self, start_after: str | None = None, limit: int | None = None
    ) -> list[str]:
        page = DEFAULT_KEY_BATCH if limit is None else max(0, int(limit))
        if page == 0:
            return []
        conn = self._connect()
        # Keyset pagination: the primary-key index serves each page in
        # O(log n + page) without ever materializing the full key set.
        rows = conn.execute(
            "SELECT key FROM entries WHERE key > ? ORDER BY key LIMIT ?",
            ("" if start_after is None else start_after, page),
        ).fetchall()
        return [key for (key,) in rows]

    def size_bytes(self) -> int:
        conn = self._connect()
        query = "SELECT COALESCE(SUM(nbytes), 0) FROM entries"
        (size,) = conn.execute(query).fetchone()
        return size

    def stats(self) -> CacheStats:
        conn = self._connect()
        totals = "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) FROM entries"
        entries, size = conn.execute(totals).fetchone()
        reclaimable_entries = 0
        reclaimable_bytes = 0
        cursor = ""
        while True:
            rows = conn.execute(
                "SELECT key, entry, nbytes FROM entries WHERE key > ?"
                " ORDER BY key LIMIT ?",
                (cursor, DEFAULT_KEY_BATCH),
            ).fetchall()
            if not rows:
                break
            for _, text, nbytes in rows:
                if entry_is_unreachable(text):
                    reclaimable_entries += 1
                    reclaimable_bytes += nbytes
            cursor = rows[-1][0]
            if len(rows) < DEFAULT_KEY_BATCH:
                break
        return CacheStats(
            entries=entries,
            size_bytes=size,
            hits=0,
            misses=0,
            reclaimable_entries=reclaimable_entries,
            reclaimable_bytes=reclaimable_bytes,
        )

    def gc(
        self,
        max_bytes: int | None = None,
        max_age_days: float | None = None,
        now: float | None = None,
    ) -> GCReport:
        # The one place both `cache gc` and the served `POST /gc` reach;
        # a negative limit would evict every entry.
        for name, limit in (("max_bytes", max_bytes), ("max_age_days", max_age_days)):
            if limit is None:
                continue
            if isinstance(limit, bool) or not isinstance(limit, (int, float)):
                raise ValueError(f"{name} must be a number, got {limit!r}")
            if not limit >= 0:
                raise ValueError(f"{name} must be >= 0, got {limit!r}")
        with store_op(_BACKEND, "gc"):
            return self._gc(max_bytes=max_bytes, max_age_days=max_age_days, now=now)

    def _gc(
        self,
        max_bytes: int | None = None,
        max_age_days: float | None = None,
        now: float | None = None,
    ) -> GCReport:
        now = time.time() if now is None else now
        conn = self._connect()
        removed_entries = 0
        removed_bytes = 0
        scanned = 0
        # Pass 1: reachability + age, one keyset page at a time.  Doomed
        # keys are deleted per page, so memory stays bounded by the page
        # size no matter how large the pack is (deletions behind the
        # cursor never disturb keyset resumption).
        cursor = ""
        while True:
            rows = conn.execute(
                "SELECT key, entry, nbytes, mtime FROM entries WHERE key > ?"
                " ORDER BY key LIMIT ?",
                (cursor, DEFAULT_KEY_BATCH),
            ).fetchall()
            if not rows:
                break
            scanned += len(rows)
            doomed: list[str] = []
            for key, text, nbytes, mtime in rows:
                stale = (
                    max_age_days is not None and now - mtime > max_age_days * 86400.0
                )
                if stale or entry_is_unreachable(text):
                    doomed.append(key)
                    removed_bytes += nbytes
            if doomed:
                removed_entries += len(doomed)
                marks = ",".join("?" * len(doomed))
                conn.execute(f"DELETE FROM entries WHERE key IN ({marks})", doomed)
                conn.commit()
            cursor = rows[-1][0]
            if len(rows) < DEFAULT_KEY_BATCH:
                break
        # Pass 2: LRU eviction down to the byte budget.  The (mtime, key)
        # index hands back the oldest survivors page by page; no
        # whole-table sort, no whole-table list.
        if max_bytes is not None:
            (total,) = conn.execute(
                "SELECT COALESCE(SUM(nbytes), 0) FROM entries"
            ).fetchone()
            while total > max_bytes:
                rows = conn.execute(
                    "SELECT key, nbytes FROM entries ORDER BY mtime, key LIMIT ?",
                    (DEFAULT_KEY_BATCH,),
                ).fetchall()
                if not rows:
                    break
                doomed = []
                for key, nbytes in rows:
                    if total <= max_bytes:
                        break
                    doomed.append(key)
                    total -= nbytes
                    removed_bytes += nbytes
                if doomed:
                    removed_entries += len(doomed)
                    marks = ",".join("?" * len(doomed))
                    conn.execute(f"DELETE FROM entries WHERE key IN ({marks})", doomed)
                    conn.commit()
        if removed_entries:
            self._reclaim_pages(conn)
        kept_entries, kept_bytes = conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) FROM entries"
        ).fetchone()
        return GCReport(
            scanned_entries=scanned,
            removed_entries=removed_entries,
            removed_bytes=removed_bytes,
            kept_entries=kept_entries,
            kept_bytes=kept_bytes,
        )

    def clear(self) -> int:
        with store_op(_BACKEND, "clear"):
            conn = self._connect()
            (count,) = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
            conn.execute("DELETE FROM entries")
            conn.commit()
            self._reclaim_pages(conn)
            return count
