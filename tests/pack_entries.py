"""Direct access to a SQLite pack's ``entries`` table, for tests.

The store protocol moves payloads only.  Tests that need what lies under
it — an entry's exact bytes, its LRU timestamp, or a planted corrupt or
old-schema row — read and write the table here, over a ``sqlite3``
connection of their own.  For a served store, point it at the pack file
the server fronts.
"""

import json
import sqlite3
import time
from contextlib import closing
from pathlib import Path

from repro.engine.store import encode_entry


class PackEntries:
    """The ``entries`` table of the pack file at ``path``."""

    def __init__(self, path):
        self.path = Path(path)

    def _execute(self, sql: str, params=()) -> list[tuple]:
        with closing(sqlite3.connect(self.path, timeout=30.0)) as conn, conn:
            return conn.execute(sql, params).fetchall()

    def _column(self, column: str, key: str):
        rows = self._execute(f"SELECT {column} FROM entries WHERE key = ?", [key])
        return rows[0][0] if rows else None

    def keys(self) -> list[str]:
        rows = self._execute("SELECT key FROM entries ORDER BY key")
        return [key for (key,) in rows]

    def text(self, key: str) -> str | None:
        """The stored bytes of one entry, or ``None`` if it is absent."""
        return self._column("entry", key)

    def entry(self, key: str) -> dict:
        return json.loads(self.text(key))

    def mtime(self, key: str) -> float | None:
        return self._column("mtime", key)

    def set_mtime(self, key: str, mtime: float) -> None:
        self._execute("UPDATE entries SET mtime = ? WHERE key = ?", [mtime, key])

    def write(self, key: str, entry: dict | str, mtime: float | None = None) -> None:
        """Store ``entry`` under ``key`` as it is: a dict canonically
        encoded, a string verbatim (so it may be corrupt)."""
        text = entry if isinstance(entry, str) else encode_entry(entry)
        kind = "" if isinstance(entry, str) else str(entry.get("kind", ""))
        stamp = time.time() if mtime is None else mtime
        self._execute(
            "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?, ?)",
            [key, kind, text, len(text), stamp],
        )
