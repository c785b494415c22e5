"""Deterministic fault injection for any store backend: a test double.

:class:`FaultyBackend` wraps a real backend and makes chosen store
operations raise :class:`InjectedFault` (an ``OSError``, so it travels
the same error paths real disk and network failures do).  It is the
process-local sibling of the server-side 503 injector
(:meth:`~repro.engine.store.http.StoreServer.inject_failures` /
``fail_every``): the server knob exercises the *wire* retry loop, this
wrapper exercises everything above it — the engine's write-back-on-
failure guarantee, the worker's release-on-error path, the queue's
quarantine counters — without a network in sight.

Two knobs, mirroring the server's:

* :meth:`fail_next` — the next N matching operations fail (arrange a
  crash at an exact point in a test);
* ``fail_every`` — every Nth matching operation fails (a steady fault
  rate for soak-style tests).

``ops`` restricts which operations count: by default only mutations and
reads (``get``/``put``) are failable, while ``close``/``stats``-style
maintenance passes through, so a test tears down cleanly.
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.engine.store.base import CacheBackend, CacheStats, GCReport
from repro.obs import get_logger

_log = get_logger("store.faulty")

#: Operation names eligible for injection by default.
DEFAULT_FAILABLE_OPS = frozenset(
    {"get_payload", "get_payload_many", "put_payload", "put_payload_many"}
)


class InjectedFault(OSError):
    """A deliberately injected store failure (test infrastructure)."""


class FaultyBackend:
    """A :class:`CacheBackend` that fails on demand, deterministically.

    Args:
        inner: The real backend every successful call delegates to.
        fail_every: Every Nth matching operation raises (0 disables).
        ops: Operation names eligible for injection; defaults to the
            payload get/put family (:data:`DEFAULT_FAILABLE_OPS`).
    """

    def __init__(
        self,
        inner: CacheBackend,
        *,
        fail_every: int = 0,
        ops: Iterable[str] | None = None,
    ):
        self.inner = inner
        self.fail_every = max(0, fail_every)
        self.ops = frozenset(ops) if ops is not None else DEFAULT_FAILABLE_OPS
        self.faults_injected = 0
        self._fail_next = 0
        self._seq = 0
        self._lock = threading.Lock()

    @property
    def location(self) -> str:
        return self.inner.location

    def __repr__(self) -> str:
        return f"FaultyBackend({self.inner!r}, fail_every={self.fail_every})"

    def fail_next(self, count: int = 1) -> None:
        """Make the next ``count`` matching operations raise."""
        with self._lock:
            self._fail_next = max(0, count)

    def _maybe_fail(self, op: str) -> None:
        if op not in self.ops:
            return
        with self._lock:
            fail = False
            if self._fail_next > 0:
                self._fail_next -= 1
                fail = True
            elif self.fail_every > 0:
                self._seq += 1
                if self._seq % self.fail_every == 0:
                    fail = True
            if fail:
                self.faults_injected += 1
                _log.debug("injected fault on %s (#%d)", op, self.faults_injected)
                raise InjectedFault(f"injected fault on {op}")

    # -- delegated protocol -------------------------------------------------

    def get_payload(self, key: str, kind: str) -> dict | None:
        self._maybe_fail("get_payload")
        return self.inner.get_payload(key, kind)

    def get_payload_many(self, keys: Iterable[str], kind: str) -> dict[str, dict]:
        self._maybe_fail("get_payload_many")
        return self.inner.get_payload_many(keys, kind)

    def put_payload(
        self, key: str, kind: str, result: dict, spec: dict | None = None
    ) -> int:
        self._maybe_fail("put_payload")
        return self.inner.put_payload(key, kind, result, spec)

    def put_payload_many(
        self, items: Iterable[tuple[str, str, dict, dict | None]]
    ) -> int:
        self._maybe_fail("put_payload_many")
        return self.inner.put_payload_many(items)

    def size_bytes(self) -> int:
        self._maybe_fail("size_bytes")
        return self.inner.size_bytes()

    def stats(self) -> CacheStats:
        self._maybe_fail("stats")
        return self.inner.stats()

    def gc(
        self,
        max_bytes: int | None = None,
        max_age_days: float | None = None,
        now: float | None = None,
    ) -> GCReport:
        self._maybe_fail("gc")
        return self.inner.gc(max_bytes=max_bytes, max_age_days=max_age_days, now=now)

    def clear(self) -> int:
        self._maybe_fail("clear")
        return self.inner.clear()

    def close(self) -> None:
        self._maybe_fail("close")
        self.inner.close()
