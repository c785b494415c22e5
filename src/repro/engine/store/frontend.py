"""``ResultCache``: the engine-facing face of any :class:`CacheBackend`.

The front end owns everything backends deliberately do not:

* the simulation codec — :meth:`get`/:meth:`put` move
  :class:`~repro.sim.SimResult` objects, backends only see JSON dicts;
* hit/miss accounting for this process (``cache stats`` merges the
  counters into the backend's totals);
* batching — :meth:`get_many`/:meth:`put_many` turn an engine batch
  into one backend round trip instead of per-spec probes;
* auto-GC — with ``REPRO_CACHE_MAX_BYTES`` set (or ``max_bytes`` passed)
  writes that push the store past the threshold trigger the LRU
  :meth:`gc` automatically, logged as one line on the
  ``repro.engine.store`` logger.

``ResultCache(location)`` opens its backend by location — a cache
directory, a ``sqlite:`` pack file, or an ``http://`` server endpoint
(see :func:`~repro.engine.store.base.open_backend`).  Passing a
ready-made backend object wires in anything else that satisfies the
protocol.

The front end relies on — and only on — the backend contract written
down in :mod:`repro.engine.store.base`, and it calls every method of
that protocol: the payload reads and writes, ``size_bytes``,
``stats``, ``gc``, ``clear`` and ``close``.  It batches freely because
``*_many`` calls are plural-not-different, trusts mtime refresh on hits
to keep its LRU ``gc`` meaningful (to a one-hour granularity: a hit on
an entry stamped within the hour leaves the stamp as it is), treats
every ``None`` payload as a recomputable miss, and assumes
``size_bytes`` is cheap enough to call on the write path.  Code in this
module must not depend on any behavior of a particular backend beyond
that contract — it is the part that stays correct whether the backend
is a local SQLite pack or a server on another machine.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Sequence

from ...obs import get_logger
from ...obs.metrics import CACHE_REQUESTS
from ...sim import SimResult
from ..spec import ExperimentSpec, iter_spec_keys
from .base import MAX_BYTES_ENV, CacheBackend, CacheStats, GCReport, open_backend

logger = get_logger("engine.store")

#: Auto-GC evicts below the threshold by this factor (a low watermark),
#: so a store sitting at capacity regains headroom instead of re-running
#: a full gc scan on every subsequent write batch.
AUTO_GC_HEADROOM = 0.9


def _env_max_bytes() -> int | None:
    try:
        value = int(os.environ.get(MAX_BYTES_ENV, ""))
    except ValueError:
        return None
    return value if value > 0 else None


class ResultCache:
    """Content-addressed store for simulation results over any backend.

    Args:
        root: Store location — a cache directory, a ``sqlite:`` pack
            file, or an ``http(s)://`` endpoint; ``None`` reads
            ``REPRO_CACHE_DIR``.  Ignored when ``backend`` is given.
        backend: A ready-made :class:`CacheBackend` to wrap.
        max_bytes: Auto-GC threshold; writes that push the store past it
            run the LRU ``gc`` down to this size.  Defaults to
            ``REPRO_CACHE_MAX_BYTES`` when set.
    """

    def __init__(
        self,
        root: Path | str | None = None,
        *,
        backend: CacheBackend | None = None,
        max_bytes: int | None = None,
    ):
        self.backend = backend if backend is not None else open_backend(root)
        self.hits = 0
        self.misses = 0
        self.max_bytes = max_bytes if max_bytes is not None else _env_max_bytes()
        self._approx_bytes: int | None = None

    @property
    def location(self) -> str:
        """Human-readable store position (path or URL), as the backend
        reports it."""
        return self.backend.location

    def __repr__(self) -> str:
        return f"ResultCache({self.backend!r})"

    # -- keyed payloads -----------------------------------------------------

    def get_payload(self, key: str, kind: str) -> dict | None:
        """Payload stored under ``key`` if present, readable, and current."""
        payload = self.backend.get_payload(key, kind)
        if payload is None:
            self.misses += 1
            CACHE_REQUESTS.labels(outcome="miss").inc()
        else:
            self.hits += 1
            CACHE_REQUESTS.labels(outcome="hit").inc()
        return payload

    def put_payload(
        self, key: str, kind: str, result: dict, spec: dict | None = None
    ) -> int:
        """Atomically write ``result`` under ``key``; returns bytes written."""
        written = self.backend.put_payload(key, kind, result, spec=spec)
        self._after_write(written)
        return written

    # -- simulation results -------------------------------------------------

    def get(self, spec: ExperimentSpec) -> SimResult | None:
        """Cached result for ``spec``, or ``None`` (miss / schema change)."""
        payload = self.get_payload(spec.content_hash(), kind="sim")
        if payload is None:
            return None
        return SimResult.from_dict(payload)

    def get_many(self, specs: Iterable[ExperimentSpec]) -> dict[str, SimResult]:
        """Batch lookup: ``{content_hash: result}`` for the hits, in one
        backend round trip (the engine's cache-first pass)."""
        specs = list(specs)
        by_key = dict(zip(iter_spec_keys(specs), specs))
        found = self.backend.get_payload_many(by_key, kind="sim")
        self.hits += len(found)
        self.misses += len(by_key) - len(found)
        if found:
            CACHE_REQUESTS.labels(outcome="hit").inc(len(found))
        if len(by_key) > len(found):
            CACHE_REQUESTS.labels(outcome="miss").inc(len(by_key) - len(found))
        return {key: SimResult.from_dict(payload) for key, payload in found.items()}

    def put(self, spec: ExperimentSpec, result: SimResult) -> int:
        return self.put_payload(
            spec.content_hash(),
            kind="sim",
            result=result.to_dict(),
            spec=spec.to_dict(),
        )

    def put_many(self, pairs: Sequence[tuple[ExperimentSpec, SimResult]]) -> int:
        """Batch write-back (one transaction / fsync window); returns
        bytes written."""
        if not pairs:
            return 0
        written = self.backend.put_payload_many(
            [
                (spec.content_hash(), "sim", result.to_dict(), spec.to_dict())
                for spec, result in pairs
            ]
        )
        self._after_write(written)
        return written

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> CacheStats:
        """Backend totals merged with this process's hit counters."""
        snapshot = self.backend.stats()
        return CacheStats(
            entries=snapshot.entries,
            size_bytes=snapshot.size_bytes,
            hits=self.hits,
            misses=self.misses,
            reclaimable_entries=snapshot.reclaimable_entries,
            reclaimable_bytes=snapshot.reclaimable_bytes,
        )

    def gc(
        self,
        max_bytes: int | None = None,
        max_age_days: float | None = None,
        now: float | None = None,
    ) -> GCReport:
        """Evict entries, least-recently-used first; returns what happened.

        Unreachable entries (older schema or spec version) always go.
        Then entries untouched for more than ``max_age_days`` go, and
        finally the oldest-mtime survivors are dropped until the store
        fits in ``max_bytes``.  ``gc()`` with no limits removes only the
        unreachable garbage.
        """
        report = self.backend.gc(
            max_bytes=max_bytes, max_age_days=max_age_days, now=now
        )
        self._approx_bytes = report.kept_bytes
        return report

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = self.backend.clear()
        self._approx_bytes = 0
        return removed

    def close(self) -> None:
        self.backend.close()

    # -- auto-GC -------------------------------------------------------------

    def _after_write(self, written: int) -> None:
        """Track approximate store size; run the LRU gc past the threshold.

        The size estimate starts from one real ``stats()`` scan and then
        grows by bytes written, so steady-state puts never rescan the
        store; each gc resyncs the estimate from the report.  Eviction
        goes down to ``AUTO_GC_HEADROOM * max_bytes``, so one gc buys a
        budget's worth of writes before the next can fire.
        """
        if self.max_bytes is None:
            return
        if self._approx_bytes is None:
            # Seed from the cheap size query — no per-entry content scan.
            self._approx_bytes = self.backend.size_bytes()
        else:
            self._approx_bytes += written
        if self._approx_bytes > self.max_bytes:
            report = self.backend.gc(max_bytes=int(self.max_bytes * AUTO_GC_HEADROOM))
            self._approx_bytes = report.kept_bytes
            logger.info(
                "cache auto-gc: store passed %d bytes; removed %d entries "
                "(%d bytes), kept %d (%d bytes)",
                self.max_bytes,
                report.removed_entries,
                report.removed_bytes,
                report.kept_entries,
                report.kept_bytes,
            )
