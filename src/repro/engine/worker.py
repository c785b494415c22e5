"""Elastic queue worker: claim, heartbeat, simulate, write back, repeat.

One :class:`QueueWorker` is one member of a fleet draining a
``repro serve --queue`` coordinator.  Its loop:

1. **Claim** a leased batch (``queue/claim``).  ``empty`` means all
   remaining work is leased elsewhere — poll again; ``drained`` means
   the campaign is finished — exit.
2. **Heartbeat** on a background thread at a third of the lease
   duration while the batch simulates, so a live worker's lease never
   expires mid-batch — and a SIGKILLed worker's lease expires within
   one lease duration, returning its specs to the queue.
3. **Simulate** through an ordinary :class:`ExperimentEngine` whose
   cache *is* the coordinator's store: already-computed specs are cache
   hits (zero re-simulation after lease expiry hand-offs), and results
   stream back through the existing batched ``put_many`` write-back —
   which flushes even when a later spec fails, so partial batches
   survive worker crashes.
4. **Complete** the lease (``queue/complete``): done keys, per-spec
   failures (the coordinator's quarantine counts them; a job that fails
   to decode, to hash to its key or to rebuild its network is a
   ``permanent`` failure), and released keys for anything claimed but
   not attempted.

A batch that fails as a whole is retried spec-by-spec to isolate the
poison: one broken spec costs one failure report, not the batch.

Graceful drain: :meth:`QueueWorker.request_stop` (wired to SIGINT /
SIGTERM by the ``repro work`` CLI) lets the in-flight batch finish,
flushes its write-back, completes the lease, and exits the loop —
nothing is lost and nothing is left leased.  A second signal kills the
process the hard way, which the lease machinery also survives.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field

from ..obs import get_logger
from .queue import QueueClient
from .runner import ExperimentEngine
from .spec import (
    FINGERPRINT_PREFIX,
    ExperimentSpec,
    resolve_topology,
    topology_token,
)
from .store.frontend import ResultCache
from .store.http import RemoteStore, RemoteStoreError

_log = get_logger("worker")

#: Heartbeats fire at this fraction of the lease duration.
HEARTBEAT_FRACTION = 1 / 3

#: Default claim batch size (specs per lease).
DEFAULT_MAX_SPECS = 4

#: Default idle poll interval when the queue is momentarily empty.
DEFAULT_POLL_SECONDS = 2.0


def default_worker_id() -> str:
    """``host-pid``: unique per process, stable for its lifetime, and
    readable in ``queue/status`` output and quarantine reports."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerStats:
    """One worker process's tally, reported by ``repro work --json``."""

    leases: int = 0
    heartbeats: int = 0
    done: int = 0
    failed: int = 0
    released: int = 0
    cache_hits: int = 0
    executed: int = 0
    errors: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "leases": self.leases,
            "heartbeats": self.heartbeats,
            "done": self.done,
            "failed": self.failed,
            "released": self.released,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "errors": list(self.errors),
        }


class _Heartbeat:
    """Background lease keep-alive for the duration of one batch."""

    def __init__(self, client: QueueClient, lease_id: str, interval: float):
        self.client = client
        self.lease_id = lease_id
        self.interval = max(0.2, interval)
        self.sent = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.client.heartbeat(self.lease_id)
                self.sent += 1
            except RemoteStoreError as exc:
                # The coordinator may be restarting; the lease will be
                # re-issued if it expires, and complete() is idempotent.
                _log.debug("heartbeat for %s failed: %s", self.lease_id, exc)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=self.interval + 1.0)


class QueueWorker:
    """The ``python -m repro work`` loop as a reusable object.

    Args:
        url: Coordinator base URL (``http://host:8123``).
        worker_id: Fleet-visible identity; defaults to ``host-pid``.
        max_specs: Specs to claim per lease.
        poll_seconds: Idle wait between claims when the queue is empty.
        max_workers: Process pool size for the simulation fan-out (one
            pool per claimed batch; ``repro work`` passes
            :func:`~repro.engine.default_workers`).
        token: Bearer token (defaults to ``REPRO_CACHE_TOKEN``).
        sleep: Injection point for the idle wait (tests).
    """

    def __init__(
        self,
        url: str,
        *,
        worker_id: str | None = None,
        max_specs: int = DEFAULT_MAX_SPECS,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
        max_workers: int = 1,
        token: str | None = None,
        sleep: float | None = None,
    ):
        self.url = url
        self.worker_id = worker_id or default_worker_id()
        self.max_specs = max(1, max_specs)
        self.poll_seconds = poll_seconds if sleep is None else sleep
        self.max_workers = max_workers
        self.store = RemoteStore(url, token=token)
        self.client = QueueClient(self.store)
        self.stats = WorkerStats()
        self._stop = threading.Event()

    def request_stop(self) -> None:
        """Graceful drain: finish the in-flight batch, then exit."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    # ------------------------------------------------------------------

    def run(self) -> WorkerStats:
        """Drain the queue until it reports ``drained`` (or stop is
        requested); returns the worker's tally."""
        _log.info("worker %s joining %s", self.worker_id, self.url)
        cache = ResultCache(backend=self.store)
        engine = ExperimentEngine(cache=cache, max_workers=self.max_workers)
        while not self.stopping:
            reply = self.client.claim(self.worker_id, self.max_specs)
            state = reply["state"]
            if state == "drained":
                _log.info("queue drained; worker %s exiting", self.worker_id)
                break
            if state == "empty":
                # Everything left is leased elsewhere; if a lease
                # expires, claiming resumes — poll, don't exit.
                self._stop.wait(self.poll_seconds)
                continue
            self._run_lease(engine, reply["lease"])
        self.stats.cache_hits = engine.total_stats.cache_hits
        self.stats.executed = engine.total_stats.executed
        return self.stats

    def _run_lease(self, engine: ExperimentEngine, lease: dict) -> None:
        """Simulate one claimed batch and settle its lease."""
        self.stats.leases += 1
        lease_id = lease["id"]
        interval = float(lease.get("lease_seconds", 60.0)) * HEARTBEAT_FRACTION
        jobs = lease["jobs"]
        _log.info(
            "lease %s: %d specs for worker %s", lease_id, len(jobs), self.worker_id
        )
        done: list[str] = []
        failed: list[dict] = []
        released: list[str] = []
        with _Heartbeat(self.client, lease_id, interval) as beat:
            specs = self._parse_jobs(jobs, lease.get("topologies", {}), failed)
            try:
                if specs:
                    engine.run([spec for _key, spec in specs])
                    done.extend(key for key, _spec in specs)
            except RemoteStoreError:
                raise  # the coordinator is gone; let the loop surface it
            except Exception as exc:
                _log.warning(
                    "lease %s batch failed (%s); isolating per spec",
                    lease_id,
                    exc,
                )
                self._run_specs_individually(engine, specs, done, failed, released)
        self.stats.heartbeats += beat.sent
        self.stats.done += len(done)
        self.stats.failed += len(failed)
        self.stats.released += len(released)
        reply = self.client.complete(
            lease_id, self.worker_id, done=done, failed=failed, released=released
        )
        for key in reply.get("quarantined", []):
            _log.warning("coordinator quarantined %s", key[:12])

    def _parse_jobs(
        self,
        jobs: list[dict],
        symbols: dict[str, str],
        failed: list[dict],
    ) -> list[tuple[str, ExperimentSpec]]:
        """Rebuild specs from a lease's wire form.

        The spec must decode and hash to the job's ``key``: a spec stored
        under its own hash would leave the key the client waits on
        empty.  A fingerprint topology token (``fp:...``) names a catalog
        symbol in the lease's ``{token: symbol}`` map.  The worker
        rebuilds that network, which mints its token here, and checks the
        token is the spec's: a symbol that rebuilds any other network
        would store its result under a key hashed for a different one.
        A job failing any check fails the same way on every host, so it
        is reported here as ``permanent`` and quarantined at once.
        """
        specs: list[tuple[str, ExperimentSpec]] = []
        for job in jobs:
            key = job["key"]
            try:
                spec = ExperimentSpec.from_dict(job["spec"])
                if spec.content_hash() != key:
                    raise ValueError(
                        f"job key {str(key)[:12]} is not the spec's content hash "
                        f"{spec.content_hash()[:12]}"
                    )
                token = spec.topology
                if token.startswith(FINGERPRINT_PREFIX) and token in symbols:
                    symbol = symbols[token]
                    rebuilt = topology_token(resolve_topology(symbol, spec.layout))
                    if rebuilt != token:
                        raise ValueError(
                            f"topology {symbol!r} rebuilds as {rebuilt}, "
                            f"not the spec's {token}"
                        )
                specs.append((key, spec))
            except (KeyError, ValueError, LookupError) as exc:
                failed.append(
                    {
                        "key": key,
                        "error": f"{type(exc).__name__}: {exc}",
                        "permanent": True,
                    }
                )
        return specs

    def _run_specs_individually(
        self,
        engine: ExperimentEngine,
        specs: list[tuple[str, ExperimentSpec]],
        done: list[str],
        failed: list[dict],
        released: list[str],
    ) -> None:
        """Poison isolation: rerun a failed batch one spec at a time.

        Specs that already landed in the cache are free (cache hits);
        the one that breaks is reported individually.  If a graceful
        stop arrives mid-isolation, the untried remainder is released
        instead of attempted.
        """
        for index, (key, spec) in enumerate(specs):
            if self.stopping:
                released.extend(k for k, _s in specs[index:])
                return
            try:
                engine.run([spec])
                done.append(key)
            except RemoteStoreError:
                raise
            except Exception as exc:
                failed.append({"key": key, "error": f"{type(exc).__name__}: {exc}"})
