"""Fault-tolerant campaign work queue: leases, heartbeats, quarantine.

The queue is the one way to spread a campaign across hosts.  A
campaign is *submitted* once (heaviest specs first, by predicted cost)
to the ``repro serve --queue`` coordinator — ``sweep``, ``compare`` and
``workloads`` all take ``--queue URL`` — and an elastic fleet of
``python -m repro work http://coordinator`` processes drains it.  No
host owns a fixed slice, so a crashed host strands nothing, a slow host
gates nothing, and a late-joining machine finds work to claim.
Workers may join, leave, crash, or be SIGKILLed at any point:

* **Leases.**  :meth:`JobQueue.claim` hands a worker a batch of specs
  under a lease with a deadline.  :meth:`JobQueue.heartbeat` extends the
  deadline while the worker simulates; a lease whose deadline passes is
  *expired* — its unfinished specs return to the pending queue (counted
  in ``repro_queue_requeued_total{reason="expired"}``) for any other
  worker to claim.  Expiry is checked lazily at the top of every queue
  operation, so no background timer is needed: the next claim,
  heartbeat, or status poll sweeps the dead.
* **Zero re-simulation.**  Results flow through the ordinary cache
  protocol (workers run an :class:`~repro.engine.runner.ExperimentEngine`
  whose cache *is* the coordinator's store), so a spec that was already
  simulated — by a previous campaign, a killed worker that managed to
  flush its write-back, or a duplicate lease after an expiry — is a
  cache hit, never a second simulation.  Submission marks already-cached
  specs done immediately.
* **Quarantine.**  A spec that fails ``quarantine_workers`` *distinct*
  workers (or ``max_attempts`` total attempts, so a one-worker fleet
  still terminates) is parked and reported in ``queue/status`` instead
  of being retried forever — one poison spec cannot wedge the campaign.
  A failure the worker reports as ``permanent`` (the job fails to
  decode, to hash to its key or to rebuild its network) parks it at
  once.
* **Coordinator restart.**  Queue state (jobs, completions, quarantine,
  the topology map) is persisted *through the backing store* as an
  ordinary entry under :data:`QUEUE_STATE_KEY`; ``repro serve --queue``
  rebuilds it on startup, re-checks the store for results that landed
  after the last persist, and returns in-flight leases (which are
  deliberately volatile) to the pending queue.

The wire protocol (``queue/submit`` … ``queue/status``) lives in
:mod:`repro.engine.store.http`; :class:`QueueClient` is the client half,
and :mod:`repro.engine.worker` builds the worker loop on top of it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from ..obs import get_logger
from ..obs.metrics import (
    QUEUE_COMPLETED,
    QUEUE_DEPTH,
    QUEUE_HEARTBEATS,
    QUEUE_LEASES,
    QUEUE_QUARANTINED,
    QUEUE_REQUEUED,
    QUEUE_SUBMITTED,
)
from .store.base import CacheBackend, chunked

if TYPE_CHECKING:
    from .store.http import RemoteStore

_log = get_logger("queue")

#: Reserved backend key holding the serialized queue state.  It rides
#: the same store as the results, so coordinator restarts — and even
#: moving the pack file to another host — carry the campaign along.
QUEUE_STATE_KEY = "queue:state"

#: Entry ``kind`` of the persisted state (never collides with ``sim``).
QUEUE_KIND = "queue"

#: Bump when the persisted state layout changes incompatibly; stale
#: state is discarded (the store's cached results make that lossless
#: for completions — pending work is resubmitted by the campaign).
QUEUE_STATE_VERSION = 1

#: Default lease duration.  Workers heartbeat at a third of this, so a
#: SIGKILLed worker's specs are back in the queue within one lease.
DEFAULT_LEASE_SECONDS = 60.0

#: A spec that fails this many *distinct* workers is quarantined.
DEFAULT_QUARANTINE_WORKERS = 2

#: Attempt cap so a single-worker fleet also terminates on poison.
DEFAULT_MAX_ATTEMPTS = 5


@dataclass
class QueueJob:
    """One spec in the queue: its wire form plus failure bookkeeping."""

    key: str
    spec: dict
    cost: float = 0.0
    attempts: int = 0
    failed_workers: list[str] = field(default_factory=list)
    last_error: str | None = None

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "spec": self.spec,
            "cost": self.cost,
            "attempts": self.attempts,
            "failed_workers": list(self.failed_workers),
            "last_error": self.last_error,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QueueJob":
        if type(payload["key"]) is not str:
            raise ValueError(f"job key must be a string, got {payload['key']!r}")
        return cls(
            key=payload["key"],
            spec=payload["spec"],
            cost=payload.get("cost", 0.0),
            attempts=payload.get("attempts", 0),
            failed_workers=list(payload.get("failed_workers", [])),
            last_error=payload.get("last_error"),
        )


@dataclass
class Lease:
    """One worker's claim on a batch of specs, valid until ``deadline``."""

    lease_id: str
    worker: str
    keys: list[str]
    deadline: float


class JobQueue:
    """Lease-based work queue over a result-store backend.

    All methods are safe for concurrent callers (one internal lock; the
    HTTP server additionally serializes store access with its own).
    Mutations that survive a restart — submissions, completions,
    quarantines — persist the state through the backend; leases are
    volatile by design and collapse back into ``pending`` on reload.

    Args:
        backend: Store persisting both the results and the queue state.
        lease_seconds: How long a claim stays valid between heartbeats.
        quarantine_workers: Distinct failing workers that park a spec.
        max_attempts: Total failures that park a spec regardless of
            worker identity.
        clock: Injection point for lease-expiry time (tests).
    """

    def __init__(
        self,
        backend: CacheBackend,
        *,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        quarantine_workers: int = DEFAULT_QUARANTINE_WORKERS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        clock: Callable[[], float] = time.time,
    ):
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be > 0")
        self.backend = backend
        self.lease_seconds = lease_seconds
        self.quarantine_workers = max(1, quarantine_workers)
        self.max_attempts = max(1, max_attempts)
        self._clock = clock
        self._lock = threading.RLock()
        self.jobs: dict[str, QueueJob] = {}
        self.topologies: dict[str, str] = {}
        self.pending: list[str] = []
        self.done: set[str] = set()
        self.quarantined: dict[str, QueueJob] = {}
        self.leases: dict[str, Lease] = {}
        self._lease_seq = 0

    # -- persistence --------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-ready snapshot of everything worth surviving a restart."""
        return {
            "version": QUEUE_STATE_VERSION,
            "jobs": [job.to_dict() for job in self.jobs.values()],
            "topologies": dict(self.topologies),
            "done": sorted(self.done),
            "quarantined": [job.to_dict() for job in self.quarantined.values()],
        }

    def persist(self) -> None:
        """Write the state through the backend (best effort: a store
        hiccup must not fail the queue operation that triggered it —
        the next durable mutation retries)."""
        try:
            self.backend.put_payload(QUEUE_STATE_KEY, QUEUE_KIND, self.to_state())
        except OSError as exc:
            _log.warning("could not persist queue state: %s", exc)

    @classmethod
    def load(cls, backend: CacheBackend, **kw) -> "JobQueue":
        """Rebuild the queue from the backend's persisted state.

        In-flight leases are not persisted, so every non-done,
        non-quarantined job returns to ``pending``.  The store is then
        re-checked for results that landed *after* the last persist
        (e.g. a write-back that raced the coordinator's crash), so a
        restart never re-simulates work the store already holds.
        """
        queue = cls(backend, **kw)
        state = backend.get_payload(QUEUE_STATE_KEY, QUEUE_KIND)
        if not state or state.get("version") != QUEUE_STATE_VERSION:
            return queue
        for payload in state.get("jobs", []):
            job = QueueJob.from_dict(payload)
            queue.jobs[job.key] = job
        queue.topologies = dict(state.get("topologies", {}))
        queue.done = set(state.get("done", []))
        for payload in state.get("quarantined", []):
            job = QueueJob.from_dict(payload)
            queue.quarantined[job.key] = job
        queue.pending = [
            key
            for key in queue.jobs
            if key not in queue.done and key not in queue.quarantined
        ]
        queue._sort_pending()
        recovered = queue._absorb_cached(queue.pending)
        if queue.jobs:
            _log.info(
                "queue state restored: %d jobs (%d done, %d pending, "
                "%d quarantined, %d recovered from the store)",
                len(queue.jobs),
                len(queue.done),
                len(queue.pending),
                len(queue.quarantined),
                recovered,
            )
        queue._update_gauges()
        return queue

    # -- internals ----------------------------------------------------------

    def _sort_pending(self) -> None:
        """Heaviest-first dispatch order (ties broken by key for
        determinism) — the expensive near-saturation points go out
        first, so the campaign's tail is short instead of gated on one
        straggler holding the costliest spec."""
        costs = self.jobs
        self.pending.sort(key=lambda key: (-costs[key].cost, key))

    def _absorb_cached(self, keys: Iterable[str]) -> int:
        """Mark every key whose result the store already holds as done;
        returns how many were absorbed.  Call with the lock held."""
        wanted = [key for key in keys if key not in self.done]
        cached: set[str] = set()
        for chunk in chunked(wanted):
            try:
                cached.update(self.backend.get_payload_many(chunk, "sim"))
            except OSError as exc:
                _log.warning("cache probe during submit failed: %s", exc)
                break
        if cached:
            self.done.update(cached)
            self.pending = [key for key in self.pending if key not in cached]
        return len(cached)

    def _expire(self) -> int:
        """Requeue the unfinished specs of every lease past its deadline;
        returns how many specs were requeued.  Call with the lock held."""
        now = self._clock()
        requeued = 0
        for lease_id in [l_id for l_id, l in self.leases.items() if l.deadline < now]:
            lease = self.leases.pop(lease_id)
            lost = [
                key
                for key in lease.keys
                if key not in self.done
                and key not in self.quarantined
                and key not in self.pending
            ]
            if lost:
                self.pending.extend(lost)
                requeued += len(lost)
                QUEUE_REQUEUED.labels(reason="expired").inc(len(lost))
                _log.info(
                    "lease %s (worker %s) expired: requeued %d specs",
                    lease_id,
                    lease.worker,
                    len(lost),
                )
        if requeued:
            self._sort_pending()
        return requeued

    def _update_gauges(self) -> None:
        leased = sum(len(lease.keys) for lease in self.leases.values())
        QUEUE_DEPTH.labels(state="pending").set(len(self.pending))
        QUEUE_DEPTH.labels(state="leased").set(leased)
        QUEUE_DEPTH.labels(state="done").set(len(self.done))
        QUEUE_DEPTH.labels(state="quarantined").set(len(self.quarantined))

    def _leased_keys(self) -> set[str]:
        out: set[str] = set()
        for lease in self.leases.values():
            out.update(lease.keys)
        return out

    # -- operations (the wire protocol's server half) -----------------------

    def submit(
        self,
        jobs: Iterable[dict],
        topologies: Mapping[str, str] | None = None,
    ) -> dict:
        """Add specs to the queue; idempotent by content key.

        ``jobs`` are ``{key, spec, cost}`` dicts (``QueueJob`` wire
        form); ``topologies`` maps fingerprint topology tokens to the
        catalog symbols workers rebuild them from.  Keys already known
        are ignored; keys whose results the store already holds are
        marked done immediately (zero re-simulation of cached work).
        """
        with self._lock:
            self._expire()
            # Decode every job before touching the queue: a malformed job
            # must reject the whole call, not strand the jobs before it
            # as known keys that are never pending.
            decoded = [QueueJob.from_dict(payload) for payload in jobs]
            if topologies:
                self.topologies.update(topologies)
            fresh: list[str] = []
            duplicates = 0
            for job in decoded:
                if job.key in self.jobs:
                    duplicates += 1
                    continue
                self.jobs[job.key] = job
                fresh.append(job.key)
            cached = self._absorb_cached(fresh) if fresh else 0
            accepted = [key for key in fresh if key not in self.done]
            self.pending.extend(accepted)
            self._sort_pending()
            if fresh:
                QUEUE_SUBMITTED.labels(outcome="accepted").inc(len(accepted))
            if cached:
                QUEUE_SUBMITTED.labels(outcome="cached").inc(cached)
            if duplicates:
                QUEUE_SUBMITTED.labels(outcome="duplicate").inc(duplicates)
            self.persist()
            self._update_gauges()
            _log.info(
                "submit: %d accepted, %d already cached, %d duplicates "
                "(%d pending)",
                len(accepted),
                cached,
                duplicates,
                len(self.pending),
            )
            return {
                "accepted": len(accepted),
                "cached": cached,
                "duplicates": duplicates,
                "total": len(self.jobs),
            }

    def claim(self, worker: str, max_specs: int = 4) -> dict:
        """Lease up to ``max_specs`` pending specs to ``worker``.

        Returns ``state="lease"`` with the batch, ``state="empty"`` when
        there is nothing claimable right now (poll again — the queue may
        be pre-submission idle, or everything left may be leased
        elsewhere), or ``state="drained"`` when a submitted campaign has
        fully finished (the worker should exit).  A queue nothing was
        ever submitted to reads ``empty``, not ``drained``, so workers
        may join the fleet before the campaign is submitted.
        """
        with self._lock:
            self._expire()
            if not self.pending:
                self._update_gauges()
                state = "drained" if self.jobs and not self.leases else "empty"
                return {"state": state}
            batch = self.pending[: max(1, max_specs)]
            self.pending = self.pending[len(batch) :]
            self._lease_seq += 1
            lease = Lease(
                lease_id=f"L{self._lease_seq}-{worker}",
                worker=worker,
                keys=list(batch),
                deadline=self._clock() + self.lease_seconds,
            )
            self.leases[lease.lease_id] = lease
            QUEUE_LEASES.inc()
            self._update_gauges()
            tokens = {self.jobs[key].spec.get("topology") for key in batch}
            return {
                "state": "lease",
                "lease": {
                    "id": lease.lease_id,
                    "lease_seconds": self.lease_seconds,
                    "jobs": [
                        {"key": key, "spec": self.jobs[key].spec} for key in batch
                    ],
                    "topologies": {
                        token: symbol
                        for token, symbol in self.topologies.items()
                        if token in tokens
                    },
                },
            }

    def heartbeat(self, lease_id: str) -> dict:
        """Extend ``lease_id``'s deadline by one lease duration."""
        with self._lock:
            self._expire()
            lease = self.leases.get(lease_id)
            if lease is None:
                QUEUE_HEARTBEATS.labels(outcome="unknown").inc()
                return {"ok": False}
            lease.deadline = self._clock() + self.lease_seconds
            QUEUE_HEARTBEATS.labels(outcome="ok").inc()
            return {"ok": True, "lease_seconds": self.lease_seconds}

    def complete(
        self,
        lease_id: str,
        worker: str,
        done: Iterable[str] = (),
        failed: Iterable[dict] = (),
        released: Iterable[str] = (),
    ) -> dict:
        """Settle a lease: completions, failures, and released specs.

        Accepted even when the lease has already expired (the worker's
        results are in the store either way — completion is idempotent
        by key).  ``failed`` entries are ``{key, error, permanent?}``; a
        spec whose failure is ``permanent`` (it would fail the same way
        on every host), or that has now failed :attr:`quarantine_workers`
        distinct workers, or :attr:`max_attempts` times in total, is
        quarantined.  Anything claimed but neither done, failed, nor
        released (a worker dying politely enough to call complete but
        not finish) is released too.
        """
        with self._lock:
            self._expire()
            lease = self.leases.pop(lease_id, None)
            # A stale complete (its lease expired and was reassigned) must
            # not requeue keys another worker currently holds — they would
            # be double-assigned.  Done keys still count: idempotent by key.
            leased_now = self._leased_keys()
            done = [key for key in done if key in self.jobs]
            failed = [entry for entry in failed if entry.get("key") in self.jobs]
            released = {key for key in released if key in self.jobs}
            if lease is not None:
                settled = set(done) | {entry["key"] for entry in failed} | released
                released.update(key for key in lease.keys if key not in settled)
            quarantined: list[str] = []
            newly_done = [key for key in done if key not in self.done]
            self.done.update(newly_done)
            if newly_done:
                QUEUE_COMPLETED.inc(len(newly_done))
                # A stale complete can finish a key that was requeued (or
                # even re-leased) in the meantime; done wins — drop it
                # from the pending list so the campaign can drain.
                self.pending = [
                    key for key in self.pending if key not in self.done
                ]
            for entry in failed:
                key = entry["key"]
                if key in self.done or key in self.quarantined:
                    continue
                job = self.jobs[key]
                job.attempts += 1
                if worker not in job.failed_workers:
                    job.failed_workers.append(worker)
                job.last_error = str(entry.get("error") or "unknown error")
                if (
                    entry.get("permanent") is True
                    or len(job.failed_workers) >= self.quarantine_workers
                    or job.attempts >= self.max_attempts
                ):
                    self.quarantined[key] = job
                    quarantined.append(key)
                    QUEUE_QUARANTINED.inc()
                    _log.warning(
                        "quarantined %s after %d attempts by %d workers: %s",
                        key[:12],
                        job.attempts,
                        len(job.failed_workers),
                        job.last_error,
                    )
                elif key not in self.pending and key not in leased_now:
                    self.pending.append(key)
                    QUEUE_REQUEUED.labels(reason="failed").inc()
            requeue = [
                key
                for key in released
                if key not in self.done
                and key not in self.quarantined
                and key not in self.pending
                and key not in leased_now
            ]
            if requeue:
                self.pending.extend(requeue)
                QUEUE_REQUEUED.labels(reason="released").inc(len(requeue))
            self._sort_pending()
            self.persist()
            self._update_gauges()
            return {
                "ok": True,
                "known_lease": lease is not None,
                "quarantined": quarantined,
            }

    def status(self) -> dict:
        """Campaign progress snapshot (also sweeps expired leases)."""
        with self._lock:
            self._expire()
            self._update_gauges()
            leased = self._leased_keys()
            return {
                "total": len(self.jobs),
                "pending": len(self.pending),
                "leased": len(leased),
                "done": len(self.done),
                "quarantined": len(self.quarantined),
                "drained": bool(self.jobs) and not self.pending and not self.leases,
                "lease_seconds": self.lease_seconds,
                "workers": sorted({l.worker for l in self.leases.values()}),
                "quarantine": [
                    {
                        "key": job.key,
                        "attempts": job.attempts,
                        "workers": list(job.failed_workers),
                        "error": job.last_error,
                    }
                    for job in self.quarantined.values()
                ],
            }


class QueueClient:
    """Client half of the queue protocol, over a ``repro serve`` URL.

    A thin veneer on :class:`~repro.engine.store.http.RemoteStore`'s
    transport: the same bearer token, retry/backoff, and error surface
    apply to queue calls as to cache calls.
    """

    def __init__(self, store: "RemoteStore | str", **store_kw):
        from .store.http import RemoteStore

        if isinstance(store, str):
            store = RemoteStore(store, **store_kw)
        self.store = store

    @property
    def url(self) -> str:
        return self.store.url

    def submit(
        self,
        jobs: Iterable[dict],
        topologies: Mapping[str, str] | None = None,
    ) -> dict:
        """Submit ``{key, spec, cost}`` jobs, chunked like cache batches."""
        jobs = list(jobs)
        totals = {"accepted": 0, "cached": 0, "duplicates": 0, "total": 0}
        for chunk in chunked(jobs):
            reply = self.store._call(
                "queue/submit",
                {"jobs": chunk, "topologies": dict(topologies or {})},
            )
            for field_name in ("accepted", "cached", "duplicates"):
                totals[field_name] += reply[field_name]
            totals["total"] = reply["total"]
        return totals

    def claim(self, worker: str, max_specs: int = 4) -> dict:
        return self.store._call(
            "queue/claim", {"worker": worker, "max_specs": max_specs}
        )

    def heartbeat(self, lease_id: str) -> dict:
        return self.store._call("queue/heartbeat", {"lease": lease_id})

    def complete(
        self,
        lease_id: str,
        worker: str,
        done: Iterable[str] = (),
        failed: Iterable[dict] = (),
        released: Iterable[str] = (),
    ) -> dict:
        return self.store._call(
            "queue/complete",
            {
                "lease": lease_id,
                "worker": worker,
                "done": list(done),
                "failed": list(failed),
                "released": list(released),
            },
        )

    def status(self) -> dict:
        return self.store._call("queue/status")


def jobs_for_specs(specs: Iterable) -> list[dict]:
    """Wire-form jobs for a batch of :class:`ExperimentSpec`\\ s.

    Costs come from :func:`~repro.engine.spec.predicted_cost`, so the
    queue hands out the heaviest specs first.  Duplicate specs collapse
    to one job.
    """
    from .spec import predicted_cost

    jobs: dict[str, dict] = {}
    for spec in specs:
        key = spec.content_hash()
        if key in jobs:
            continue
        jobs[key] = {
            "key": key,
            "spec": spec.to_dict(),
            "cost": predicted_cost(spec),
        }
    return list(jobs.values())
