"""Remote result store: the :class:`CacheBackend` protocol over JSON/HTTP.

This module is how hosts share one campaign's results *without shipping
pack files*: one machine runs ``python -m repro serve`` (a
:class:`StoreServer` — a stdlib ``ThreadingHTTPServer`` fronting a
local SQLite pack, and with ``--queue`` the campaign's work queue), and
every ``repro work`` host streams results into the shared store as it
finishes.  A rerun on any machine pointed at ``--cache-dir
http://host:8123`` assembles the campaign as a pure cache read.

Two halves, one wire protocol:

* :class:`RemoteStore` — the client.  A full :class:`CacheBackend`
  (single and batched payloads, raw entries with their mtimes,
  ``iter_keys``/``stats``/``gc``/``clear``), so a URL is a first-class
  store location everywhere a path is: engine caches, ``cache stats``
  and ``cache gc``.  Transient
  failures (connection refused, 5xx, timeouts) are retried with
  exponential backoff; a dead server surfaces as a single clear
  :class:`RemoteStoreError`, and a token mismatch as
  :class:`RemoteAuthError` (no retry — credentials do not heal).
* :class:`StoreServer` — the server.  Every request holds one lock
  around the backing store, so concurrent writers serialize into
  SQLite safely; with ``token=...`` (or ``--token`` / the
  ``REPRO_CACHE_TOKEN`` environment variable on the CLI) requests must
  carry ``Authorization: Bearer <token>``.

The wire protocol is deliberately minimal — JSON bodies over a handful
of endpoints, versioned by ``PROTOCOL_VERSION``:

====== ==================== ==========================================
method endpoint             body -> response
====== ==================== ==========================================
GET    ``/health``          -> ``{ok, protocol, schema, location}``
GET    ``/metrics``         -> Prometheus text exposition (0.0.4) of
                            the server process's metrics registry;
                            unauthenticated read-only, like /health
POST   ``/keys/list``       ``{start_after?, limit?}`` ->
                            ``{keys, next}`` — one sorted page after
                            the cursor; ``next`` is the resume cursor,
                            ``null`` when the key space is exhausted
GET    ``/stats``           -> ``CacheStats`` fields (counters zero)
GET    ``/size``            -> ``{size_bytes}``
POST   ``/payloads/get``    ``{keys, kind}`` -> ``{found: {key: payload}}``
POST   ``/payloads/put``    ``{items: [[key, kind, result, spec]]}``
                            -> ``{written}``
POST   ``/entries/get``     ``{keys}`` -> ``{entries: {key: {entry, mtime}}}``
POST   ``/entries/put``     ``{entries: [{key, entry, mtime}]}`` -> ``{written}``
POST   ``/gc``              ``{max_bytes?, max_age_days?, now?}``
                            -> ``GCReport`` fields
POST   ``/clear``           ``{}`` -> ``{removed}``
GET    ``/queue/status``    -> campaign progress snapshot
POST   ``/queue/submit``    ``{jobs: [{key, spec, cost}], topologies}``
                            -> ``{accepted, cached, duplicates, total}``
POST   ``/queue/claim``     ``{worker, max_specs}`` -> ``{state, lease?}``
POST   ``/queue/heartbeat`` ``{lease}`` -> ``{ok, lease_seconds?}``
POST   ``/queue/complete``  ``{lease, worker, done, failed, released}``
                            -> ``{ok, known_lease, quarantined}``
====== ==================== ==========================================

The ``queue/*`` endpoints exist only when the server was started with a
:class:`~repro.engine.queue.JobQueue` (``repro serve --queue``) and —
unlike the read-only ``/health`` and ``/metrics`` — always require the
bearer token when one is configured: queue submissions carry arbitrary
spec payloads that workers will execute.

Batched calls are chunked client-side with the same
:func:`~repro.engine.store.base.chunked` bound the SQLite backend uses,
so one engine batch costs one round trip per ~500 keys — the runner's
cache-first pass over a remote store is a handful of POSTs, not a
per-spec probe storm.
"""

from __future__ import annotations

import hmac
import json
import os
import random
import threading
import time
import urllib.error
import urllib.request
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

if TYPE_CHECKING:
    from ..queue import JobQueue

from ...obs import get_logger, store_op
from ...obs.metrics import (
    REGISTRY,
    SERVER_ERRORS,
    SERVER_REQUESTS,
    SERVER_SECONDS,
    STORE_RETRIES,
)
from .base import (
    DEFAULT_KEY_BATCH,
    SCHEMA_VERSION,
    CacheBackend,
    CacheStats,
    GCReport,
    RawEntry,
    chunked,
)

_client_log = get_logger("store.remote")
_serve_log = get_logger("serve")

#: Bearer token honored by both the client (outgoing header) and the
#: ``repro serve`` CLI (required token) when set in the environment.
TOKEN_ENV = "REPRO_CACHE_TOKEN"

#: Bump when the endpoint set or body shapes change incompatibly.
#: 2: cursored ``keys/list`` pagination.
PROTOCOL_VERSION = 2

#: Server-side clamp on one ``keys/list`` page: a client asking for the
#: world still gets bounded responses and has to walk the cursor.
MAX_KEYS_PAGE = 1000

#: Default ``repro serve`` bind (the README's rendezvous examples).
DEFAULT_PORT = 8123

#: Transient HTTP statuses worth retrying: timeouts, throttling, and
#: server-side 5xx.  Auth failures and client errors are permanent.
_RETRY_STATUSES = frozenset({408, 425, 429, 500, 502, 503, 504})


class RemoteStoreError(OSError):
    """The remote store could not be reached or refused the request."""


class RemoteAuthError(RemoteStoreError):
    """The server rejected the request's bearer token (401/403)."""


def _parse_retry_after(value: str | None) -> float | None:
    """Seconds from a ``Retry-After`` header, or ``None`` to use backoff.

    Only the delta-seconds form is honored; the HTTP-date form (rare
    from coordinators we control) falls back to computed backoff.
    """
    if not value:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return seconds if seconds >= 0 else None


def _error_detail(exc: urllib.error.HTTPError) -> str:
    """The server's ``{"error": ...}`` body as a message suffix, if any."""
    try:
        body = json.loads(exc.read().decode("utf-8"))
        message = body.get("error")
    except (OSError, ValueError, AttributeError):
        return ""
    return f" ({message})" if message else ""


class RemoteStore:
    """:class:`CacheBackend` client for a ``repro serve`` endpoint.

    Args:
        url: Server base URL (``http://host:8123``).
        token: Bearer token sent with every request; defaults to the
            ``REPRO_CACHE_TOKEN`` environment variable.
        timeout: Per-request socket timeout in seconds.
        retries: Total attempts per request (first try included).
        backoff: Cap on the delay before attempt ``n``; the actual
            delay is full-jitter: uniform in ``[0, backoff * 2**(n-1)]``
            so a fleet of workers retrying a restarted coordinator
            spreads out instead of thundering-herding it in lockstep.
            A ``Retry-After`` header on a 429/503 response overrides
            the computed delay — the server knows best.
        max_retry_seconds: Wall-clock budget across all of a request's
            retries; once spent, the next retry is abandoned with a
            clear error even if attempts remain.
        sleep: Injection point for the backoff delay (tests).
        jitter: Injection point for the jitter draw in ``[0, 1)``;
            pass ``lambda: 1.0`` for deterministic worst-case delays.
    """

    def __init__(
        self,
        url: str,
        *,
        token: str | None = None,
        timeout: float = 30.0,
        retries: int = 4,
        backoff: float = 0.2,
        max_retry_seconds: float = 120.0,
        sleep: Callable[[float], None] = time.sleep,
        jitter: Callable[[], float] = random.random,
    ):
        self.url = url.rstrip("/")
        self.token = token if token is not None else os.environ.get(TOKEN_ENV) or None
        self.timeout = timeout
        self.retries = max(1, retries)
        self.backoff = backoff
        self.max_retry_seconds = max_retry_seconds
        self._sleep = sleep
        self._jitter = jitter

    @property
    def location(self) -> str:
        return self.url

    def __repr__(self) -> str:
        return f"RemoteStore({self.url!r})"

    # -- wire ---------------------------------------------------------------

    def _call(self, endpoint: str, payload: dict | None = None) -> dict:
        """One JSON round trip, retrying transient failures with backoff.

        ``payload=None`` issues a GET; anything else POSTs its JSON
        encoding.  Permanent failures (4xx other than throttling) raise
        immediately; transient ones retry ``self.retries`` times — each
        delay full-jitter exponential, or whatever ``Retry-After`` the
        server sent on a 429/503 — and then surface one
        :class:`RemoteStoreError` naming the server.  The retry budget
        is also bounded by :attr:`max_retry_seconds` of wall clock, so
        a long outage fails with a clear error instead of stalling a
        worker indefinitely.
        """
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        last: Exception | None = None
        retry_after: float | None = None
        started = time.monotonic()
        # One store_op spans all attempts: the latency histogram reports
        # what the *caller* waited, backoff sleeps included; per-attempt
        # churn shows up in repro_store_retries_total instead.
        with store_op("remote", endpoint) as op:
            if data is not None:
                op.add_bytes(len(data))
            for attempt in range(self.retries):
                if attempt:
                    if retry_after is not None:
                        delay = max(0.0, retry_after)
                    else:
                        delay = self.backoff * (2 ** (attempt - 1)) * self._jitter()
                    spent = time.monotonic() - started
                    if spent + delay > self.max_retry_seconds:
                        raise RemoteStoreError(
                            f"remote store {self.url} still failing after "
                            f"{attempt} attempts spanning {spent:.1f}s (retry "
                            f"budget {self.max_retry_seconds:.0f}s, last "
                            f"error: {last}); is `python -m repro serve` "
                            "running there?"
                        ) from last
                    STORE_RETRIES.labels(endpoint=endpoint).inc()
                    _client_log.debug(
                        "retrying %s/%s (attempt %d/%d, delay %.2fs): %s",
                        self.url,
                        endpoint,
                        attempt + 1,
                        self.retries,
                        delay,
                        last,
                    )
                    self._sleep(delay)
                retry_after = None
                request = urllib.request.Request(
                    f"{self.url}/{endpoint}",
                    data=data,
                    headers=headers,
                    method="GET" if data is None else "POST",
                )
                try:
                    with urllib.request.urlopen(
                        request, timeout=self.timeout
                    ) as resp:
                        raw = resp.read()
                        op.add_bytes(len(raw))
                        return json.loads(raw.decode("utf-8"))
                except urllib.error.HTTPError as exc:
                    if exc.code in (401, 403):
                        raise RemoteAuthError(
                            f"{self.url} rejected the request (HTTP {exc.code}): "
                            f"set {TOKEN_ENV} to the token the server was "
                            "started with"
                        ) from None
                    if exc.code not in _RETRY_STATUSES:
                        detail = _error_detail(exc)
                        raise RemoteStoreError(
                            f"{self.url}/{endpoint} failed: HTTP {exc.code} "
                            f"{exc.reason}{detail}"
                        ) from None
                    if exc.code in (429, 503):
                        retry_after = _parse_retry_after(
                            exc.headers.get("Retry-After")
                        )
                    last = exc
                except (TimeoutError, OSError) as exc:  # URLError is an OSError
                    last = exc
        raise RemoteStoreError(
            f"remote store {self.url} is unreachable after {self.retries} "
            f"attempts (last error: {last}); is `python -m repro serve` "
            "running there?"
        ) from last

    def ping(self) -> dict:
        """One unauthenticated ``/health`` round trip (liveness probe)."""
        return self._call("health")

    # -- payloads -----------------------------------------------------------

    def get_payload(self, key: str, kind: str) -> dict | None:
        return self.get_payload_many([key], kind).get(key)

    def get_payload_many(self, keys: Iterable[str], kind: str) -> dict[str, dict]:
        wanted = list(dict.fromkeys(keys))
        found: dict[str, dict] = {}
        for chunk in chunked(wanted):
            resp = self._call("payloads/get", {"keys": chunk, "kind": kind})
            found.update(resp["found"])
        return found

    def put_payload(
        self, key: str, kind: str, result: dict, spec: dict | None = None
    ) -> int:
        return self.put_payload_many([(key, kind, result, spec)])

    def put_payload_many(
        self, items: Iterable[tuple[str, str, dict, dict | None]]
    ) -> int:
        written = 0
        for chunk in chunked(list(items)):
            rows = [[key, kind, result, spec] for key, kind, result, spec in chunk]
            written += self._call("payloads/put", {"items": rows})["written"]
        return written

    # -- raw entries --------------------------------------------------------

    def get_entry(self, key: str) -> RawEntry | None:
        return self.get_entry_many([key]).get(key)

    def get_entry_many(self, keys: Iterable[str]) -> dict[str, RawEntry]:
        wanted = list(dict.fromkeys(keys))
        found: dict[str, RawEntry] = {}
        for chunk in chunked(wanted):
            resp = self._call("entries/get", {"keys": chunk})
            for key, raw in resp["entries"].items():
                found[key] = RawEntry(key=key, entry=raw["entry"], mtime=raw["mtime"])
        return found

    def put_entry(self, key: str, entry: dict, mtime: float | None = None) -> int:
        raw = RawEntry(
            key=key, entry=entry, mtime=time.time() if mtime is None else mtime
        )
        return self.put_entry_many([raw])

    def put_entry_many(self, entries: Iterable[RawEntry]) -> int:
        written = 0
        for chunk in chunked(list(entries)):
            resp = self._call(
                "entries/put",
                {
                    "entries": [
                        {"key": raw.key, "entry": raw.entry, "mtime": raw.mtime}
                        for raw in chunk
                    ]
                },
            )
            written += resp["written"]
        return written

    # -- maintenance --------------------------------------------------------

    def iter_keys(
        self, start_after: str | None = None, limit: int | None = None
    ) -> list[str]:
        page = DEFAULT_KEY_BATCH if limit is None else max(0, int(limit))
        if page == 0:
            return []
        resp = self._call("keys/list", {"start_after": start_after, "limit": page})
        return list(resp["keys"])

    def size_bytes(self) -> int:
        return self._call("size")["size_bytes"]

    def stats(self) -> CacheStats:
        resp = self._call("stats")
        return CacheStats(
            entries=resp["entries"],
            size_bytes=resp["size_bytes"],
            hits=0,
            misses=0,
            reclaimable_entries=resp.get("reclaimable_entries", 0),
            reclaimable_bytes=resp.get("reclaimable_bytes", 0),
        )

    def gc(
        self,
        max_bytes: int | None = None,
        max_age_days: float | None = None,
        now: float | None = None,
    ) -> GCReport:
        resp = self._call(
            "gc", {"max_bytes": max_bytes, "max_age_days": max_age_days, "now": now}
        )
        return GCReport(**resp)

    def clear(self) -> int:
        return self._call("clear", {})["removed"]

    def close(self) -> None:
        pass


# -- server -----------------------------------------------------------------


def _route_payloads_get(backend: CacheBackend, payload: dict) -> dict:
    return {"found": backend.get_payload_many(payload["keys"], payload["kind"])}


def _route_payloads_put(backend: CacheBackend, payload: dict) -> dict:
    items = [(key, kind, result, spec) for key, kind, result, spec in payload["items"]]
    return {"written": backend.put_payload_many(items)}


def _route_entries_get(backend: CacheBackend, payload: dict) -> dict:
    found = backend.get_entry_many(payload["keys"])
    return {
        "entries": {
            key: {"entry": raw.entry, "mtime": raw.mtime}
            for key, raw in found.items()
        }
    }


def _route_entries_put(backend: CacheBackend, payload: dict) -> dict:
    entries = [
        RawEntry(key=raw["key"], entry=raw["entry"], mtime=raw["mtime"])
        for raw in payload["entries"]
    ]
    return {"written": backend.put_entry_many(entries)}


def _route_gc(backend: CacheBackend, payload: dict) -> dict:
    report = backend.gc(
        max_bytes=payload.get("max_bytes"),
        max_age_days=payload.get("max_age_days"),
        now=payload.get("now"),
    )
    return asdict(report)


def _route_keys_list(backend: CacheBackend, payload: dict) -> dict:
    limit = payload.get("limit") or DEFAULT_KEY_BATCH
    limit = max(1, min(int(limit), MAX_KEYS_PAGE))
    keys = list(backend.iter_keys(start_after=payload.get("start_after"), limit=limit))
    return {"keys": keys, "next": keys[-1] if len(keys) == limit else None}


def _route_stats(backend: CacheBackend, payload: dict) -> dict:
    stats = backend.stats()
    return {
        "entries": stats.entries,
        "size_bytes": stats.size_bytes,
        "reclaimable_entries": stats.reclaimable_entries,
        "reclaimable_bytes": stats.reclaimable_bytes,
    }


_GET_ROUTES: dict[str, Callable[[CacheBackend, dict], dict]] = {
    "/stats": _route_stats,
    "/size": lambda backend, payload: {"size_bytes": backend.size_bytes()},
}

_POST_ROUTES: dict[str, Callable[[CacheBackend, dict], dict]] = {
    "/keys/list": _route_keys_list,
    "/payloads/get": _route_payloads_get,
    "/payloads/put": _route_payloads_put,
    "/entries/get": _route_entries_get,
    "/entries/put": _route_entries_put,
    "/gc": _route_gc,
    "/clear": lambda backend, payload: {"removed": backend.clear()},
}


def _route_queue_complete(queue: "JobQueue", payload: dict) -> dict:
    return queue.complete(
        payload["lease"],
        payload.get("worker", ""),
        done=payload.get("done", ()),
        failed=payload.get("failed", ()),
        released=payload.get("released", ()),
    )


# Queue routes take the server's JobQueue, not the raw backend; they are
# live only when `repro serve --queue` attached one.
_QUEUE_GET_ROUTES: dict[str, Callable[["JobQueue", dict], dict]] = {
    "/queue/status": lambda queue, payload: queue.status(),
}

_QUEUE_POST_ROUTES: dict[str, Callable[["JobQueue", dict], dict]] = {
    "/queue/submit": lambda queue, payload: queue.submit(
        payload["jobs"], payload.get("topologies")
    ),
    "/queue/claim": lambda queue, payload: queue.claim(
        payload["worker"], payload.get("max_specs", 4)
    ),
    "/queue/heartbeat": lambda queue, payload: queue.heartbeat(payload["lease"]),
    "/queue/complete": _route_queue_complete,
}


class _StoreHandler(BaseHTTPRequestHandler):
    """One request against the server's backing store.

    The body is always read before replying (keeps the socket in a sane
    state on errors), auth is checked before any store access, and every
    store call holds the server-wide lock — concurrent writers
    serialize here, which is what makes a plain SQLite pack safe to
    share over the network.
    """

    server_version = f"repro-store/{PROTOCOL_VERSION}"

    def log_message(self, fmt: str, *args) -> None:
        # Request lines ride the repro.* logger hierarchy (visible once
        # `configure_logging` runs, silent for library users) instead of
        # being hard-printed to stderr by the stdlib default.
        if not getattr(self.server, "quiet", False):
            _serve_log.info("%s %s", self.address_string(), fmt % args)

    def _reply(
        self,
        status: int,
        payload: dict,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        blob = json.dumps(payload).encode("utf-8")
        self._send(status, blob, "application/json", headers)

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        self._send(status, text.encode("utf-8"), content_type)

    def _send(
        self,
        status: int,
        blob: bytes,
        content_type: str,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(blob)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)

    def _authorized(self) -> bool:
        token = self.server.token
        if token is None:
            return True
        supplied = self.headers.get("Authorization", "")
        # Compare as bytes: compare_digest raises on non-ASCII str input
        # (http.server decodes headers as latin-1), and an exception here
        # would abort the connection with no HTTP reply at all.
        expected = f"Bearer {token}".encode("utf-8", "surrogateescape")
        return hmac.compare_digest(
            supplied.encode("utf-8", "surrogateescape"), expected
        )

    def _dispatch(self, routes: dict, payload: dict) -> None:
        """Time and count every request around the actual handling."""
        start = time.perf_counter()
        path = "/" + self.path.strip("/")
        self._status = 500  # if _handle dies before replying
        try:
            self._handle(routes, path, payload)
        finally:
            known = (
                path in _GET_ROUTES
                or path in _POST_ROUTES
                or path in _QUEUE_GET_ROUTES
                or path in _QUEUE_POST_ROUTES
                or path in ("/health", "/metrics")
            )
            endpoint = path if known else "other"
            SERVER_REQUESTS.labels(endpoint=endpoint, method=self.command).inc()
            SERVER_SECONDS.labels(endpoint=endpoint).observe(
                time.perf_counter() - start
            )
            if self._status >= 400:
                SERVER_ERRORS.labels(
                    endpoint=endpoint, status=str(self._status)
                ).inc()

    def _fault_injected(self, path: str) -> bool:
        """Deterministic chaos: fail this request with an injected 503?

        Two knobs, combinable: ``fail_requests`` (the next N requests
        fail — ``inject_failures()`` / ``fail_next``) and ``fail_every``
        (every Nth store request fails — steady-state fault rate for
        soak tests).  ``/health`` and ``/metrics`` are exempt so
        readiness polls and scrapes stay truthful while chaos runs.
        """
        if path in ("/health", "/metrics"):
            return False
        server = self.server
        with server.fault_lock:
            if server.fail_requests > 0:
                server.fail_requests -= 1
                return True
            if server.fail_every > 0:
                server.request_seq += 1
                if server.request_seq % server.fail_every == 0:
                    return True
        return False

    def _handle(self, routes: dict, path: str, payload: dict) -> None:
        if self._fault_injected(path):
            headers = None
            if self.server.fail_retry_after is not None:
                headers = {"Retry-After": str(self.server.fail_retry_after)}
            return self._reply(
                503, {"error": "injected transient failure"}, headers
            )
        if path == "/health":
            return self._reply(
                200,
                {
                    "ok": True,
                    "protocol": PROTOCOL_VERSION,
                    "schema": SCHEMA_VERSION,
                    "location": self.server.backend.location,
                },
            )
        if path == "/metrics" and self.command == "GET":
            # Unauthenticated read-only scrape, like /health: exposes
            # operational counters, never cached results.
            return self._reply_text(
                200,
                REGISTRY.render(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if not self._authorized():
            return self._reply(401, {"error": "missing or invalid bearer token"})
        if path.startswith("/queue/"):
            return self._handle_queue(path, payload)
        route = routes.get(path)
        if route is None:
            return self._reply(
                404, {"error": f"unknown endpoint {self.command} {path}"}
            )
        self._run_route(route, self.server.backend, payload)

    def _handle_queue(self, path: str, payload: dict) -> None:
        queue = self.server.queue
        if queue is None:
            return self._reply(
                404,
                {"error": "work queue disabled; restart with `repro serve --queue`"},
            )
        routes = _QUEUE_GET_ROUTES if self.command == "GET" else _QUEUE_POST_ROUTES
        route = routes.get(path)
        if route is None:
            return self._reply(
                404, {"error": f"unknown endpoint {self.command} {path}"}
            )
        self._run_route(route, queue, payload)

    def _run_route(self, route: Callable, target, payload: dict) -> None:
        """Run one store or queue route under the server-wide lock.

        Queue operations share the lock: they persist state and probe
        caches through the same backing store the cache endpoints
        serialize on.  A malformed request (a missing field, a value of
        the wrong type or out of range) is the client's fault and gets
        400, which :class:`RemoteStore` does not retry; anything else
        is the server's and gets 500.
        """
        try:
            with self.server.lock:
                result = route(target, payload)
        except KeyError as exc:
            return self._reply(400, {"error": f"missing field {exc}"})
        except (ValueError, TypeError) as exc:
            return self._reply(400, {"error": f"{type(exc).__name__}: {exc}"})
        except Exception as exc:  # surface, don't kill the worker thread
            return self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
        self._reply(200, result)

    def do_GET(self) -> None:
        self._dispatch(_GET_ROUTES, {})

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except ValueError:
            return self._reply(400, {"error": "request body is not valid JSON"})
        self._dispatch(_POST_ROUTES, payload)


class StoreServer:
    """Serve any local :class:`CacheBackend` over the wire protocol.

    ``port=0`` binds an ephemeral port (tests); :attr:`url` reports the
    resolved address either way.  :meth:`start` runs the accept loop on
    a daemon thread and returns ``self`` (fixture style);
    :meth:`serve_forever` blocks (the ``repro serve`` CLI).
    """

    def __init__(
        self,
        backend: CacheBackend,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
        quiet: bool = False,
        queue: "JobQueue | None" = None,
        fail_every: int = 0,
    ):
        self.backend = backend
        self.queue = queue
        self._httpd = ThreadingHTTPServer((host, port), _StoreHandler)
        # Non-daemon + block_on_close: server_close() joins in-flight
        # request threads, so close() really does drain before it
        # persists queue state and closes the backend.  Handler threads
        # are short-lived (HTTP/1.0, one request per connection), so
        # the join is bounded by one request's service time.
        self._httpd.daemon_threads = False
        self._httpd.backend = backend
        self._httpd.token = token
        self._httpd.lock = threading.Lock()
        self._httpd.quiet = quiet
        self._httpd.queue = queue
        self._httpd.fault_lock = threading.Lock()
        self._httpd.fail_requests = 0
        self._httpd.fail_every = max(0, fail_every)
        self._httpd.fail_retry_after = None
        self._httpd.request_seq = 0
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def inject_failures(
        self, count: int, retry_after: float | None = None
    ) -> None:
        """Make the next ``count`` store requests fail with 503.

        ``retry_after`` additionally stamps a ``Retry-After`` header on
        every injected failure (it also applies to ``fail_every``
        faults), exercising the client's server-directed delay path.
        ``/health`` and ``/metrics`` are never failed.
        """
        with self._httpd.fault_lock:
            self._httpd.fail_requests = count
            self._httpd.fail_retry_after = retry_after

    @property
    def fail_every(self) -> int:
        return self._httpd.fail_every

    @fail_every.setter
    def fail_every(self, every: int) -> None:
        """Fail every ``every``-th store request with 503 (0 disables)."""
        with self._httpd.fault_lock:
            self._httpd.fail_every = max(0, every)

    def start(self) -> "StoreServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def close(self) -> None:
        """Stop accepting, drain in-flight requests, persist, close.

        ``ThreadingHTTPServer.server_close`` joins the request threads
        (``block_on_close``), so by the time the queue state is
        persisted and the backend closed, no handler is mid-write —
        this is what makes SIGINT/SIGTERM on ``repro serve`` safe for
        a SQLite pack mid-campaign.
        """
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
        if self.queue is not None:
            self.queue.persist()
        self.backend.close()

    def __enter__(self) -> "StoreServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
