"""Pluggable result stores (local + remote HTTP), the wire protocol,
auto-GC, pool lifecycle, and campaigns spread over the work queue."""

import http.client
import json
import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from pack_entries import PackEntries

from repro.engine import (
    ExperimentEngine,
    ExperimentSpec,
    RemoteAuthError,
    RemoteStore,
    RemoteStoreError,
    ResultCache,
    SqlitePackStore,
    JobQueue,
    QueueWorker,
    StoreServer,
    open_backend,
    run_compare,
)
from repro.engine.spec import iter_spec_keys
from repro.engine.store import SCHEMA_VERSION, encode_entry
from repro.engine.store import http as http_module
from repro.engine.store.base import chunked
from repro.engine.store.sqlite import TOUCH_GRANULARITY_S
from repro.obs.metrics import REGISTRY

#: Tiny but shape-preserving windows for the sn54/cm54 class.
FAST = dict(warmup=100, measure=200, drain=300)

LOADS = [0.02, 0.05, 0.08, 0.12, 0.2, 0.3]


def fast_spec(load=0.05, **overrides) -> ExperimentSpec:
    kw = dict(topology="sn54", pattern="RND", load=load, **FAST)
    kw.update(overrides)
    return ExperimentSpec.synthetic(
        kw.pop("topology"), kw.pop("pattern"), kw.pop("load"), **kw
    )


def spec_grid(n=24) -> list[ExperimentSpec]:
    return [fast_spec(load=0.01 + 0.005 * i) for i in range(n)]


def remote_store(server, **overrides):
    """Client against ``server`` with test-friendly retry settings."""
    kw = dict(retries=2, backoff=0.01)
    kw.update(overrides)
    return RemoteStore(server.url, **kw)


@pytest.fixture(params=["sqlite", "remote"])
def backend(request, tmp_path):
    """Both store implementations: the local pack, and the HTTP client
    against a live ephemeral-port server — the wire protocol passes the
    same equivalence suite the local backend does.  Either way the data
    lives in ``store.sqlite`` (see the ``pack`` fixture)."""
    if request.param == "sqlite":
        yield SqlitePackStore(tmp_path / "store.sqlite")
    else:
        with StoreServer(
            SqlitePackStore(tmp_path / "store.sqlite"), quiet=True
        ) as server:
            yield remote_store(server)


@pytest.fixture
def pack(tmp_path):
    """The entries table under the ``backend`` fixture's store."""
    return PackEntries(tmp_path / "store.sqlite")


class TestBackendEquivalence:
    """Both backends expose identical store semantics."""

    def test_payload_round_trip_and_kind_check(self, backend):
        backend.put_payload("ab" * 32, "sim", {"x": 1}, spec={"spec_version": 1})
        assert backend.get_payload("ab" * 32, "sim") == {"x": 1}
        assert backend.get_payload("ab" * 32, "other") is None
        assert backend.get_payload("cd" * 32, "sim") is None

    def test_stats_counts_entries_and_bytes(self, backend):
        assert backend.stats().entries == 0
        backend.put_payload("aa" * 32, "sim", {"x": 1})
        backend.put_payload("bb" * 32, "sim", {"x": 2})
        stats = backend.stats()
        assert stats.entries == 2
        assert stats.size_bytes > 0
        assert stats.reclaimable_entries == 0

    def test_clear(self, backend):
        backend.put_payload("aa" * 32, "sim", {"x": 1})
        assert backend.clear() == 1
        assert backend.stats().entries == 0

    def test_get_many_returns_only_hits(self, backend):
        backend.put_payload("aa" * 32, "sim", {"x": 1})
        backend.put_payload("bb" * 32, "other", {"x": 2})
        found = backend.get_payload_many(["aa" * 32, "bb" * 32, "cc" * 32], "sim")
        assert found == {"aa" * 32: {"x": 1}}

    def test_gc_unreachable_schema(self, backend, pack):
        backend.put_payload("aa" * 32, "sim", {"x": 1})
        entry = pack.entry("aa" * 32)
        entry["schema"] = SCHEMA_VERSION + 1
        pack.write("aa" * 32, entry)
        backend.put_payload("bb" * 32, "sim", {"x": 2})
        stats = backend.stats()
        assert stats.reclaimable_entries == 1
        report = backend.gc()
        assert report.removed_entries == 1
        assert backend.get_payload("bb" * 32, "sim") is not None

    def test_gc_lru_order_and_max_bytes(self, backend, pack):
        now = time.time()
        for i, key in enumerate(["aa" * 32, "bb" * 32, "cc" * 32]):
            backend.put_payload(key, "sim", {"x": i})
            pack.set_mtime(key, now - 3600 + i)
        keep_bytes = len(pack.text("cc" * 32))
        report = backend.gc(max_bytes=keep_bytes, now=now)
        assert report.removed_entries == 2
        assert backend.get_payload("cc" * 32, "sim") is not None
        assert backend.get_payload("aa" * 32, "sim") is None

    def test_gc_max_age(self, backend, pack):
        now = time.time()
        backend.put_payload("aa" * 32, "sim", {"x": 1})
        backend.put_payload("bb" * 32, "sim", {"x": 2})
        pack.set_mtime("aa" * 32, now - 10 * 86400)
        report = backend.gc(max_age_days=7, now=now)
        assert report.removed_entries == 1
        assert backend.get_payload("bb" * 32, "sim") is not None
        assert backend.get_payload("aa" * 32, "sim") is None

    @pytest.mark.parametrize(
        "limits",
        [
            {"max_age_days": -1},
            {"max_bytes": -5},
            {"max_bytes": "10"},
            {"max_age_days": True},
            {"max_age_days": float("nan")},
        ],
        ids=["age-negative", "bytes-negative", "bytes-str", "age-bool", "age-nan"],
    )
    def test_gc_rejects_negative_or_non_numeric_limits(self, backend, limits):
        """A negative limit would evict every entry; the pack refuses it,
        and the served store answers 400, which the client surfaces."""
        backend.put_payload("aa" * 32, "sim", {"x": 1})
        rejected = ValueError if isinstance(backend, SqlitePackStore) else OSError
        with pytest.raises(rejected, match="must be"):
            backend.gc(**limits)
        assert backend.get_payload("aa" * 32, "sim") == {"x": 1}

    def test_hit_refreshes_lru_position(self, backend, pack):
        now = time.time()
        backend.put_payload("aa" * 32, "sim", {"x": 1})
        pack.set_mtime("aa" * 32, now - 10 * 86400)
        assert backend.get_payload("aa" * 32, "sim") is not None
        assert pack.mtime("aa" * 32) > now - 86400

    def test_size_bytes_matches_stats(self, backend):
        assert backend.size_bytes() == 0
        backend.put_payload("aa" * 32, "sim", {"x": 1})
        backend.put_payload("bb" * 32, "sim", {"x": 2})
        assert backend.size_bytes() == backend.stats().size_bytes

    def test_engine_round_trip(self, backend, tmp_path):
        cache = ResultCache(backend=backend)
        engine = ExperimentEngine(cache=cache)
        specs = [fast_spec(), fast_spec(load=0.08)]
        first = engine.run(specs)
        assert engine.last_stats.executed == 2
        again = engine.run(specs)
        assert engine.last_stats.executed == 0
        assert engine.last_stats.cache_hits == 2
        for a, b in zip(first, again):
            assert a.avg_latency == b.avg_latency
            assert a.latencies == b.latencies


class TestTouchGranularity:
    """A hit refreshes an entry's mtime only when the stamp is older than
    ``TOUCH_GRANULARITY_S``, so a warm read of fresh entries writes
    nothing — on the local pack and through ``RemoteStore`` alike."""

    FRESH = "aa" * 32
    STALE = "bb" * 32

    def check(self, reader, pack):
        """``reader`` serves the gets; ``pack`` is the SQLite file under it."""
        now = time.time()
        rows = PackEntries(pack.path)
        for i, key in enumerate((self.FRESH, self.STALE)):
            reader.put_payload(key, "sim", {"x": i})
        rows.set_mtime(self.FRESH, now - TOUCH_GRANULARITY_S / 2)
        rows.set_mtime(self.STALE, now - 2 * TOUCH_GRANULARITY_S)
        conn = pack._connect()
        changes = conn.total_changes
        assert reader.get_payload_many([self.FRESH], "sim") == {self.FRESH: {"x": 0}}
        assert conn.total_changes == changes
        assert not conn.in_transaction
        assert rows.mtime(self.FRESH) == now - TOUCH_GRANULARITY_S / 2

        found = reader.get_payload_many([self.FRESH, self.STALE], "sim")
        assert set(found) == {self.FRESH, self.STALE}
        assert conn.total_changes == changes + 1  # the stale row only
        assert not conn.in_transaction
        assert rows.mtime(self.FRESH) == now - TOUCH_GRANULARITY_S / 2
        assert rows.mtime(self.STALE) >= now

    def test_local_pack(self, tmp_path):
        pack = SqlitePackStore(tmp_path / "store.sqlite")
        self.check(pack, pack)

    def test_through_remote_store(self, tmp_path):
        pack = SqlitePackStore(tmp_path / "store.sqlite")
        with StoreServer(pack, quiet=True) as server:
            self.check(remote_store(server), pack)

    def test_gc_evicts_in_mtime_order_across_the_boundary(self, backend, pack):
        now = time.time()
        stale, fresh, newest = "aa" * 32, "bb" * 32, "cc" * 32
        ages = {stale: 2.0, fresh: 0.5, newest: 0.25}
        for i, (key, age) in enumerate(ages.items()):
            backend.put_payload(key, "sim", {"x": i})
            pack.set_mtime(key, now - age * TOUCH_GRANULARITY_S)
        # One read: the stale entry jumps to "now", the fresh ones keep
        # their stamps, so the LRU order becomes fresh < newest < stale.
        assert len(backend.get_payload_many(list(ages), "sim")) == 3
        size = len(pack.text(stale))
        assert backend.gc(max_bytes=2 * size).removed_entries == 1
        assert pack.keys() == [stale, newest]
        assert backend.gc(max_bytes=size).removed_entries == 1
        assert pack.keys() == [stale]


class TestBackendCrossEquivalence:
    def test_same_keys_and_payloads_via_both_backends(self, tmp_path):
        """One campaign written through the default cache directory, an
        explicit pack file, and a served store keeps identical canonical
        entries under identical keys."""
        specs = [fast_spec(), fast_spec(load=0.08)]
        default = open_backend(tmp_path / "cache")
        pack = open_backend(f"sqlite:{tmp_path / 'pack.sqlite'}")
        served = SqlitePackStore(tmp_path / "served.sqlite")
        with StoreServer(served, quiet=True) as server:
            remote = remote_store(server)
            for store in (default, pack, remote):
                ExperimentEngine(cache=ResultCache(backend=store)).run(specs)
        rows = [PackEntries(store.path) for store in (default, pack, served)]
        keys = rows[0].keys()
        assert keys == sorted(iter_spec_keys(specs))
        assert rows[1].keys() == rows[2].keys() == keys
        for key in keys:
            encoded = rows[0].text(key)
            assert rows[1].text(key) == encoded
            assert rows[2].text(key) == encoded

    def test_open_backend_dispatch(self, tmp_path):
        """Every accepted location form (the rejected ones are below)."""
        plain = open_backend(tmp_path / "plain")
        assert isinstance(plain, SqlitePackStore)
        assert plain.path == tmp_path / "plain" / "results.sqlite"
        assert open_backend(str(tmp_path / "plain")).path == plain.path
        (tmp_path / "existing").mkdir()
        assert open_backend(tmp_path / "existing").path.name == "results.sqlite"
        pack = open_backend(f"sqlite:{tmp_path}/pack.db")
        assert isinstance(pack, SqlitePackStore)
        assert pack.path == tmp_path / "pack.db"
        assert open_backend(f"SQLite:{tmp_path}/pack.db").path == pack.path
        # A pack-like name without the scheme is still a directory.
        assert open_backend(tmp_path / "x.sqlite").path.name == "results.sqlite"
        for url in ("http://127.0.0.1:1", "https://example.invalid:8123/"):
            assert isinstance(open_backend(url), RemoteStore)
        assert not any(tmp_path.glob("*/results.sqlite"))  # opening is lazy

    @pytest.mark.parametrize(
        "location",
        [
            "s3://bucket/prefix",
            "obj:http://127.0.0.1:1/bucket/prefix",
            "dir:cache",
            "ftp://host/cache",
        ],
    )
    def test_open_backend_rejects_unknown_schemes(self, location):
        """A retired or foreign scheme is an error, never a directory
        named after it."""
        with pytest.raises(ValueError, match="accepted forms: sqlite:FILE"):
            open_backend(location)

    def test_open_backend_rejects_a_file_as_cache_directory(self, tmp_path):
        pack = tmp_path / "pack.sqlite"
        SqlitePackStore(pack).put_payload("aa" * 32, "sim", {"x": 1})
        with pytest.raises(ValueError, match=f"'sqlite:{pack}'"):
            open_backend(pack)
        with pytest.raises(ValueError, match="sqlite:"):
            ResultCache(str(pack))

    def test_two_connections_share_one_pack(self, tmp_path):
        """Concurrent writers on one host: separate connections to the
        same pack see each other's entries, and gc (incremental vacuum,
        no exclusive lock) runs while the other connection stays open."""
        a = SqlitePackStore(tmp_path / "pack.sqlite")
        b = SqlitePackStore(tmp_path / "pack.sqlite")
        a.put_payload("aa" * 32, "sim", {"x": 1})
        b.put_payload("bb" * 32, "sim", {"x": 2})
        assert a.get_payload("bb" * 32, "sim") == {"x": 2}
        assert b.get_payload("aa" * 32, "sim") == {"x": 1}
        report = a.gc(max_bytes=0)
        assert report.removed_entries == 2
        assert b.stats().entries == 0

    def test_result_cache_path_still_means_directory(self, tmp_path):
        """A plain path is a cache directory holding one pack; an old
        one-JSON-file-per-entry tree inside it is ignored, so its points
        are simply re-simulated."""
        spec = fast_spec()
        key = spec.content_hash()
        legacy = tmp_path / "legacy" / key[:2] / f"{key}.json"
        legacy.parent.mkdir(parents=True)
        legacy.write_text(encode_entry({"schema": SCHEMA_VERSION, "kind": "sim"}))
        cache = ResultCache(tmp_path / "legacy")
        assert cache.backend.path == tmp_path / "legacy" / "results.sqlite"
        engine = ExperimentEngine(cache=cache)
        engine.run([spec])
        assert engine.last_stats.executed == 1
        assert cache.backend.path.is_file()
        assert PackEntries(cache.backend.path).keys() == [key]


class TestRemoteStore:
    """Wire-protocol behavior beyond the shared backend-equivalence
    suite: auth, retry/backoff, malformed requests, offline errors."""

    @pytest.fixture
    def server(self, tmp_path):
        with StoreServer(
            SqlitePackStore(tmp_path / "served.sqlite"), quiet=True
        ) as server:
            yield server

    def test_open_backend_and_result_cache_dispatch(self):
        store = open_backend("http://127.0.0.1:1/base/")
        assert isinstance(store, RemoteStore)
        assert store.location == "http://127.0.0.1:1/base"
        cache = ResultCache("https://example.invalid:8123")
        assert isinstance(cache.backend, RemoteStore)
        assert cache.location == "https://example.invalid:8123"

    def test_health_is_unauthenticated(self, tmp_path):
        with StoreServer(
            SqlitePackStore(tmp_path / "s.sqlite"), token="secret", quiet=True
        ) as server:
            health = remote_store(server).ping()
            assert health["ok"] is True
            assert health["schema"] == SCHEMA_VERSION

    def test_auth_token_rejection_and_acceptance(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_TOKEN", raising=False)
        with StoreServer(
            SqlitePackStore(tmp_path / "s.sqlite"), token="secret", quiet=True
        ) as server:
            with pytest.raises(RemoteAuthError):
                remote_store(server).put_payload("aa" * 32, "sim", {"x": 1})
            with pytest.raises(RemoteAuthError):
                remote_store(server, token="wrong").stats()
            good = remote_store(server, token="secret")
            good.put_payload("aa" * 32, "sim", {"x": 1})
            assert good.get_payload("aa" * 32, "sim") == {"x": 1}
            # Clients pick the token up from the environment by default.
            monkeypatch.setenv("REPRO_CACHE_TOKEN", "secret")
            assert remote_store(server).stats().entries == 1

    def test_non_ascii_token_compares_not_crashes(self, tmp_path, monkeypatch):
        """A non-ASCII token must yield a clean 401/200, never a handler
        crash (str compare_digest raises on non-ASCII input)."""
        monkeypatch.delenv("REPRO_CACHE_TOKEN", raising=False)
        with StoreServer(
            SqlitePackStore(tmp_path / "s.sqlite"), token="sécret", quiet=True
        ) as server:
            with pytest.raises(RemoteAuthError):
                remote_store(server, token="wröng").stats()
            assert remote_store(server, token="sécret").stats().entries == 0

    def test_retry_with_backoff_on_transient_failures(self, server):
        sleeps = []
        store = remote_store(
            server, retries=4, backoff=0.05, sleep=sleeps.append, jitter=lambda: 1.0
        )
        store.put_payload("aa" * 32, "sim", {"x": 1})
        server.inject_failures(2)
        assert store.get_payload("aa" * 32, "sim") == {"x": 1}
        assert sleeps == [0.05, 0.1]  # exponential backoff, then success

    def test_retries_exhausted_surface_one_clear_error(self, server):
        server.inject_failures(10)
        store = remote_store(server, sleep=lambda _s: None)
        with pytest.raises(RemoteStoreError, match="unreachable after 2"):
            store.stats()

    @pytest.mark.parametrize(
        "endpoint, body",
        [
            ("payloads/get", {}),  # KeyError
            ("payloads/put", {"items": 5}),  # TypeError
            ("gc", {"max_age_days": -1}),  # ValueError
        ],
        ids=["missing-field", "wrong-type", "out-of-range"],
    )
    def test_malformed_request_is_a_client_error(self, server, endpoint, body):
        request = urllib.request.Request(
            f"{server.url}/{endpoint}",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400

    def test_malformed_content_length_is_a_client_error(self, tmp_path):
        """A ``Content-Length`` that is not a non-negative integer gets a
        counted 400 and nothing is read: no handler thread is left
        waiting on the socket, so ``close()`` returns promptly while the
        client connections are still open."""
        server = StoreServer(SqlitePackStore(tmp_path / "s.sqlite"), quiet=True)
        server.start()
        before = REGISTRY.value(
            "repro_server_requests_total", endpoint="/stats", method="POST"
        )
        connections = []
        try:
            for length in ("abc", "-1"):
                conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
                connections.append(conn)
                conn.putrequest("POST", "/stats")
                conn.putheader("Content-Length", length)
                conn.endheaders()
                response = conn.getresponse()
                assert response.status == 400
                error = json.loads(response.read())["error"]
                assert error == f"invalid Content-Length {length!r}"
        finally:
            started = time.monotonic()
            server.close()
            closed_in = time.monotonic() - started
            for conn in connections:
                conn.close()
        assert closed_in < 2.0
        after = REGISTRY.value(
            "repro_server_requests_total", endpoint="/stats", method="POST"
        )
        assert after - before == 2

    def test_truncated_body_cannot_pin_close(self, tmp_path, monkeypatch):
        """A POST that declares more body than it sends times out: the
        handler answers 408 after its socket timeout, so ``close()``
        returns within that bound while the client socket is still open."""
        handler = http_module._StoreHandler
        assert handler.timeout == http_module.HANDLER_SOCKET_TIMEOUT_S
        assert handler.timeout < RemoteStore("http://127.0.0.1:1").timeout / 2
        bound = 0.5  # the same mechanism, faster than the real 5 s
        monkeypatch.setattr(handler, "timeout", bound)
        server = StoreServer(SqlitePackStore(tmp_path / "s.sqlite"), quiet=True)
        server.start()
        sock = socket.create_connection((server.host, server.port), timeout=5)
        closer = threading.Thread(target=server.close)
        try:
            sock.sendall(
                b"POST /stats HTTP/1.0\r\nContent-Length: 100\r\n\r\n"
            )
            time.sleep(0.1)  # the handler is now blocked reading the body
            closer.start()
            closer.join(timeout=bound + 1.5)
            closed = not closer.is_alive()
            reply = sock.recv(4096) if closed else b""
        finally:
            sock.close()  # releases a pinned handler if the timeout failed
            closer.join()
        assert closed, "close() waited on the truncated request"
        assert reply.startswith(b"HTTP/1.0 408")

    def test_client_error_is_not_retried(self, server):
        store = remote_store(server, retries=4)
        store.put_payload("aa" * 32, "sim", {"x": 1})
        sleeps = []
        store._sleep = sleeps.append
        before = REGISTRY.value(
            "repro_server_requests_total", endpoint="/gc", method="POST"
        )
        with pytest.raises(RemoteStoreError, match="HTTP 400"):
            store.gc(max_age_days=-1)
        # The handler counts a request after its reply is sent, so the
        # client can get here first: wait (bounded) for the count to land.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            after = REGISTRY.value(
                "repro_server_requests_total", endpoint="/gc", method="POST"
            )
            if after != before:
                break
            time.sleep(0.01)
        assert after - before == 1 and sleeps == []
        assert store.stats().entries == 1

    def test_offline_server_error_names_the_cure(self, tmp_path):
        server = StoreServer(SqlitePackStore(tmp_path / "s.sqlite"))
        url = server.url
        server.close()  # nothing listens on that port anymore
        store = RemoteStore(url, retries=2, backoff=0, sleep=lambda _s: None)
        with pytest.raises(RemoteStoreError, match="repro serve"):
            store.stats()

    def test_concurrent_writers_share_one_live_endpoint(self, server):
        """Two engines write disjoint halves of one sweep into the same
        live endpoint at once, and the full rerun (from any client)
        simulates nothing.  No store files move between cache
        locations."""
        halves = [LOADS[0::2], LOADS[1::2]]
        errors = []

        def write(loads):
            try:
                engine = ExperimentEngine(
                    cache=ResultCache(backend=remote_store(server))
                )
                run_compare(
                    engine, {"sn54": "sn54"}, "RND", loads, **FAST,
                    stop_after_saturation=False,
                )
                assert engine.total_stats.executed == len(loads)
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        writers = [threading.Thread(target=write, args=(h,)) for h in halves]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        assert not errors, errors
        engine = ExperimentEngine(cache=ResultCache(backend=remote_store(server)))
        curves = run_compare(engine, {"sn54": "sn54"}, "RND", LOADS, **FAST)
        assert engine.total_stats.executed == 0
        assert [p.load for p in curves["sn54"].points] == LOADS


class TestQueuedCampaignCli:
    """``compare --queue`` and ``workloads --queue`` end to end: the CLI
    submits the grid to an in-process coordinator, a worker thread
    drains it, and the final report simulates nothing and matches a
    local run's rows."""

    @pytest.fixture
    def coordinator(self, tmp_path):
        backend = SqlitePackStore(tmp_path / "coordinator.sqlite")
        with StoreServer(backend, quiet=True, queue=JobQueue(backend)) as server:
            worker = QueueWorker(server.url, worker_id="t1", sleep=0.05)
            thread = threading.Thread(target=worker.run)
            thread.start()
            try:
                yield server.url, worker
            finally:
                worker.request_stop()
                thread.join(timeout=60)
        backend.close()

    def run_cli(self, argv, capsys):
        from repro.__main__ import main

        capsys.readouterr()
        assert main(argv) == 0
        return capsys.readouterr().out

    @staticmethod
    def split_report(out):
        """``(rows, engine_line)``: the report without its timing lines."""
        lines = out.splitlines()
        (engine,) = [line for line in lines if line.startswith("  engine:")]
        rows = [
            line for line in lines if not line.startswith(("  engine:", "  stages:"))
        ]
        return rows, engine

    def test_compare_queue_matches_local_run(self, tmp_path, coordinator, capsys):
        url, worker = coordinator
        argv = [
            "compare", "sn54", "cm54", "--loads", "0.02,0.05,0.3", "--quiet",
            "--warmup", "100", "--measure", "200", "--drain", "300",
        ]
        queued = self.run_cli(argv + ["--queue", url], capsys)
        local = self.run_cli(argv + ["--cache-dir", str(tmp_path / "local")], capsys)
        rows, engine = self.split_report(queued)
        assert " 0 simulated" in engine
        assert rows == self.split_report(local)[0]
        assert worker.stats.done == 6  # the whole grid, past saturation too

    def test_workloads_queue_matches_local_run(self, tmp_path, coordinator, capsys):
        url, worker = coordinator
        argv = [
            "workloads", "sn54", "cm54", "--benches", "barnes,fft", "--quiet",
            "--warmup", "100", "--measure", "200", "--drain", "300",
        ]
        queued_json = tmp_path / "queued.json"
        local_json = tmp_path / "local.json"
        self.run_cli(argv + ["--queue", url, "--json", str(queued_json)], capsys)
        self.run_cli(
            argv
            + ["--cache-dir", str(tmp_path / "local"), "--json", str(local_json)],
            capsys,
        )
        queued = json.loads(queued_json.read_text())
        local = json.loads(local_json.read_text())
        assert queued["engine"]["executed"] == 0
        assert local["engine"]["executed"] == 4
        assert queued["rows"] == local["rows"]
        assert queued["edp_normalized"] == local["edp_normalized"]
        assert worker.stats.done == 4


class TestAutoGC:
    def test_put_past_threshold_triggers_lru_gc(self, tmp_path, caplog):
        cache = ResultCache(tmp_path, max_bytes=1)  # any put overflows
        engine = ExperimentEngine(cache=cache)
        with caplog.at_level(logging.INFO, logger="repro.engine.store"):
            engine.run([fast_spec()])
        assert any("auto-gc" in record.message for record in caplog.records)
        assert cache.stats().entries == 0  # budget of 1 byte keeps nothing

    def test_threshold_keeps_newest_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(cache=cache)
        engine.run([fast_spec()])
        entry_bytes = cache.stats().size_bytes
        # Budget for ~2 entries; running 4 specs one at a time must evict
        # the oldest as each new one lands.
        cache.max_bytes = int(entry_bytes * 2.5)
        specs = [fast_spec(load=0.02 + 0.01 * i) for i in range(4)]
        for spec in specs:
            engine.run([spec])
            time.sleep(0.02)  # keep mtime order unambiguous
        assert cache.stats().size_bytes <= cache.max_bytes
        assert cache.get(specs[-1]) is not None

    def test_env_var_sets_threshold(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
        assert ResultCache(tmp_path).max_bytes == 12345
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "junk")
        assert ResultCache(tmp_path).max_bytes is None
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES")
        assert ResultCache(tmp_path).max_bytes is None


class TestRunnerDurability:
    def test_partial_results_survive_a_failing_batch(self, tmp_path):
        """Results that finished before a miss raised are flushed to the
        store — an interrupted campaign never re-simulates paid-for work."""
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(cache=cache)
        good = fast_spec()
        bad = fast_spec(topology="fp:" + "0" * 64)
        with pytest.raises(LookupError):  # no topology has that fingerprint
            engine.run([good, bad])
        assert cache.get(good) is not None


class TestPoolLifecycle:
    """A pool is built per parallel batch and joined before ``run``
    returns; cache replays and one-miss batches build none."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """Sizes of the pools the runner builds, counted through its
        module attribute."""
        import repro.engine.runner as runner_module

        real = runner_module.ProcessPoolExecutor
        built = []

        def counting(*args, **kwargs):
            built.append(kwargs["max_workers"])
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", counting)
        return built

    def test_pure_cache_run_builds_no_pool(self, tmp_path, pools):
        cache = ResultCache(tmp_path)
        specs = [fast_spec(load=x) for x in (0.02, 0.05, 0.08)]
        ExperimentEngine(cache=cache).run(specs)
        engine = ExperimentEngine(cache=cache, max_workers=4)
        results = engine.run(specs)
        assert engine.last_stats.cache_hits == len(specs)
        assert len(results) == len(specs)
        assert pools == []

    def test_one_miss_batch_builds_no_pool(self, tmp_path, pools):
        engine = ExperimentEngine(cache=ResultCache(tmp_path), max_workers=4)
        engine.run([fast_spec()])
        assert engine.last_stats.executed == 1
        assert pools == []

    def test_parallel_batch_reaps_its_workers(self, tmp_path, pools):
        import multiprocessing
        import resource

        def children_cpu() -> float:
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime

        engine = ExperimentEngine(cache=ResultCache(tmp_path), max_workers=4)
        specs = [fast_spec(load=x) for x in (0.02, 0.05, 0.08)]
        before = children_cpu()
        engine.run(specs)
        assert pools == [3]  # sized to the batch's misses
        assert multiprocessing.active_children() == []
        reaped = children_cpu() - before
        # The reaped workers' CPU seconds against the same specs' CPU
        # seconds in this process: a busy host stretches wall time, not
        # CPU time, so it slows neither side of the comparison.
        start = time.process_time()
        for spec in specs:
            spec.execute()
        assert reaped >= 0.5 * (time.process_time() - start)
        engine.run(specs)  # all hits now
        assert pools == [3]

    def test_parallel_batch_on_a_forkserver_pool(self, tmp_path, monkeypatch):
        """A worker whose parent is a forkserver, not the engine, must
        not take that for an orphaned pool (the default start method on
        Linux from Python 3.14).  Such a worker inherits no minted
        fingerprint, so a fingerprint spec runs on the object shipped
        with it."""
        import multiprocessing

        import repro.engine.runner as runner_module
        from repro.engine import topology_token
        from repro.topos import make_network

        real = runner_module.ProcessPoolExecutor

        def forkserver_pool(**kwargs):
            kwargs["mp_context"] = multiprocessing.get_context("forkserver")
            return real(**kwargs)

        specs = [fast_spec(load=x) for x in (0.02, 0.05, 0.08)]
        specs.append(fast_spec(topology=topology_token(make_network("cm54"))))
        serial = ExperimentEngine(cache=None).run(specs)
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", forkserver_pool)
        engine = ExperimentEngine(cache=ResultCache(tmp_path), max_workers=3)
        parallel = engine.run(specs)
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]
        assert engine.last_stats.executed == len(specs)
        assert multiprocessing.active_children() == []

    def test_failing_parallel_batch_keeps_what_finished(self, tmp_path):
        """When one worker's spec raises, the specs other workers were
        already running still reach the store."""
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(cache=cache, max_workers=3)
        bad = fast_spec(topology="no-such-network")
        good = [fast_spec(load=x) for x in (0.02, 0.05)]
        with pytest.raises(ValueError, match="no-such-network"):
            engine.run([bad, *good])
        assert all(cache.get(spec) is not None for spec in good)

    @pytest.mark.parametrize("start_method", ["default", "forkserver"])
    def test_workers_exit_when_the_engine_process_is_killed(self, start_method):
        """A SIGKILLed parent cannot shut its pool down; its workers
        must not linger (one is mid-way through a long simulation),
        whether they are its children or a forkserver's."""
        long_specs = [fast_spec(load=x, measure=200_000) for x in (0.05, 0.06)]
        src = Path(__file__).resolve().parents[1] / "src"
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(src)
        parent = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _ORPHANED_POOL_CHILD,
                start_method,
                *(json.dumps(spec.to_dict()) for spec in long_specs),
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        workers = []
        try:
            workers = json.loads(parent.stdout.readline())
            assert len(workers) == 2
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=10)
            deadline = time.monotonic() + 15
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(map(_alive, workers))
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait()
            parent.stdout.close()
            for pid in filter(_alive, workers):
                os.kill(pid, signal.SIGKILL)


#: Starts a two-worker batch of long simulations on a background thread
#: (on a pool of the start method in argv[1], or the runner's own),
#: prints the worker pids once both exist, then waits to be killed.
_ORPHANED_POOL_CHILD = """
import json, multiprocessing, sys, threading, time
import repro.engine.runner as runner
from repro.engine import ExperimentEngine, ExperimentSpec
if sys.argv[1] != "default":
    real = runner.ProcessPoolExecutor
    def pool(**kwargs):
        kwargs["mp_context"] = multiprocessing.get_context(sys.argv[1])
        return real(**kwargs)
    runner.ProcessPoolExecutor = pool
specs = [ExperimentSpec.from_dict(json.loads(arg)) for arg in sys.argv[2:]]
engine = ExperimentEngine(max_workers=2)
threading.Thread(target=engine.run, args=(specs,), daemon=True).start()
deadline = time.monotonic() + 30
while len(multiprocessing.active_children()) < 2 and time.monotonic() < deadline:
    time.sleep(0.05)
print(json.dumps([child.pid for child in multiprocessing.active_children()]))
sys.stdout.flush()
time.sleep(600)
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a running (not exited, not zombie) process."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


class TestBoundedIterationAt50k:
    """A 50k-entry pack, filled in batches of 500, reports its stats and
    empties fully through gc; both page over the pack internally."""

    N = 50_000

    def test_sqlite_stats_gc_stay_bounded(self, tmp_path):
        pack = SqlitePackStore(tmp_path / "big.sqlite")
        # No "spec" field: reachable under every schema check, and small
        # enough that 50k of them build in a few seconds.
        items = [
            (f"{i:08x}" + "00" * 28, "sim", {"i": i}, None) for i in range(self.N)
        ]
        for batch in chunked(items):
            pack.put_payload_many(batch)

        stats = pack.stats()
        assert stats.entries == self.N
        assert stats.reclaimable_entries == 0
        assert pack.gc(max_bytes=0).removed_entries == self.N
        assert pack.stats().entries == 0


class TestWireProtocolV2:
    """The endpoint set: since protocol 2 there is no full key dump, and
    since protocol 3 no key listing and no raw-entry calls."""

    @pytest.fixture
    def server(self, tmp_path):
        with StoreServer(
            SqlitePackStore(tmp_path / "served.sqlite"), quiet=True
        ) as server:
            yield server

    def test_health_advertises_protocol(self, server):
        health = remote_store(server).ping()
        assert health["protocol"] == http_module.PROTOCOL_VERSION
        assert health["protocol"] == 3

    def test_transfer_endpoints_are_gone(self, server):
        """Protocol 3 dropped the key listing and the raw-entry calls."""
        store = remote_store(server)
        store.put_payload("aa" * 32, "sim", {"x": 1})
        for endpoint in ("keys/list", "entries/get", "entries/put"):
            with pytest.raises(RemoteStoreError, match="HTTP 404"):
                store._call(endpoint, {"keys": ["aa" * 32]})

    def test_full_key_dump_endpoint_is_gone(self, server):
        """No endpoint dumps the key set."""
        with pytest.raises(RemoteStoreError, match="HTTP 404"):
            remote_store(server)._call("keys")

