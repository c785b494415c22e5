"""Fault-tolerant work queue: leases, quarantine, restart, chaos recovery."""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.engine import (
    ExperimentEngine,
    ExperimentSpec,
    JobQueue,
    QueueClient,
    QueueWorker,
    RemoteStore,
    RemoteStoreError,
    ResultCache,
    SqlitePackStore,
    StoreServer,
    jobs_for_specs,
    topology_token,
)
from repro.obs.metrics import REGISTRY
from repro.topos import make_network
from faulty import FaultyBackend, InjectedFault

SRC = Path(__file__).resolve().parent.parent / "src"

#: Tiny but shape-preserving windows for the sn54 class.
FAST = dict(warmup=100, measure=200, drain=300)


def fast_spec(load=0.05, **overrides) -> ExperimentSpec:
    kw = dict(topology="sn54", pattern="RND", load=load, **FAST)
    kw.update(overrides)
    return ExperimentSpec.synthetic(
        kw.pop("topology"), kw.pop("pattern"), kw.pop("load"), **kw
    )


def spec_grid(n=6) -> list[ExperimentSpec]:
    return [fast_spec(load=0.01 + 0.005 * i) for i in range(n)]


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def backend(tmp_path):
    store = SqlitePackStore(tmp_path / "q.sqlite")
    yield store
    store.close()


def make_queue(backend, **kw) -> JobQueue:
    kw.setdefault("lease_seconds", 10.0)
    return JobQueue(backend, **kw)


class TestJobQueue:
    def test_submit_orders_heaviest_first(self, backend):
        queue = make_queue(backend)
        jobs = [
            {"key": "a" * 64, "spec": fast_spec(load=0.02).to_dict(), "cost": 1.0},
            {"key": "b" * 64, "spec": fast_spec(load=0.30).to_dict(), "cost": 9.0},
            {"key": "c" * 64, "spec": fast_spec(load=0.10).to_dict(), "cost": 4.0},
        ]
        reply = queue.submit(jobs)
        assert reply["accepted"] == 3 and reply["total"] == 3
        grant = queue.claim("w1", max_specs=3)
        keys = [job["key"] for job in grant["lease"]["jobs"]]
        assert keys == ["b" * 64, "c" * 64, "a" * 64]

    def test_submit_is_idempotent_by_key(self, backend):
        queue = make_queue(backend)
        jobs = jobs_for_specs(spec_grid(3))
        assert queue.submit(jobs)["accepted"] == 3
        again = queue.submit(jobs)
        assert again["accepted"] == 0 and again["duplicates"] == 3
        assert queue.status()["total"] == 3

    def test_store_resident_results_are_done_at_submit(self, backend):
        spec = fast_spec()
        ExperimentEngine(cache=ResultCache(backend=backend)).run([spec])
        queue = make_queue(backend)
        reply = queue.submit(jobs_for_specs([spec]))
        assert reply["cached"] == 1 and reply["accepted"] == 0
        status = queue.status()
        assert status["done"] == 1 and status["drained"]
        assert queue.claim("w1")["state"] == "drained"

    @pytest.mark.parametrize(
        "bad_job", [{"key": "ab" * 32}, {"key": 5, "spec": {}}], ids=["no-spec", "int-key"]
    )
    def test_malformed_job_rejects_the_whole_submit(self, backend, bad_job):
        """A malformed job must not strand the jobs before it as known
        keys that never become pending (a retry would call them
        duplicates and the queue would read drained with none done)."""
        queue = make_queue(backend)
        jobs = jobs_for_specs(spec_grid(2))
        with pytest.raises((KeyError, ValueError)):
            queue.submit(jobs + [bad_job])
        assert queue.status()["total"] == 0
        assert queue.submit(jobs)["accepted"] == 2

    def test_empty_queue_reads_empty_not_drained(self, backend):
        """Workers may join the fleet before the campaign is submitted."""
        queue = make_queue(backend)
        assert queue.claim("early-bird")["state"] == "empty"
        assert not queue.status()["drained"]

    def test_expired_lease_returns_specs_to_queue(self, backend):
        clock = FakeClock()
        queue = make_queue(backend, clock=clock)
        queue.submit(jobs_for_specs(spec_grid(2)))
        before = REGISTRY.value("repro_queue_requeued_total", reason="expired")
        grant = queue.claim("w1", max_specs=2)
        assert grant["state"] == "lease"
        assert queue.claim("w2")["state"] == "empty"
        clock.advance(10.1)  # past the lease deadline
        regrant = queue.claim("w2", max_specs=2)
        assert regrant["state"] == "lease"
        assert {j["key"] for j in regrant["lease"]["jobs"]} == {
            j["key"] for j in grant["lease"]["jobs"]
        }
        after = REGISTRY.value("repro_queue_requeued_total", reason="expired")
        assert after == before + 2

    def test_heartbeat_extends_the_lease(self, backend):
        clock = FakeClock()
        queue = make_queue(backend, clock=clock)
        queue.submit(jobs_for_specs(spec_grid(1)))
        grant = queue.claim("w1")
        lease_id = grant["lease"]["id"]
        for _ in range(3):
            clock.advance(8.0)  # under the 10s lease each time
            assert queue.heartbeat(lease_id)["ok"]
        assert queue.claim("w2")["state"] == "empty"  # still held
        clock.advance(10.1)
        assert not queue.heartbeat(lease_id)["ok"]  # expired → unknown

    def test_complete_is_idempotent_and_stale_safe(self, backend):
        clock = FakeClock()
        queue = make_queue(backend, clock=clock)
        queue.submit(jobs_for_specs(spec_grid(2)))
        grant = queue.claim("w1", max_specs=2)
        keys = [j["key"] for j in grant["lease"]["jobs"]]
        clock.advance(10.1)
        regrant = queue.claim("w2", max_specs=1)  # w1's batch expired
        # The stale worker still reports: done counts, but the key now
        # leased to w2 must not be double-queued.
        reply = queue.complete(grant["lease"]["id"], "w1", done=[keys[1]])
        assert reply["ok"] and not reply["known_lease"]
        assert queue.status()["done"] == 1
        reply = queue.complete(regrant["lease"]["id"], "w2", done=[keys[0]])
        assert reply["known_lease"]
        status = queue.status()
        assert status["done"] == 2 and status["drained"]
        assert status["pending"] == 0

    def test_unsettled_lease_keys_are_released(self, backend):
        queue = make_queue(backend)
        queue.submit(jobs_for_specs(spec_grid(3)))
        grant = queue.claim("w1", max_specs=3)
        keys = [j["key"] for j in grant["lease"]["jobs"]]
        queue.complete(grant["lease"]["id"], "w1", done=keys[:1])
        status = queue.status()
        assert status["done"] == 1 and status["pending"] == 2

    def test_quarantine_after_distinct_workers(self, backend):
        queue = make_queue(backend, quarantine_workers=2, max_attempts=5)
        queue.submit(jobs_for_specs(spec_grid(1)))
        grant = queue.claim("w1")
        key = grant["lease"]["jobs"][0]["key"]
        reply = queue.complete(
            grant["lease"]["id"], "w1", failed=[{"key": key, "error": "boom"}]
        )
        assert reply["quarantined"] == []  # one worker is not enough
        grant = queue.claim("w2")
        reply = queue.complete(
            grant["lease"]["id"], "w2", failed=[{"key": key, "error": "boom"}]
        )
        assert reply["quarantined"] == [key]
        status = queue.status()
        assert status["quarantined"] == 1 and status["drained"]
        report = status["quarantine"][0]
        assert report["attempts"] == 2 and sorted(report["workers"]) == ["w1", "w2"]

    def test_quarantine_after_max_attempts_single_worker(self, backend):
        """A one-worker fleet still terminates on a poison spec."""
        queue = make_queue(backend, quarantine_workers=3, max_attempts=2)
        queue.submit(jobs_for_specs(spec_grid(1)))
        for round_no in range(2):
            grant = queue.claim("only-worker")
            key = grant["lease"]["jobs"][0]["key"]
            reply = queue.complete(
                grant["lease"]["id"],
                "only-worker",
                failed=[{"key": key, "error": f"crash {round_no}"}],
            )
        assert reply["quarantined"] == [key]
        assert queue.claim("only-worker")["state"] == "drained"

    def test_state_survives_coordinator_restart(self, backend):
        clock = FakeClock()
        queue = make_queue(backend, clock=clock)
        queue.submit(jobs_for_specs(spec_grid(4)), topologies={"sn54": "sn54"})
        grant = queue.claim("w1", max_specs=2)
        keys = [j["key"] for j in grant["lease"]["jobs"]]
        queue.complete(grant["lease"]["id"], "w1", done=[keys[0]], released=[keys[1]])
        reborn = JobQueue.load(backend, lease_seconds=10.0)
        status = reborn.status()
        assert status["total"] == 4 and status["done"] == 1
        assert status["pending"] == 3  # leases are volatile; nothing stranded
        assert reborn.topologies == {"sn54": "sn54"}

    def test_restart_absorbs_results_landed_after_last_persist(self, backend):
        specs = spec_grid(2)
        queue = make_queue(backend)
        queue.submit(jobs_for_specs(specs))
        # A worker crashes after its write-back but before complete():
        # the result is in the store, the queue never heard about it.
        ExperimentEngine(cache=ResultCache(backend=backend)).run([specs[0]])
        reborn = JobQueue.load(backend, lease_seconds=10.0)
        status = reborn.status()
        assert status["done"] == 1 and status["pending"] == 1

    def test_in_flight_lease_requeued_on_restart(self, backend):
        queue = make_queue(backend)
        queue.submit(jobs_for_specs(spec_grid(2)))
        queue.claim("w1", max_specs=2)
        reborn = JobQueue.load(backend, lease_seconds=10.0)
        assert reborn.status()["pending"] == 2
        assert reborn.claim("w2", max_specs=2)["state"] == "lease"


class TestQueueWire:
    """The queue protocol over a live ephemeral-port server."""

    def test_round_trip_over_http(self, backend):
        queue = make_queue(backend)
        with StoreServer(backend, quiet=True, queue=queue) as server:
            client = QueueClient(server.url)
            specs = spec_grid(2)
            reply = client.submit(
                jobs_for_specs(specs), topologies={"sn54": "sn54"}
            )
            assert reply["accepted"] == 2
            grant = client.claim("w1", max_specs=1)
            assert grant["state"] == "lease"
            lease = grant["lease"]
            assert lease["topologies"] == {"sn54": "sn54"}
            assert client.heartbeat(lease["id"])["ok"]
            reply = client.complete(
                lease["id"], "w1", done=[lease["jobs"][0]["key"]]
            )
            assert reply["ok"] and reply["known_lease"]
            status = client.status()
            assert status["done"] == 1 and status["pending"] == 1

    def test_queue_endpoints_404_when_disabled(self, backend):
        with StoreServer(backend, quiet=True) as server:
            client = QueueClient(server.url, retries=1)
            with pytest.raises(RemoteStoreError, match="repro serve --queue"):
                client.status()

    def test_queue_endpoints_require_the_token(self, backend):
        from repro.engine import RemoteAuthError

        queue = make_queue(backend)
        with StoreServer(
            backend, token="secret", quiet=True, queue=queue
        ) as server:
            with pytest.raises(RemoteAuthError):
                QueueClient(server.url, retries=1).status()
            client = QueueClient(server.url, token="secret")
            assert client.status()["total"] == 0

    def test_missing_field_is_a_client_error(self, backend):
        queue = make_queue(backend)
        with StoreServer(backend, quiet=True, queue=queue) as server:
            request = urllib.request.Request(
                server.url + "/queue/claim",
                data=json.dumps({}).encode(),  # no "worker"
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request)
            assert err.value.code == 400


class TestRetryHardening:
    def test_retry_after_header_overrides_backoff(self, backend):
        with StoreServer(backend, quiet=True) as server:
            server.inject_failures(1, retry_after=0.7)
            sleeps = []
            store = RemoteStore(
                server.url, retries=3, backoff=99.0, sleep=sleeps.append
            )
            store.put_payload("aa" * 32, "sim", {"x": 1})
            assert sleeps == [0.7]  # server-directed, not 99s exponential

    def test_full_jitter_scales_the_backoff(self, backend):
        with StoreServer(backend, quiet=True) as server:
            server.inject_failures(2)
            sleeps = []
            store = RemoteStore(
                server.url,
                retries=4,
                backoff=0.8,
                sleep=sleeps.append,
                jitter=lambda: 0.5,
            )
            assert store.get_payload("aa" * 32, "sim") is None
            assert sleeps == [0.4, 0.8]  # backoff * 2**(n-1) * jitter

    def test_retry_wall_budget_caps_the_outage(self, backend):
        with StoreServer(backend, quiet=True) as server:
            server.inject_failures(10)
            store = RemoteStore(
                server.url,
                retries=8,
                backoff=30.0,
                max_retry_seconds=1.0,
                sleep=lambda _s: None,
                jitter=lambda: 1.0,
            )
            with pytest.raises(RemoteStoreError, match="retry budget"):
                store.get_payload("aa" * 32, "sim")

    def test_fail_every_nth_request(self, backend):
        with StoreServer(backend, quiet=True, fail_every=2) as server:
            retries_before = REGISTRY.value(
                "repro_store_retries_total", endpoint="payloads/put"
            )
            store = RemoteStore(
                server.url, retries=3, backoff=0.0, sleep=lambda _s: None
            )
            for i in range(4):
                store.put_payload(f"{i:02d}" * 32, "sim", {"x": i})
            retries_after = REGISTRY.value(
                "repro_store_retries_total", endpoint="payloads/put"
            )
            assert retries_after >= retries_before + 2
            assert store.stats().entries == 4  # every write landed anyway

    def test_health_and_metrics_exempt_from_injection(self, backend):
        with StoreServer(backend, quiet=True) as server:
            server.inject_failures(5)
            with urllib.request.urlopen(server.url + "/health") as resp:
                assert resp.status == 200
            with urllib.request.urlopen(server.url + "/metrics") as resp:
                assert resp.status == 200
            assert server._httpd.fail_requests == 5  # untouched


class TestFaultyBackend:
    def test_fail_next_then_recover(self, backend):
        faulty = FaultyBackend(backend)
        faulty.fail_next(1)
        with pytest.raises(InjectedFault):
            faulty.put_payload("aa" * 32, "sim", {"x": 1})
        assert faulty.faults_injected == 1
        faulty.put_payload("aa" * 32, "sim", {"x": 1})
        assert faulty.get_payload("aa" * 32, "sim") == {"x": 1}

    def test_fail_every_is_deterministic(self, backend):
        faulty = FaultyBackend(backend, fail_every=2)
        outcomes = []
        for i in range(4):
            try:
                faulty.put_payload(f"{i:02d}" * 32, "sim", {"x": i})
                outcomes.append("ok")
            except InjectedFault:
                outcomes.append("fault")
        assert outcomes == ["ok", "fault", "ok", "fault"]

    def test_maintenance_ops_pass_through(self, backend):
        faulty = FaultyBackend(backend)
        faulty.fail_next(100)
        assert faulty.stats().entries == 0  # not a failable op
        faulty.close()  # tears down cleanly even while "failing"

    def test_queue_persist_survives_store_faults(self, backend):
        """persist() is best-effort: a flaky store must not take down a
        queue operation (state is re-persisted on the next one)."""
        faulty = FaultyBackend(backend)
        queue = make_queue(faulty)
        faulty.fail_next(1)
        queue.submit(jobs_for_specs(spec_grid(1)))  # persist fault swallowed
        assert queue.status()["total"] == 1
        queue.persist()  # healthy again: state lands
        assert JobQueue.load(backend).status()["total"] == 1


class TestQueueWorker:
    def test_worker_drains_the_queue(self, backend):
        queue = make_queue(backend)
        specs = spec_grid(3)
        queue.submit(jobs_for_specs(specs), topologies={"sn54": "sn54"})
        with StoreServer(backend, quiet=True, queue=queue) as server:
            worker = QueueWorker(
                server.url, worker_id="t1", max_specs=2, sleep=0.05
            )
            stats = worker.run()
            assert stats.done == 3 and stats.failed == 0
            assert stats.executed == 3
            status = QueueClient(server.url).status()
            assert status["drained"] and status["done"] == 3
        # Every result is in the coordinator's store: a local engine
        # pointed at it re-simulates nothing.
        engine = ExperimentEngine(cache=ResultCache(backend=backend))
        engine.run(specs)
        assert engine.total_stats.executed == 0
        assert engine.total_stats.cache_hits == 3

    def test_second_worker_sees_drained_and_exits(self, backend):
        queue = make_queue(backend)
        queue.submit(jobs_for_specs(spec_grid(1)))
        with StoreServer(backend, quiet=True, queue=queue) as server:
            QueueWorker(server.url, worker_id="t1", sleep=0.05).run()
            late = QueueWorker(server.url, worker_id="t2", sleep=0.05)
            stats = late.run()
            assert stats.leases == 0 and stats.done == 0

    def test_poison_spec_is_isolated_and_quarantined(self, backend):
        queue = make_queue(backend, quarantine_workers=1)
        good = fast_spec()
        # An unknown network decodes (and hashes to its own key) but fails
        # in the engine.
        poison = fast_spec(load=0.08).to_dict()
        poison["topology"] = "no-such-network"
        poison_key = ExperimentSpec.from_dict(poison).content_hash()
        # Non-finite loads fail when the worker rebuilds the spec.
        nan_load = fast_spec(load=0.08).to_dict()
        nan_load["source"]["load"] = float("nan")
        nan_scale = ExperimentSpec.workload("sn54", "barnes", **FAST).to_dict()
        nan_scale["source"]["intensity_scale"] = float("nan")
        # A spec dict that lacks a field, or names a window no run can
        # measure, fails to decode as a ValueError, not a worker crash.
        no_topology = fast_spec(load=0.08).to_dict()
        del no_topology["topology"]
        no_window = fast_spec(load=0.08).to_dict()
        no_window["measure"] = 0
        # A config no router can be built from fails the same way.
        no_hops = fast_spec(load=0.08).to_dict()
        no_hops["config"]["hops_per_cycle"] = 0
        # A retired knob is refused too.
        slow_router = fast_spec(load=0.08).to_dict()
        slow_router["config"]["router_delay"] = 3
        bad = {
            poison_key: poison,
            "ef" * 32: nan_load,
            "fe" * 32: nan_scale,
            "ed" * 32: no_topology,
            "de" * 32: no_window,
            "dd" * 32: no_hops,
            "df" * 32: slow_router,
        }
        jobs = jobs_for_specs([good]) + [
            {"key": key, "spec": spec, "cost": 99.0} for key, spec in bad.items()
        ]
        queue.submit(jobs)
        with StoreServer(backend, quiet=True, queue=queue) as server:
            worker = QueueWorker(
                server.url, worker_id="t1", max_specs=8, sleep=0.05
            )
            stats = worker.run()
            assert stats.done == 1 and stats.failed == 7
            status = QueueClient(server.url).status()
            assert status["drained"] and status["quarantined"] == 7
            errors = {r["key"]: r["error"] for r in status["quarantine"]}
            assert sorted(errors) == sorted(bad)
            assert "no-such-network" in errors[poison_key]
            assert "load must be finite" in errors["ef" * 32]
            assert "intensity_scale must be finite" in errors["fe" * 32]
            assert errors["ed" * 32].startswith("ValueError: ")
            assert "missing fields ['topology']" in errors["ed" * 32]
            assert errors["de" * 32] == (
                "ValueError: measure must be an int >= 1, got 0"
            )
            assert errors["dd" * 32] == (
                "ValueError: config.hops_per_cycle must be >= 1, got 0"
            )
            assert errors["df" * 32] == (
                "ValueError: config: missing fields [], "
                "unknown fields ['router_delay']"
            )
        assert backend.get_payload_many(bad, kind="sim") == {}
        assert list(backend.get_payload_many([good.content_hash()], kind="sim"))

    def test_symbol_that_rebuilds_another_network_is_quarantined(self, backend):
        """A lease whose symbol map sends an sn200 fingerprint to sn54
        must not simulate sn54 and store it under the sn200 spec's key."""
        queue = make_queue(backend, quarantine_workers=1)
        token = topology_token(make_network("sn200"))
        spec = fast_spec(topology=token)
        queue.submit(jobs_for_specs([spec]), topologies={token: "sn54"})
        with StoreServer(backend, quiet=True, queue=queue) as server:
            stats = QueueWorker(server.url, worker_id="t1", sleep=0.05).run()
            assert stats.done == 0 and stats.failed == 1 and stats.executed == 0
            status = QueueClient(server.url).status()
            assert status["drained"] and status["quarantined"] == 1
            (report,) = status["quarantine"]
        sn54 = topology_token(make_network("sn54"))
        assert report["error"] == (
            f"ValueError: topology 'sn54' rebuilds as {sn54}, not the spec's {token}"
        )
        assert backend.get_payload_many([spec.content_hash()], kind="sim") == {}

    @pytest.mark.parametrize("defect", ["no-topology", "version-4"])
    def test_undecodable_job_is_quarantined_at_first_failure(self, backend, defect):
        """A job that fails to decode fails the same way on every host:
        under the default quarantine settings it is leased once, not
        ``max_attempts`` times."""
        queue = make_queue(backend)
        spec = fast_spec().to_dict()
        if defect == "no-topology":
            del spec["topology"]
        else:
            spec["spec_version"] = 4
        queue.submit([{"key": "ab" * 32, "spec": spec, "cost": 1.0}])
        with StoreServer(backend, quiet=True, queue=queue) as server:
            stats = QueueWorker(server.url, worker_id="t1", sleep=0.05).run()
            assert stats.leases == 1 and stats.failed == 1 and stats.executed == 0
            status = QueueClient(server.url).status()
        assert status["drained"] and status["quarantined"] == 1
        (report,) = status["quarantine"]
        assert report["attempts"] == 1 and report["error"].startswith("ValueError: ")

    def test_mismatched_key_is_quarantined_and_nothing_stored(self, backend):
        """A spec submitted under another spec's key must not be simulated
        and stored under its own hash while the job reads done."""
        queue = make_queue(backend)
        spec, other = fast_spec(load=0.05), fast_spec(load=0.07)
        job = {"key": other.content_hash(), "spec": spec.to_dict(), "cost": 1.0}
        queue.submit([job])
        with StoreServer(backend, quiet=True, queue=queue) as server:
            stats = QueueWorker(server.url, worker_id="t1", sleep=0.05).run()
            assert stats.leases == 1 and stats.done == 0 and stats.executed == 0
            status = QueueClient(server.url).status()
        assert status["drained"] and status["done"] == 0
        (report,) = status["quarantine"]
        assert report["attempts"] == 1
        assert report["error"] == (
            f"ValueError: job key {other.content_hash()[:12]} is not the "
            f"spec's content hash {spec.content_hash()[:12]}"
        )
        keys = [spec.content_hash(), other.content_hash()]
        assert backend.get_payload_many(keys, kind="sim") == {}

    def test_request_stop_before_run_exits_immediately(self, backend):
        queue = make_queue(backend)
        queue.submit(jobs_for_specs(spec_grid(2)))
        with StoreServer(backend, quiet=True, queue=queue) as server:
            worker = QueueWorker(server.url, worker_id="t1", sleep=0.05)
            worker.request_stop()
            stats = worker.run()
            assert stats.leases == 0
            assert QueueClient(server.url).status()["pending"] == 2


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.1)
    raise AssertionError(f"timed out after {timeout}s waiting for {what}")


class TestChaosRecovery:
    """The acceptance path: SIGKILL a live worker mid-campaign and the
    survivor drains the queue with zero re-simulation afterwards."""

    def _spawn(self, argv, tmp_path, name):
        env = os.environ.copy()
        env["PYTHONPATH"] = str(SRC)
        log = open(tmp_path / f"{name}.log", "w")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        return proc, log

    def test_sigkilled_worker_recovers(self, tmp_path):
        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        # The queue leases heaviest first, so the victim's first lease
        # holds this long run and is still live when the victim dies.
        specs = [*spec_grid(9), fast_spec(load=0.06, measure=60_000)]
        procs = []
        logs = []
        try:
            serve, log = self._spawn(
                [
                    "serve",
                    "--store",
                    str(tmp_path / "q.sqlite"),
                    "--queue",
                    "--port",
                    str(port),
                    "--lease-seconds",
                    "3",
                ],
                tmp_path,
                "serve",
            )
            procs.append(serve)
            logs.append(log)
            client = QueueClient(url, retries=3, backoff=0.2)
            _wait_for(
                lambda: serve.poll() is None
                and self._healthy(url),
                15,
                "the coordinator to come up",
            )
            reply = client.submit(jobs_for_specs(specs))
            assert reply["accepted"] == 10
            victim = self._work("victim", 4, url, tmp_path, procs, logs)
            # Kill the victim the moment it holds a live lease.
            _wait_for(
                lambda: "victim" in client.status()["workers"],
                30,
                "the victim to claim a lease",
            )
            victim.kill()  # SIGKILL: no drain, no complete, no release
            victim.wait(timeout=10)
            assert client.status()["leased"] >= 1  # it died holding a lease
            # Only now start the survivor, so the victim cannot be starved.
            self._work("survivor", 2, url, tmp_path, procs, logs)
            status = _wait_for(
                lambda: (s := client.status())["drained"] and s,
                120,
                "the survivor to drain the queue",
            )
            assert status["done"] == 10 and status["quarantined"] == 0
            # The victim's lease expired and its specs were re-issued.
            with urllib.request.urlopen(url + "/metrics") as resp:
                metrics = resp.read().decode()
            requeued = sum(
                float(line.rsplit(" ", 1)[1])
                for line in metrics.splitlines()
                if line.startswith("repro_queue_requeued_total")
            )
            assert requeued >= 1
            # Zero re-simulation: assembling the campaign afterwards is
            # a pure cache read against the coordinator's store.
            engine = ExperimentEngine(
                cache=ResultCache(backend=RemoteStore(url))
            )
            engine.run(specs)
            assert engine.total_stats.executed == 0
            assert engine.total_stats.cache_hits == 10
        except BaseException:
            for log in logs:
                log.flush()
                text = Path(log.name).read_text()
                print(f"---- {log.name} ----\n{text}", file=sys.stderr)
            raise
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGTERM)
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
            for log in logs:
                log.close()

    def _work(self, name, max_specs, url, tmp_path, procs, logs):
        """Start a ``repro work`` process and register it for cleanup."""
        argv = ["work", url, "--id", name, "--max-specs", str(max_specs)]
        proc, log = self._spawn([*argv, "--poll", "0.2"], tmp_path, name)
        procs.append(proc)
        logs.append(log)
        return proc

    @staticmethod
    def _healthy(url) -> bool:
        try:
            with urllib.request.urlopen(url + "/health", timeout=1) as resp:
                return resp.status == 200
        except OSError:
            return False
