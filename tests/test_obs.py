"""Observability layer: metrics registry, spans, Prometheus rendering,
logging knobs, measured-cost calibration, progress line, /metrics scrape,
and engine stage timing."""

import io
import json
import logging
import urllib.request

import pytest

from repro.engine import (
    ExperimentEngine,
    ExperimentSpec,
    RemoteStore,
    ResultCache,
    SqlitePackStore,
    StoreServer,
)
from repro.engine.queue import JobQueue, jobs_for_specs
from repro.engine.spec import predicted_cost
from repro.obs import (
    CostCalibration,
    ProgressLine,
    bucket_key,
    configure_logging,
    format_duration,
    get_logger,
    seed_from_perf_baseline,
    span,
    span_stack,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry, Span

FAST = dict(warmup=100, measure=200, drain=300)
SLOW = dict(warmup=300, measure=800, drain=1500)
NODES = {"sn54": 54}


def fast_spec(load=0.05, **overrides) -> ExperimentSpec:
    kw = dict(topology="sn54", pattern="RND", load=load, **FAST)
    kw.update(overrides)
    return ExperimentSpec.synthetic(
        kw.pop("topology"), kw.pop("pattern"), kw.pop("load"), **kw
    )


class TestRegistry:
    def test_counter_gauge_histogram_values(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total", "c", ("who",))
        counter.labels(who="a").inc()
        counter.labels(who="a").inc(2)
        assert reg.value("c_total", who="a") == 3
        assert reg.value("c_total", who="never") == 0.0
        gauge = reg.gauge("g", "g")
        gauge.set(7.5)
        gauge.set(1.25)
        assert reg.value("g") == 1.25
        hist = reg.histogram("h_seconds", "h", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(99.0)
        child = hist.labels()
        assert child.count == 3
        assert child.bucket_counts() == [1, 2, 3]

    def test_get_or_create_is_idempotent_but_shape_checked(self):
        reg = MetricsRegistry()
        first = reg.counter("x_total", "x", ("a",))
        assert reg.counter("x_total", "x", ("a",)) is first
        with pytest.raises(ValueError):
            reg.counter("x_total", "x", ("b",))
        with pytest.raises(ValueError):
            reg.gauge("x_total", "x", ("a",))

    def test_wrong_labels_rejected(self):
        reg = MetricsRegistry()
        counter = reg.counter("y_total", "y", ("a",))
        with pytest.raises(ValueError):
            counter.labels(b="1")

    def test_prometheus_render_golden(self):
        reg = MetricsRegistry()
        counter = reg.counter("t_total", "things counted", ("who",))
        counter.labels(who="x").inc()
        counter.labels(who="y").inc(2)
        gauge = reg.gauge("g", "a gauge")
        gauge.set(1.5)
        hist = reg.histogram("h_seconds", "a histogram", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        expected = "\n".join(
            [
                "# HELP g a gauge",
                "# TYPE g gauge",
                "g 1.5",
                "# HELP h_seconds a histogram",
                "# TYPE h_seconds histogram",
                'h_seconds_bucket{le="0.1"} 1',
                'h_seconds_bucket{le="1"} 1',
                'h_seconds_bucket{le="+Inf"} 2',
                "h_seconds_sum 5.05",
                "h_seconds_count 2",
                "# HELP t_total things counted",
                "# TYPE t_total counter",
                't_total{who="x"} 1',
                't_total{who="y"} 2',
                "",
            ]
        )
        assert reg.render() == expected
        # Deterministic: rendering twice is byte-identical.
        assert reg.render() == expected

    def test_label_escaping(self):
        reg = MetricsRegistry()
        counter = reg.counter("e_total", "e", ("path",))
        counter.labels(path='a"b\\c\nd').inc()
        rendered = reg.render()
        assert 'e_total{path="a\\"b\\\\c\\nd"} 1' in rendered

    def test_empty_family_still_renders_help_and_type(self):
        reg = MetricsRegistry()
        reg.counter("never_total", "untouched", ("a",))
        rendered = reg.render()
        assert "# HELP never_total untouched" in rendered
        assert "# TYPE never_total counter" in rendered


class TestSpans:
    def test_nesting_builds_dotted_paths(self):
        reg = MetricsRegistry()
        with Span("outer", registry=reg) as outer:
            assert span_stack() == ("outer",)
            with Span("inner", registry=reg) as inner:
                assert span_stack() == ("outer", "inner")
        assert span_stack() == ()
        assert outer.path == "outer"
        assert inner.path == "outer.inner"
        assert outer.seconds >= inner.seconds >= 0.0
        stage = reg.get("repro_stage_seconds")
        labels = {key for key, _ in stage.children()}
        assert ("outer",) in labels and ("outer.inner",) in labels

    def test_span_helper_records_into_global_registry(self):
        before = REGISTRY.value("repro_stage_seconds", stage="test.span")
        with span("test.span"):
            pass
        # Histograms accumulate the sum; a fresh observation keeps it >= 0
        # and bumps the count.
        child = REGISTRY.get("repro_stage_seconds").labels(stage="test.span")
        assert child.count >= 1
        assert child.total >= before


class TestLogging:
    def test_namespacing(self):
        assert get_logger("serve").name == "repro.serve"
        assert get_logger("repro.engine.store").name == "repro.engine.store"
        assert get_logger().name == "repro"

    def test_text_and_json_formats(self):
        stream = io.StringIO()
        configure_logging(level="info", fmt="text", stream=stream)
        get_logger("t").info("hello %s", "world")
        assert "I repro.t: hello world" in stream.getvalue()

        stream = io.StringIO()
        configure_logging(level="debug", fmt="json", stream=stream)
        get_logger("t").debug("structured")
        record = json.loads(stream.getvalue())
        assert record["level"] == "debug"
        assert record["logger"] == "repro.t"
        assert record["msg"] == "structured"
        assert "ts" in record and "iso" in record

    def test_reconfigure_replaces_only_our_handler(self):
        configure_logging(stream=io.StringIO())
        configure_logging(stream=io.StringIO())
        root = logging.getLogger("repro")
        tagged = [
            h for h in root.handlers if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(tagged) == 1
        # Propagation must survive configuration: pytest's caplog (and
        # any embedder hooking the root logger) captures repro records
        # through it.
        assert root.propagate is True

    def test_bad_level_and_format_rejected(self):
        with pytest.raises(ValueError):
            configure_logging(level="nope", stream=io.StringIO())
        with pytest.raises(ValueError):
            configure_logging(fmt="xml", stream=io.StringIO())


class TestCalibration:
    def test_bucket_key_rounds_cycles_to_power_of_two(self):
        assert bucket_key(54, 600) == "n54|c512"
        assert bucket_key(54, 2600) == "n54|c2048"
        assert bucket_key(200, 1024) == "n200|c1024"

    def test_observe_round_trip(self, tmp_path):
        table = CostCalibration(path=tmp_path / "cal.json")
        assert table.seconds_for(54, 600, 0.05) is None
        table.observe(54, 600, 0.05, 2.0)
        assert table.dirty
        estimate = table.seconds_for(54, 600, 0.05)
        assert estimate == pytest.approx(2.0)
        # Same bucket, different load: scales with the unit cost.
        heavier = table.seconds_for(54, 600, 0.30)
        assert heavier > estimate

        path = table.save()
        assert not table.dirty
        loaded = CostCalibration.load(path)
        assert len(loaded) == 1
        assert loaded.seconds_for(54, 600, 0.05) == pytest.approx(2.0)

    def test_ewma_converges_toward_new_measurements(self, tmp_path):
        table = CostCalibration(path=tmp_path / "cal.json")
        table.observe(54, 600, 0.05, 1.0)
        for _ in range(20):
            table.observe(54, 600, 0.05, 3.0)
        assert table.seconds_for(54, 600, 0.05) == pytest.approx(3.0, rel=0.05)

    def test_load_missing_or_invalid_file_is_empty(self, tmp_path):
        assert len(CostCalibration.load(tmp_path / "absent.json")) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert len(CostCalibration.load(bad)) == 0

    def test_seed_from_perf_baseline(self, tmp_path):
        table = CostCalibration(path=tmp_path / "cal.json")
        seeded = seed_from_perf_baseline(table)
        assert seeded > 0
        assert len(table) > 0
        # Seeding is derivable from the committed baseline — nothing to save.
        assert not table.dirty

    def test_zero_or_negative_observations_ignored(self, tmp_path):
        table = CostCalibration(path=tmp_path / "cal.json")
        table.observe(54, 600, 0.05, 0.0)
        table.observe(54, 600, 0.05, -1.0)
        assert len(table) == 0 and not table.dirty


class TestCalibratedCosts:
    def grids(self):
        """Two light-cycle specs and one heavy-cycle spec: the heuristic
        thinks the heavy one dominates (4x the cycles)."""
        light = [fast_spec(load=0.02), fast_spec(load=0.04)]
        heavy = [fast_spec(load=0.03, **SLOW)]
        return light, heavy

    def inverted_table(self):
        """Calibration that inverts the heuristic: the small-cycle bucket
        measures *slow* and the large-cycle bucket *fast*."""
        table = CostCalibration()
        table.observe(54, 600, 0.05, 10.0)
        table.observe(54, 2600, 0.05, 0.01)
        return table

    def queue_order(self, path, specs, calibration):
        queue = JobQueue(SqlitePackStore(path))
        queue.submit(jobs_for_specs(specs, NODES, calibration))
        return list(queue.pending)

    def test_calibrated_costs_invert_the_queue_order(self, tmp_path):
        """The queue hands out the heaviest spec first; a calibration
        table that measures the light bucket as the slow one puts the
        light specs ahead of the heavy one, the reverse of the
        heuristic order."""
        light, heavy = self.grids()
        specs = light + heavy
        light_keys = {spec.content_hash() for spec in light}
        heavy_key = heavy[0].content_hash()

        heuristic = self.queue_order(tmp_path / "h.sqlite", specs, None)
        assert heuristic[0] == heavy_key
        assert set(heuristic[1:]) == light_keys

        calibrated = self.queue_order(
            tmp_path / "c.sqlite", specs, self.inverted_table()
        )
        assert set(calibrated[:2]) == light_keys
        assert calibrated[-1] == heavy_key

    def test_cost_model_orders_by_load_size_and_cycles(self):
        light = fast_spec(load=0.02)
        heavy = fast_spec(load=0.45)
        long = fast_spec(load=0.02, **SLOW)
        assert predicted_cost(heavy) > predicted_cost(light)
        assert predicted_cost(long) > predicted_cost(light)
        assert predicted_cost(light, num_nodes=200) > predicted_cost(
            light, num_nodes=54
        )

    def test_predicted_cost_falls_back_without_bucket(self):
        spec = fast_spec()
        table = CostCalibration()  # empty
        assert predicted_cost(spec, num_nodes=54, calibration=table) == (
            predicted_cost(spec, num_nodes=54)
        )


class TestEngineTelemetry:
    def test_stage_seconds_and_calibration_feedback(self, tmp_path):
        table = CostCalibration(path=tmp_path / "cal.json")
        specs = [fast_spec(load=load) for load in (0.02, 0.05)]
        with ExperimentEngine(
            cache=ResultCache(tmp_path / "cache"), calibration=table
        ) as engine:
            engine.run(specs)
            stats = engine.total_stats
        stages = stats.stage_seconds
        for key in ("cache_lookup", "dispatch", "simulate", "write_back", "total"):
            assert key in stages
        assert stages["total"] > 0
        assert stages["simulate"] > 0
        assert stats.to_dict()["stage_seconds"]["total"] > 0
        # Executed specs fed the measured-cost table.
        assert len(table) > 0 and table.dirty
        assert table.seconds_for(54, 600, 0.02) is not None

    def test_cache_hit_run_measures_no_simulate_time(self, tmp_path):
        specs = [fast_spec(load=0.02)]
        cache = ResultCache(tmp_path / "cache")
        with ExperimentEngine(cache=cache) as engine:
            engine.run(specs)
        with ExperimentEngine(cache=ResultCache(tmp_path / "cache")) as engine:
            engine.run(specs)
            stats = engine.total_stats
        assert stats.cache_hits == 1
        assert stats.stage_seconds["simulate"] == 0.0
        assert stats.stage_seconds["total"] > 0


class TestMetricsEndpoint:
    def test_scrape_against_live_server(self, tmp_path):
        with StoreServer(
            SqlitePackStore(tmp_path / "store.sqlite"), quiet=True
        ) as server:
            store = RemoteStore(server.url, retries=2, backoff=0.01)
            store.put_payload("ab" * 10, "sim", {"x": 1})
            assert store.get_payload("ab" * 10, "sim") == {"x": 1}
            with urllib.request.urlopen(server.url + "/metrics") as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                body = resp.read().decode("utf-8")
        assert REGISTRY.value(
            "repro_server_requests_total", endpoint="/payloads/put", method="POST"
        ) >= 1
        assert REGISTRY.value(
            "repro_store_ops_total", backend="remote", op="payloads/get"
        ) >= 1
        assert (
            'repro_server_requests_total{endpoint="/payloads/put",method="POST"}'
            in body
        )
        assert "repro_store_ops_total" in body

    def test_metrics_is_unauthenticated_like_health(self, tmp_path):
        with StoreServer(
            SqlitePackStore(tmp_path / "store.sqlite"), token="secret", quiet=True
        ) as server:
            with urllib.request.urlopen(server.url + "/metrics") as resp:
                assert resp.status == 200
                assert b"repro_server_requests_total" in resp.read()

    def test_server_errors_counted(self, tmp_path):
        before = REGISTRY.value(
            "repro_server_errors_total", endpoint="/payloads/get", status="503"
        )
        with StoreServer(
            SqlitePackStore(tmp_path / "store.sqlite"), quiet=True
        ) as server:
            server.inject_failures(1)
            store = RemoteStore(server.url, retries=3, backoff=0.01)
            assert store.get_payload("cd" * 10, "sim") is None
        after = REGISTRY.value(
            "repro_server_errors_total", endpoint="/payloads/get", status="503"
        )
        assert after >= before + 1
        assert (
            REGISTRY.value("repro_store_retries_total", endpoint="payloads/get")
            >= 1
        )


class TestProgressLine:
    def test_format_duration(self):
        assert format_duration(3.2) == "3.2s"
        assert format_duration(42) == "42s"
        assert format_duration(220) == "3m40s"
        assert format_duration(7500) == "2h05m"

    def test_counts_and_pace_eta(self):
        stream = io.StringIO()
        line = ProgressLine(total=3, stream=stream)
        line.update(cached=True)
        line.update(cached=False)
        assert line.eta_seconds() is not None
        assert not line.calibrated
        line.update(cached=False)
        assert line.eta_seconds() is None  # done == total
        out = stream.getvalue()
        assert "3/3 (100%)" in out
        assert "hits 1" in out and "sims 2" in out
        line.finish()
        assert stream.getvalue().endswith("\n")

    def test_calibrated_eta_scales_remaining_cost(self):
        stream = io.StringIO()
        specs = ["a", "b", "c", "d"]
        line = ProgressLine(total=4, stream=stream, cost_fn=lambda s: 1.0)
        line.add_pending(specs)
        assert line.calibrated
        line.update("a")
        eta = line.eta_seconds()
        assert eta is not None and eta >= 0
        rendered = stream.getvalue()
        assert "calibrated" in rendered

    def test_uncalibrated_when_any_cost_unknown(self):
        line = ProgressLine(
            total=2,
            stream=io.StringIO(),
            cost_fn=lambda s: None if s == "b" else 1.0,
        )
        line.add_pending(["a", "b"])
        assert not line.calibrated


class TestCliTelemetry:
    def run_cli(self, argv, tmp_path, monkeypatch):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_CALIBRATION", str(tmp_path / "cal.json"))
        return main(argv + ["--cache-dir", str(tmp_path / "cache")])

    def test_progress_smoke(self, tmp_path, monkeypatch, capsys):
        rc = self.run_cli(
            [
                "sweep", "sn54", "--loads", "0.02,0.05", "--progress",
                "--warmup", "50", "--measure", "100", "--drain", "200",
            ],
            tmp_path,
            monkeypatch,
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "2/2 (100%)" in captured.err
        assert "sims" in captured.err
        assert "stages:" in captured.out

    def test_sweep_json_carries_stage_seconds(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "sweep.json"
        rc = self.run_cli(
            [
                "sweep", "sn54", "--loads", "0.02", "--quiet",
                "--warmup", "50", "--measure", "100", "--drain", "200",
                "--json", str(out),
            ],
            tmp_path,
            monkeypatch,
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        stages = payload["engine"]["stage_seconds"]
        assert set(stages) >= {
            "cache_lookup", "dispatch", "simulate", "write_back", "total",
        }
        assert stages["total"] > 0
        # The campaign taught the calibration table and persisted it.
        saved = CostCalibration.load(tmp_path / "cal.json")
        assert len(saved) > 0
