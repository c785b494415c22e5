"""Observability layer: metrics registry, spans, Prometheus rendering,
logging knobs, the predicted-cost model, progress line, /metrics scrape,
and engine stage timing."""

import io
import json
import logging
import sys
import types
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
    ProgressLine,
    configure_logging,
    format_duration,
    get_logger,
    span,
    span_stack,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry, Span

FAST = dict(warmup=100, measure=200, drain=300)
SLOW = dict(warmup=300, measure=800, drain=1500)


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

    def test_default_handler_writes_to_the_current_stderr(self, monkeypatch):
        """Configured while a capture stream is ``sys.stderr``, the
        handler must not keep it: a record logged after that stream was
        closed and swapped out reaches the new ``sys.stderr``, with no
        ``--- Logging error ---`` report."""
        captured = io.StringIO()
        monkeypatch.setattr(sys, "stderr", captured)
        configure_logging(level="info", fmt="text")
        captured.close()
        current = io.StringIO()
        monkeypatch.setattr(sys, "stderr", current)
        get_logger("t").info("after the swap")
        assert "I repro.t: after the swap" in current.getvalue()
        assert "Logging error" not in current.getvalue()

    def test_bad_level_and_format_rejected(self):
        with pytest.raises(ValueError):
            configure_logging(level="nope", stream=io.StringIO())
        with pytest.raises(ValueError):
            configure_logging(fmt="xml", stream=io.StringIO())


class TestCostModel:
    def queue_order(self, path, specs):
        queue = JobQueue(SqlitePackStore(path))
        queue.submit(jobs_for_specs(specs))
        return list(queue.pending)

    def test_queue_hands_out_heaviest_predicted_cost_first(self, tmp_path):
        specs = [
            fast_spec(load=0.02),
            fast_spec(load=0.30),
            fast_spec(load=0.03, **SLOW),
            fast_spec(load=0.10),
        ]
        by_cost = sorted(specs, key=predicted_cost, reverse=True)
        assert self.queue_order(tmp_path / "q.sqlite", specs) == [
            spec.content_hash() for spec in by_cost
        ]

    def test_cost_model_orders_by_load_size_and_cycles(self):
        light = fast_spec(load=0.02)
        heavy = fast_spec(load=0.45)
        long = fast_spec(load=0.02, **SLOW)
        assert predicted_cost(heavy) > predicted_cost(light)
        assert predicted_cost(long) > predicted_cost(light)
        bigger = fast_spec(load=0.02, topology="sn200")
        assert predicted_cost(bigger) > predicted_cost(light)


class TestEngineTelemetry:
    def test_stage_seconds_cover_every_engine_stage(self, tmp_path):
        specs = [fast_spec(load=load) for load in (0.02, 0.05)]
        engine = ExperimentEngine(cache=ResultCache(tmp_path / "cache"))
        engine.run(specs)
        stats = engine.total_stats
        stages = stats.stage_seconds
        for key in ("cache_lookup", "dispatch", "simulate", "write_back", "total"):
            assert key in stages
        assert stages["total"] > 0
        assert stages["simulate"] > 0
        assert stats.to_dict()["stage_seconds"]["total"] > 0

    def test_cache_hit_run_measures_no_simulate_time(self, tmp_path):
        specs = [fast_spec(load=0.02)]
        cache = ResultCache(tmp_path / "cache")
        ExperimentEngine(cache=cache).run(specs)
        engine = ExperimentEngine(cache=ResultCache(tmp_path / "cache"))
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
        assert line.eta_seconds() is None  # hits alone give no pace
        line.update(cached=False)
        assert line.eta_seconds() is not None
        line.update(cached=False)
        assert line.eta_seconds() is None  # done == total
        out = stream.getvalue()
        assert "3/3 (100%)" in out
        assert "hits 1" in out and "sims 2" in out
        line.finish()
        assert stream.getvalue().endswith("\n")

    def test_eta_weights_remaining_specs_by_predicted_cost(self, monkeypatch):
        clock = FakeClock(monkeypatch)
        specs = [fast_spec(load=0.02), fast_spec(load=0.3), fast_spec(load=0.25)]
        cost = {spec: predicted_cost(spec) for spec in specs}
        stream = io.StringIO()
        line = ProgressLine(total=3, stream=stream, cost_fn=cost.__getitem__)
        line.add_pending(specs)
        clock.advance(2.0)
        line.update(specs[0])
        pace = 2.0 / cost[specs[0]]
        expected = pace * (cost[specs[1]] + cost[specs[2]])
        assert line.eta_seconds() == pytest.approx(expected)
        # A heavy spec left behind a light one: more than 2 x its time.
        assert line.eta_seconds() > 2 * 2.0
        assert f"eta ~{format_duration(expected)}" in stream.getvalue()

    def test_eta_does_not_count_cache_hits_as_work(self, monkeypatch):
        """The runner reports every hit before the first simulation, at
        about zero elapsed; the pace comes from simulations alone."""
        clock = FakeClock(monkeypatch)
        line = ProgressLine(total=100, stream=io.StringIO())
        clock.advance(0.05)  # the cache lookup: not simulation time
        for _ in range(90):
            line.update(cached=True)
        clock.advance(0.2)
        line.update(cached=False)
        assert line.eta_seconds() == pytest.approx(9 * 0.2)

    def test_skipped_loads_leave_the_total_and_the_eta(self, monkeypatch):
        """Loads a saturated curve never runs come off both the count
        and the pending cost, so the line ends at 100% with no ETA."""
        clock = FakeClock(monkeypatch)
        specs = [fast_spec(load=x) for x in (0.02, 0.1, 0.3, 0.5)]
        cost = {spec: predicted_cost(spec) for spec in specs}
        stream = io.StringIO()
        line = ProgressLine(total=4, stream=stream, cost_fn=cost.__getitem__)
        line.add_pending(specs)
        for spec in specs[:2]:
            clock.advance(1.0)
            line.update(spec)
        pace = 2.0 / (cost[specs[0]] + cost[specs[1]])
        assert line.eta_seconds() == pytest.approx(
            pace * (cost[specs[2]] + cost[specs[3]])
        )
        line.skip([specs[3]])
        assert line.total == 3
        assert line.eta_seconds() == pytest.approx(pace * cost[specs[2]])
        last = stream.getvalue().rsplit("\r", 1)[-1]
        assert last.startswith("2/3 (67%)")
        assert f"eta ~{format_duration(pace * cost[specs[2]])}" in last
        line.skip([specs[2]])
        assert line.eta_seconds() is None
        last = stream.getvalue().rsplit("\r", 1)[-1]
        assert last.startswith("2/2 (100%)") and "eta" not in last


class FakeClock:
    """``time.perf_counter`` for the progress module, advanced by hand."""

    def __init__(self, monkeypatch):
        import repro.obs.progress as progress

        self.now = 1000.0
        clock = types.SimpleNamespace(perf_counter=lambda: self.now)
        monkeypatch.setattr(progress, "time", clock)

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCliTelemetry:
    def run_cli(self, argv, tmp_path, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
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

    def test_progress_ends_at_100_percent_after_saturation(
        self, tmp_path, monkeypatch, capsys
    ):
        """15 offered loads, the curve saturates at the 13th: the line
        counts the 2 loads the sweep drops as never due."""
        FakeClock(monkeypatch)
        rc = self.run_cli(
            [
                "sweep", "sn54", "--loads", "0.02:0.6:0.04", "--progress",
                "--workers", "1",
                "--warmup", "100", "--measure", "200", "--drain", "300",
            ],
            tmp_path,
            monkeypatch,
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "13/15 (87%)" in captured.err
        last = captured.err.rstrip("\n").rsplit("\r", 1)[-1]
        assert last.startswith("13/13 (100%)") and "eta" not in last

    def test_adaptive_progress_and_quiet(self, tmp_path, monkeypatch, capsys):
        """``adaptive`` honours the engine options' progress flags:
        ``--progress`` draws the live line over the whole study grid,
        ``--quiet`` prints nothing, and the default prints per-point
        lines."""
        argv = [
            "adaptive", "sn54", "--routings", "default,ugal-l",
            "--traffic", "RND", "--loads", "0.05,0.1", "--workers", "1",
            "--warmup", "50", "--measure", "100", "--drain", "200",
        ]
        assert self.run_cli(argv + ["--progress"], tmp_path, monkeypatch) == 0
        err = capsys.readouterr().err
        assert "4/4 (100%)" in err and "sims 4" in err
        assert "[1/" not in err
        assert self.run_cli(argv + ["--quiet"], tmp_path, monkeypatch) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "4 cached, 0 simulated" in captured.out
        assert self.run_cli(argv, tmp_path, monkeypatch) == 0
        err = capsys.readouterr().err
        assert "(cache)" in err and "(100%)" not in err

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
        # The campaign wrote its cache and the requested report, nothing
        # else into the working directory.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "sweep.json"]
