"""Tests for the experiment engine: specs, cache, runner, campaigns."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from pack_entries import PackEntries

from repro.__main__ import main
from repro.analysis import compare_networks
from repro.engine import (
    BurstTraffic,
    ExperimentEngine,
    ExperimentSpec,
    HotspotTraffic,
    ResultCache,
    TransientTraffic,
    resolve_topology,
    run_compare,
    topology_fingerprint,
)
from repro.engine.batching import spec_batchable
from repro.engine.store import SCHEMA_VERSION
from repro.sim import BUFFERING_STRATEGIES, SimConfig, SimResult, cbr, el_links
from repro.topos import make_network

#: Tiny but shape-preserving windows for the sn54/cm54 class.
FAST = dict(warmup=100, measure=200, drain=300)


def fast_spec(load=0.05, **overrides) -> ExperimentSpec:
    kw = dict(topology="sn54", pattern="RND", load=load, **FAST)
    kw.update(overrides)
    return ExperimentSpec.synthetic(
        kw.pop("topology"), kw.pop("pattern"), kw.pop("load"), **kw
    )


class TestExperimentSpec:
    def test_json_round_trip(self):
        spec = fast_spec(config=SimConfig(num_vcs=3, elastic_links=True))
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_hash_sensitive_to_every_knob(self):
        base = fast_spec()
        assert base.content_hash() != fast_spec(load=0.06).content_hash()
        assert base.content_hash() != fast_spec(seed=2).content_hash()
        assert (
            base.content_hash()
            != fast_spec(config=SimConfig(num_vcs=4)).content_hash()
        )

    def test_fingerprint_stable_and_structural(self):
        a, b = make_network("sn54"), make_network("sn54")
        assert topology_fingerprint(a) == topology_fingerprint(b)
        assert topology_fingerprint(a) != topology_fingerprint(make_network("cm54"))
        # layouts change wire lengths, hence the fingerprint
        assert topology_fingerprint(make_network("sn200")) != topology_fingerprint(
            make_network("sn200", layout="sn_gr")
        )

    def test_resolve_topology(self):
        assert resolve_topology("sn54").num_nodes == 54
        assert resolve_topology("200").num_nodes >= 200
        with pytest.raises(LookupError):
            resolve_topology("fp:deadbeef")

    def test_execute_matches_direct_simulation(self):
        spec = fast_spec()
        direct = spec.execute(topology=make_network("sn54"))
        rebuilt = spec.execute()
        assert direct.avg_latency == rebuilt.avg_latency
        assert direct.throughput == rebuilt.throughput


#: The configs the figures run: the default, SMART, every Fig 11
#: buffering strategy, and the CBR sizes of Figs 12-13.
FIGURE_CONFIGS = {
    "default": SimConfig(),
    "smart": SimConfig().with_smart(),
    **{name: factory() for name, factory in BUFFERING_STRATEGIES.items()},
    "cbr20": cbr(20),
    "cbr40": cbr(40),
}


class TestSpecConfigDict:
    """``to_dict`` reads ``SimConfig``'s fields one by one instead of the
    recursive ``asdict`` copy; the dict, and so every hash, must match."""

    @pytest.mark.parametrize("name", sorted(FIGURE_CONFIGS))
    def test_config_dict_equals_asdict(self, name):
        config = FIGURE_CONFIGS[name]
        spec = fast_spec(config=config)
        payload = spec.to_dict()
        assert payload["config"] == dataclasses.asdict(config)
        assert list(payload["config"]) == list(dataclasses.asdict(config))
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(payload)))
        assert clone == spec
        assert clone.to_dict() == payload
        assert clone.content_hash() == spec.content_hash()

    def test_every_config_field_is_a_scalar(self):
        # A nested field would make the shallow walk share (and the hash
        # misread) a mutable value that ``asdict`` copies recursively.
        scalars = {int, float, bool, str}
        names = {t.__name__ for t in scalars}
        for f in dataclasses.fields(SimConfig):
            assert f.type in scalars or f.type in names, (f.name, f.type)


SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a warm serial run on the local store must never load: the
#: remote store, queue, worker and fault injector, and what they (or a
#: process pool) would drag in.
REMOTE_STACK = (
    "repro.engine.store.http",
    "repro.engine.queue",
    "repro.engine.worker",
    "repro.engine.store.faulty",
    "ssl",
    "http.client",
    "multiprocessing",
)

_WARM_CHILD = """
import json, sys
import repro
from repro.engine import ExperimentSpec, default_engine
engine = default_engine()
engine.run([ExperimentSpec.from_dict(json.loads(sys.argv[1]))])
stats = engine.last_stats
assert (stats.cache_hits, stats.executed) == (1, 0), stats
print(json.dumps([name for name in sys.argv[2:] if name in sys.modules]))
"""


def _child_env(tmp_path, **extra) -> dict:
    """A fresh interpreter's environment: this checkout's source and a
    store under ``tmp_path``, no other ``REPRO_*`` setting."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(tmp_path),
        **extra,
    )
    return env


class TestLazyImports:
    def test_warm_run_loads_no_remote_stack(self, tmp_path):
        spec = fast_spec()
        ExperimentEngine(cache=ResultCache(tmp_path)).run([spec])
        # A multi-worker engine too: a pure cache read never builds its
        # pool, so it must not import multiprocessing either.
        env = _child_env(tmp_path, REPRO_WORKERS="2")
        argv = [sys.executable, "-c", _WARM_CHILD, json.dumps(spec.to_dict())]
        out = subprocess.run(
            [*argv, *REMOTE_STACK], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.splitlines()[-1]) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "sn54"],
            ["sweep", "sn54", "--loads", "0.05", "--warmup", "20"]
            + ["--measure", "20", "--drain", "20", "--no-cache", "--quiet"],
        ],
        ids=["info", "sweep"],
    )
    def test_local_cli_subcommands_load_no_remote_stack(self, argv, tmp_path):
        child = (
            "import sys\n"
            "from repro.__main__ import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            f"print([m for m in {REMOTE_STACK!r} if m in sys.modules])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", child, *argv],
            env=_child_env(tmp_path),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[]"

    def test_cli_still_reports_remote_errors(self, tmp_path, capsys, monkeypatch):
        from repro.engine import SqlitePackStore, StoreServer

        monkeypatch.setenv("REPRO_CACHE_TOKEN", "wrong-token")
        pack = SqlitePackStore(tmp_path / "store.sqlite")
        with StoreServer(pack, token="right-token", quiet=True) as server:
            assert main(["cache", "stats", "--cache-dir", server.url]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("package", ["repro.engine", "repro.engine.store"])
    def test_public_names_still_resolve(self, package):
        module = __import__(package, fromlist=["*"])
        for name in module.__all__:
            assert getattr(module, name) is not None, name
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(module.__all__) <= set(namespace)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


class TestResultCache:
    def test_same_spec_twice_is_byte_identical_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(cache=cache)
        spec = fast_spec()
        key = spec.content_hash()
        rows = PackEntries(cache.backend.path)
        (first,) = engine.run([spec])
        assert engine.last_stats.executed == 1
        blob = rows.text(key)
        (second,) = engine.run([spec])
        assert engine.last_stats.executed == 0
        assert engine.last_stats.cache_hits == 1
        # re-serializing the result reproduces the entry byte-for-byte
        cache.put(spec, second)
        assert rows.text(key) == blob
        assert first.avg_latency == second.avg_latency
        assert first.latencies == second.latencies

    def test_schema_version_mismatch_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(cache=cache)
        spec = fast_spec()
        key = spec.content_hash()
        engine.run([spec])
        rows = PackEntries(cache.backend.path)
        entry = rows.entry(key)
        entry["schema"] = SCHEMA_VERSION + 1
        rows.write(key, entry)
        engine.run([spec])
        assert engine.last_stats.executed == 1  # stale entry ignored
        assert rows.entry(key)["schema"] == SCHEMA_VERSION

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = fast_spec()
        key = spec.content_hash()
        rows = PackEntries(cache.backend.path)
        cache.stats()  # the first store call creates the pack file
        rows.write(key, {"schema": SCHEMA_VERSION, "kind": "sim"})
        assert cache.get(spec) is None  # well-formed but truncated entry
        rows.write(key, "{not json")
        assert cache.get(spec) is None
        assert cache.stats().reclaimable_entries == 1  # gc would drop it

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(cache=cache)
        engine.run([fast_spec(), fast_spec(load=0.08)])
        stats = cache.stats()
        assert stats.entries == 2 and stats.size_bytes > 0
        assert cache.clear() == 2
        assert cache.stats().entries == 0


class TestRunner:
    def test_duplicate_specs_coalesce(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        spec = fast_spec()
        results = engine.run([spec, spec, spec])
        assert engine.last_stats.requested == 3
        assert engine.last_stats.unique == 1
        assert engine.last_stats.executed == 1
        assert results[0].avg_latency == results[2].avg_latency

    def test_runs_without_cache(self):
        engine = ExperimentEngine(cache=None)
        (result,) = engine.run([fast_spec()])
        assert result.delivered_packets > 0

    def test_fingerprint_spec_needs_topology(self, tmp_path):
        topo = make_network("sn54")
        spec = fast_spec(topology="fp:" + topology_fingerprint(topo))
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        with pytest.raises(LookupError):
            engine.run([spec])
        (result,) = engine.run([spec], topologies={spec.topology: topo})
        assert result.delivered_packets > 0


class TestSpecBatchable:
    """The lockstep-shape classifier behind the benchmark's
    ``engine.batchable_frac``."""

    def test_plain_synthetic_default_routed_spec_is_batchable(self):
        assert spec_batchable(fast_spec(routing="default"))

    def test_elastic_and_rng_routed_specs_are_not(self):
        assert not spec_batchable(fast_spec(config=el_links()))
        assert not spec_batchable(fast_spec(routing="valiant"))

    def test_adaptive_and_nonstationary_specs_never_batch(self):
        for routing in ("valiant", "ugal-l", "ugal-g", "deflect", "xy-adapt"):
            assert not spec_batchable(fast_spec(routing=routing))
        for source in (
            BurstTraffic(pattern="RND", load=0.05, on_cycles=16, off_cycles=48),
            HotspotTraffic(pattern="RND", load=0.05, hotspots=(0, 13), fraction=0.3),
            TransientTraffic(patterns=("ADV1", "ADV2"), load=0.05, period=64),
        ):
            assert not spec_batchable(
                ExperimentSpec(topology="sn54", source=source, **FAST)
            )


class TestCampaignParity:
    #: 2 topologies x 7 loads; the top loads saturate both networks, so
    #: truncation and early stop are exercised in both execution modes.
    LOADS = [0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.7]

    def test_parallel_matches_serial_point_for_point(self, tmp_path):
        topos = {"sn54": make_network("sn54"), "cm54": make_network("cm54")}
        serial = run_compare(
            ExperimentEngine(cache=ResultCache(tmp_path / "serial")),
            topos, "RND", self.LOADS, **FAST,
        )
        parallel = run_compare(
            ExperimentEngine(cache=ResultCache(tmp_path / "par"), max_workers=2),
            topos, "RND", self.LOADS, **FAST,
        )
        assert set(serial) == set(parallel) == set(topos)
        for label in topos:
            assert serial[label].points == parallel[label].points
            assert serial[label].points[-1].saturated
            assert len(serial[label].points) <= len(self.LOADS)

    def test_repeated_compare_serves_from_cache(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        topos = {"sn54": make_network("sn54")}
        first = run_compare(engine, topos, "RND", [0.02, 0.1], **FAST)
        assert engine.last_stats.executed > 0
        again = run_compare(engine, topos, "RND", [0.02, 0.1], **FAST)
        assert engine.last_stats.executed == 0  # zero new simulations
        assert first["sn54"].points == again["sn54"].points

    def test_symbol_and_object_sweeps_share_cache(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        by_symbol = run_compare(engine, {"sn54": "sn54"}, "RND", [0.02], **FAST)
        assert engine.last_stats.executed == 1
        by_object = run_compare(
            engine, {"sn54": make_network("sn54")}, "RND", [0.02], **FAST
        )
        assert engine.last_stats.executed == 0  # same fingerprint, same key
        assert by_symbol["sn54"].points == by_object["sn54"].points

    def test_compare_networks_accepts_symbols(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        curves = compare_networks(
            {"sn54": "sn54", "t2d54": "t2d54"}, "RND", [0.02],
            engine=engine, **FAST,
        )
        assert set(curves) == {"sn54", "t2d54"}
        assert curves["sn54"].network == "sn54"


class TestTrafficTokens:
    """The CLI traffic-token grammar -> tagged-union traffic specs."""

    def test_plain_pattern(self):
        from repro.engine import SyntheticTraffic, traffic_for_token

        spec = traffic_for_token("ADV1", 0.1, 54)
        assert spec == SyntheticTraffic("ADV1", 0.1)
        assert spec.mean_load == 0.1

    def test_burst_forms(self):
        from repro.engine import BurstTraffic, traffic_for_token

        assert traffic_for_token("burst:RND", 0.1, 54) == BurstTraffic(
            "RND", 0.1, on_cycles=64, off_cycles=192
        )
        assert traffic_for_token("burst:ADV1:16+48", 0.1, 54) == BurstTraffic(
            "ADV1", 0.1, on_cycles=16, off_cycles=48
        )
        full = traffic_for_token("burst:ADV1:16+48:0.02", 0.1, 54)
        assert full == BurstTraffic(
            "ADV1", 0.1, on_cycles=16, off_cycles=48, off_load=0.02
        )
        assert full.mean_load == 0.1

    def test_hotspot_forms(self):
        from repro.engine import HotspotTraffic, traffic_for_token

        default = traffic_for_token("hotspot:RND", 0.1, 54)
        assert isinstance(default, HotspotTraffic)
        assert default.fraction == 0.25
        assert len(default.hotspots) == 4
        custom = traffic_for_token("hotspot:RND:0.4:3", 0.1, 54)
        assert custom.fraction == 0.4
        # Deterministic evenly-spread hotspot set for 54 nodes, count 3.
        assert custom.hotspots == (0, 18, 36)
        assert all(0 <= node < 54 for node in custom.hotspots)

    def test_transient_forms(self):
        from repro.engine import TransientTraffic, traffic_for_token

        default = traffic_for_token("transient:ADV1+ADV2", 0.1, 54)
        assert default == TransientTraffic(("ADV1", "ADV2"), 0.1, period=256)
        short = traffic_for_token("transient:ADV1+ADV2:64", 0.1, 54)
        assert short.period == 64

    @pytest.mark.parametrize(
        "token",
        [
            "NOPE",
            "burst:NOPE",
            "burst:RND:banana",
            "burst:RND:16",
            "hotspot:NOPE",
            "hotspot:RND:lots",
            "transient:ADV1+NOPE",
            "transient:",
            "transient:ADV1:nope",
        ],
    )
    def test_bad_tokens_raise_with_grammar(self, token):
        from repro.engine import traffic_for_token

        with pytest.raises(ValueError, match="bad traffic token"):
            traffic_for_token(token, 0.1, 54)

    def test_token_specs_round_trip_and_hash(self):
        from repro.engine import traffic_from_dict, traffic_for_token

        for token in ("burst:ADV1:16+48", "hotspot:RND:0.3:2", "transient:ADV1+ADV2:32"):
            spec = traffic_for_token(token, 0.1, 54)
            clone = traffic_from_dict(json.loads(json.dumps(spec.to_dict())))
            assert clone == spec


class TestTrafficCodec:
    """One codec for every traffic kind, one load check in it."""

    KINDS = {
        "synthetic": {"pattern": "RND", "load": 0.1},
        "burst": {"pattern": "ADV1", "load": 0.1, "off_load": 0.01},
        "hotspot": {"pattern": "RND", "load": 0.1},
        "transient": {"patterns": ["ADV1", "ADV2"], "load": 0.1},
        "workload": {"bench": "barnes", "intensity_scale": 2.0},
    }

    def test_every_kind_serializes_kind_then_fields(self):
        from repro.engine import traffic_from_dict

        for kind, fields in self.KINDS.items():
            spec = traffic_from_dict({"kind": kind, **fields})
            payload = spec.to_dict()
            names = [f.name for f in dataclasses.fields(spec)]
            assert list(payload)[: len(names) + 1] == ["kind", *names]
            assert not any(isinstance(v, tuple) for v in payload.values())
            assert traffic_from_dict(payload) == spec

    def test_absent_fields_take_defaults(self):
        from repro.engine import traffic_from_dict

        spec = traffic_from_dict({"kind": "burst", "pattern": "RND", "load": 0.1})
        assert spec == BurstTraffic("RND", 0.1, on_cycles=64, off_cycles=192)
        spec = traffic_from_dict({"kind": "hotspot", "pattern": "RND", "load": 0.1})
        assert spec == HotspotTraffic("RND", 0.1, hotspots=(0,), fraction=0.25)

    def test_malformed_payloads_raise_value_error(self):
        from repro.engine import traffic_from_dict

        with pytest.raises(ValueError, match="unknown traffic source kind"):
            traffic_from_dict({"pattern": "RND", "load": 0.1})
        with pytest.raises(ValueError, match="bad synthetic traffic source"):
            traffic_from_dict({"kind": "synthetic", "load": 0.1})

    @pytest.mark.parametrize(
        "kind,field",
        [
            ("synthetic", "load"),
            ("burst", "load"),
            ("burst", "off_load"),
            ("hotspot", "load"),
            ("transient", "load"),
            ("workload", "intensity_scale"),
        ],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.01])
    def test_loads_must_be_finite_and_non_negative(self, kind, field, bad):
        from repro.engine import traffic_from_dict

        payload = {"kind": kind, **self.KINDS[kind], field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
            traffic_from_dict(payload)

    def test_spec_constructors_reject_nan(self):
        with pytest.raises(ValueError, match="load must be finite"):
            ExperimentSpec.synthetic("sn54", "RND", float("nan"))
        with pytest.raises(ValueError, match="intensity_scale must be finite"):
            ExperimentSpec.workload("sn54", "barnes", float("nan"))

    def test_zero_load_is_valid(self):
        spec = ExperimentSpec.synthetic("sn54", "RND", 0.0, **FAST)
        assert spec.execute().delivered_packets == 0


class TestAdaptiveStudy:
    def test_study_structure_and_cache_reuse(self, tmp_path):
        from repro.analysis import adaptive_study
        from repro.engine import ResultCache

        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        kwargs = dict(
            networks=("sn54",),
            routings=("default", "ugal-l"),
            traffic=("ADV1", "burst:ADV1:16+48"),
            loads=[0.05, 0.1],
            warmup=100,
            measure=200,
            drain=400,
        )
        study = adaptive_study(engine, **kwargs)
        assert set(study.curves) == {
            ("sn54", routing, token)
            for routing in ("default", "ugal-l")
            for token in ("ADV1", "burst:ADV1:16+48")
        }
        for curve in study.curves.values():
            assert 1 <= len(curve.points) <= 2
        table = study.format_table()
        assert "ugal-l" in table and "burst:ADV1:16+48" in table
        best = study.best_routing("sn54", "ADV1")
        assert best in ("default", "ugal-l")
        payload = json.loads(json.dumps(study.to_dict()))
        assert set(payload["curves"]) == {
            f"sn54/{r}/{t}"
            for r in ("default", "ugal-l")
            for t in ("ADV1", "burst:ADV1:16+48")
        }
        # The whole grid re-served from cache: zero new simulations.
        again = adaptive_study(engine, **kwargs)
        assert engine.last_stats.executed == 0
        for key, curve in study.curves.items():
            assert again.curves[key].points == curve.points

    def test_serial_and_parallel_study_match_in_few_rounds(self, tmp_path):
        """The study is one staged campaign: a two-worker engine gives
        the serial study's curves and store keys, and neither issues
        more engine rounds than there are loads."""
        from repro.analysis import adaptive_study
        from repro.engine.campaign import curve_specs, study_curves

        loads = [0.05, 0.15, 0.3, 0.45, 0.6]
        kwargs = dict(
            networks=("sn54",),
            routings=("default", "ugal-l"),
            traffic=("RND", "burst:ADV1:64+192"),
            loads=loads,
            **FAST,
        )
        studies, keys, rounds = {}, {}, {}
        for workers in (1, 2):
            cache = ResultCache(tmp_path / f"w{workers}")
            engine = ExperimentEngine(cache=cache, max_workers=workers)
            calls = []
            run = engine.run

            def counting_run(specs, **kw):
                calls.append(len(specs))
                return run(specs, **kw)

            engine.run = counting_run
            studies[workers] = adaptive_study(engine, **kwargs)
            keys[workers] = set(PackEntries(cache.backend.path).keys())
            rounds[workers] = len(calls)
        assert studies[1].to_dict() == studies[2].to_dict()
        assert max(rounds.values()) <= len(loads)
        curves, topologies = study_curves(
            kwargs["networks"], kwargs["routings"], kwargs["traffic"]
        )
        kept = {
            spec.content_hash()
            for key, curve in studies[1].curves.items()
            for spec in curve_specs(
                [curves[key]],
                [point.load for point in curve.points],
                topologies,
                packet_flits=6,
                seed=1,
                **FAST,
            )
        }
        assert any(len(c.points) < len(loads) for c in studies[1].curves.values())
        assert keys[1] == kept  # serial: exactly the points it keeps
        assert kept <= keys[2]  # parallel may add a post-saturation point


class TestDefaultWorkers:
    def test_follows_cpu_affinity_without_the_variable(self, monkeypatch):
        from repro.engine import default_workers

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert default_workers() == 3

    def test_variable_overrides_affinity(self, monkeypatch):
        from repro.engine import default_engine, default_workers

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert default_workers() == 1
        assert default_engine().max_workers == 1
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert default_workers() == 7

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_variable_is_an_error(self, value, monkeypatch, capsys):
        from repro.engine import default_engine, default_workers

        monkeypatch.setenv("REPRO_WORKERS", value)
        message = f"REPRO_WORKERS must be a positive integer, got '{value}'"
        with pytest.raises(ValueError) as raised:
            default_workers()
        assert str(raised.value) == message
        with pytest.raises(ValueError):
            default_engine()
        argv = ["sweep", "sn54", "--loads", "0.05", "--no-cache", "--quiet"]
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "sn54", "--loads", "0.05", "--no-cache", "--quiet"],
            ["work", "http://localhost:1"],
        ],
    )
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_flag_is_an_error(self, argv, value, capsys):
        """``--workers`` rejects what ``REPRO_WORKERS`` rejects."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", value])
        assert exc.value.code == 2
        assert f"argument --workers: must be >= 1, got {value}" in (
            capsys.readouterr().err
        )


class TestSerializationSatellites:
    def test_sim_result_round_trip_small(self):
        result = fast_spec().execute()
        clone = SimResult.from_dict(result.to_dict())
        assert clone.avg_latency == result.avg_latency
        assert clone.p99_latency == result.p99_latency
        assert clone.saturated == result.saturated

    def test_large_latency_population_compacts_to_histogram(self):
        latencies = [10] * 400 + [20] * 400 + [30] * 10
        result = SimResult(0.1, 1000, 810, 810, 4860, latencies, 54, 500, 0)
        payload = result.to_dict()
        assert "latency_hist" in payload and "latencies" not in payload
        assert payload["latency_hist"] == [[10, 400], [20, 400], [30, 10]]
        clone = SimResult.from_dict(payload)
        assert clone.latencies == sorted(result.latencies)
        assert clone.avg_latency == result.avg_latency
        assert clone.p99_latency == result.p99_latency

    def test_sweep_result_round_trip(self):
        """``SweepResult.to_dict`` survives JSON with nothing lost."""
        from repro.analysis import SweepPoint, SweepResult

        (curve,) = run_compare(
            ExperimentEngine(), {"sn54": make_network("sn54")}, "RND", [0.02], **FAST
        ).values()
        payload = json.loads(json.dumps(curve.to_dict()))
        clone = SweepResult(
            payload["network"],
            payload["pattern"],
            [SweepPoint(**point) for point in payload["points"]],
        )
        assert clone.points == curve.points
        assert clone.network == curve.network

    def test_saturation_thresholds_come_from_config(self):
        strict = SimConfig(saturation_delivery_fraction=1.1)
        result = fast_spec(config=strict).execute()
        assert result.saturation_delivery_fraction == 1.1
        assert result.saturated  # nothing can deliver 110%
        lax = SimConfig(saturation_delivery_fraction=0.0, saturation_backlog=10**9)
        assert not fast_spec(config=lax).execute().saturated

    def test_largescale_model_build_memoizes(self, tmp_path):
        from repro.analysis import LargeScaleModel

        cache = ResultCache(tmp_path)
        topo = make_network("sn54")
        first = LargeScaleModel.build(topo, "RND", cache=cache)
        assert cache.stats().entries == 1
        hits_before = cache.hits
        second = LargeScaleModel.build(topo, "RND", cache=cache)
        assert cache.hits == hits_before + 1
        assert second.max_channel_load_per_rate == first.max_channel_load_per_rate
        assert second.zero_load_latency() == first.zero_load_latency()
        uncached = LargeScaleModel.build(topo, "RND", cache=False)
        assert uncached.max_channel_load_per_rate == first.max_channel_load_per_rate

    def test_flow_sampling_scales_and_is_seeded(self):
        from repro.traffic import SyntheticSource

        small = SyntheticSource(make_network("sn54"), "RND", 0.1)
        large = SyntheticSource(make_network("sn200"), "RND", 0.1)
        assert large.default_flow_samples() >= small.default_flow_samples()
        assert SyntheticSource(make_network("sn54"), "ADV1", 0.1).default_flow_samples() == 1
        seeded = SyntheticSource(make_network("sn54"), "RND", 0.1, seed=7)
        assert seeded.flows(samples=50) == seeded.flows(samples=50)
        other = SyntheticSource(make_network("sn54"), "RND", 0.1, seed=8)
        assert seeded.flows(samples=50) != other.flows(samples=50)


class TestCliDispatch:
    def test_unknown_subcommand_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["swep"])
        assert exc.value.code == 2
        assert "invalid choice: 'swep'" in capsys.readouterr().err

    def test_info_summarizes_a_catalog_symbol(self, capsys):
        assert main(["info", "sn1296"]) == 0
        out = capsys.readouterr().out
        assert "Network summary" in out
        assert "1296" in out

    @pytest.mark.parametrize(
        "option, value", [("--max-bytes", "-5"), ("--max-age", "-1")]
    )
    def test_cache_gc_rejects_negative_limits(self, option, value, tmp_path, capsys):
        """A negative limit would evict every entry, fresh ones too."""
        cache = ResultCache(tmp_path / "cache")
        ExperimentEngine(cache=cache).run([fast_spec()])
        argv = ["cache", "gc", "--cache-dir", str(tmp_path / "cache")]
        with pytest.raises(SystemExit) as exc:
            main(argv + [option, value])
        assert exc.value.code == 2
        assert f"argument {option}: must be >= 0" in capsys.readouterr().err
        assert cache.stats().entries == 1
        # Zero stays valid: it empties the store.
        assert main(argv + [option, "0"]) == 0
        assert cache.stats().entries == 0

    @pytest.mark.parametrize(
        "argv",
        [["adaptive", "sn54"], ["compare", "sn54", "--model"]],
        ids=["adaptive", "compare-model"],
    )
    def test_queue_rejected_where_no_grid_is_queued(self, argv, capsys):
        """``compare --model`` refuses ``--queue``; ``adaptive`` has no
        such option, so argparse rejects it.  Both exit 2."""
        try:
            code = main(argv + ["--queue", "http://127.0.0.1:1"])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "--queue" in capsys.readouterr().err
