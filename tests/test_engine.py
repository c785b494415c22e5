"""Tests for the experiment engine: specs, cache, runner, campaigns."""

import json

import pytest

from repro.__main__ import main
from repro.analysis import compare_networks, sweep_loads
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
from repro.sim import SimConfig, SimResult, el_links
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


class TestResultCache:
    def test_same_spec_twice_is_byte_identical_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(cache=cache)
        spec = fast_spec()
        (first,) = engine.run([spec])
        assert engine.last_stats.executed == 1
        blob = cache.path_for(spec).read_bytes()
        (second,) = engine.run([spec])
        assert engine.last_stats.executed == 0
        assert engine.last_stats.cache_hits == 1
        # re-serializing the result reproduces the file byte-for-byte
        cache.put(spec, second)
        assert cache.path_for(spec).read_bytes() == blob
        assert first.avg_latency == second.avg_latency
        assert first.latencies == second.latencies

    def test_schema_version_mismatch_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(cache=cache)
        spec = fast_spec()
        engine.run([spec])
        path = cache.path_for(spec)
        entry = json.loads(path.read_text())
        entry["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        engine.run([spec])
        assert engine.last_stats.executed == 1  # stale entry ignored
        assert json.loads(path.read_text())["schema"] == SCHEMA_VERSION

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = fast_spec()
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(spec) is None
        path.write_text(json.dumps({"schema": SCHEMA_VERSION, "kind": "sim"}))
        assert cache.get(spec) is None  # well-formed but truncated entry

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
        assert not spec_batchable(fast_spec(routing="rng"))

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
        with ExperimentEngine(
            cache=ResultCache(tmp_path / "par"), max_workers=2
        ) as parallel_engine:
            parallel = run_compare(
                parallel_engine, topos, "RND", self.LOADS, **FAST
            )
        assert set(serial) == set(parallel) == set(topos)
        for label in topos:
            assert serial[label].points == parallel[label].points
            assert serial[label].points[-1].saturated
            assert len(serial[label].points) <= len(self.LOADS)

    def test_repeated_sweep_loads_serves_from_cache(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        topo = make_network("sn54")
        first = sweep_loads(topo, "RND", [0.02, 0.1], engine=engine, **FAST)
        assert engine.last_stats.executed > 0
        again = sweep_loads(topo, "RND", [0.02, 0.1], engine=engine, **FAST)
        assert engine.last_stats.executed == 0  # zero new simulations
        assert first.points == again.points

    def test_symbol_and_object_sweeps_share_cache(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        by_symbol = sweep_loads("sn54", "RND", [0.02], engine=engine, **FAST)
        assert engine.last_stats.executed == 1
        by_object = sweep_loads(
            make_network("sn54"), "RND", [0.02], engine=engine, **FAST
        )
        assert engine.last_stats.executed == 0  # same fingerprint, same key
        assert by_symbol.points == by_object.points

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
        assert clone.avg_latency == result.avg_latency
        assert clone.p99_latency == result.p99_latency

    def test_sweep_result_round_trip(self):
        curve = sweep_loads(make_network("sn54"), "RND", [0.02],
                            engine=ExperimentEngine(), **FAST)
        from repro.analysis import SweepResult

        clone = SweepResult.from_dict(json.loads(json.dumps(curve.to_dict())))
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
