"""Workload-source determinism, tagged-union specs, campaigns, cache GC."""

import hashlib
import json
import random
import time
from dataclasses import asdict

import pytest
from pack_entries import PackEntries

from repro.analysis import edp_table, smart_latency_gains, workload_table
from repro.engine import (
    ExperimentEngine,
    ExperimentSpec,
    ResultCache,
    SyntheticTraffic,
    WorkloadTraffic,
    traffic_from_dict,
    workload_compare,
)
from repro.sim import SimConfig
from repro.topos import make_network
from repro.traffic import WORKLOADS, WorkloadSource, workload_names

#: Tiny but shape-preserving windows for the sn54/cm54 class.
FAST = dict(warmup=100, measure=200, drain=300)


def stream(source: WorkloadSource, cycles: int, seed: int) -> list:
    rng = random.Random(seed)
    return [list(source.packets_at(cycle, rng)) for cycle in range(cycles)]


class TestWorkloadSourceDeterminism:
    def test_same_seed_identical_stream(self):
        topo = make_network("sn54")
        a = stream(WorkloadSource(topo, "fft", seed=5), 400, seed=9)
        b = stream(WorkloadSource(topo, "fft", seed=5), 400, seed=9)
        assert a == b
        assert any(a)  # the stream actually injects something

    def test_seed_changes_stream(self):
        topo = make_network("sn54")
        a = stream(WorkloadSource(topo, "fft", seed=5), 400, seed=9)
        c = stream(WorkloadSource(topo, "fft", seed=6), 400, seed=9)
        assert a != c

    def test_message_mechanics(self):
        topo = make_network("sn54")
        packets = [
            p
            for specs in stream(WorkloadSource(topo, "ocean-c", seed=1), 600, seed=2)
            for p in specs
        ]
        kinds = {p[3] for p in packets}
        assert kinds <= {"read", "write"}
        for src, dst, size, kind, wants_reply, reply_size in packets:
            assert src != dst
            if kind == "read":
                assert (size, wants_reply, reply_size) == (2, True, 6)
            else:
                assert (size, wants_reply, reply_size) == (6, False, 0)


class TestTaggedUnionSpecs:
    def test_synthetic_round_trip(self):
        spec = ExperimentSpec.synthetic("sn54", "RND", 0.05, **FAST)
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()
        assert isinstance(clone.source, SyntheticTraffic)

    def test_workload_round_trip(self):
        spec = ExperimentSpec.workload("sn54", "barnes", intensity_scale=1.5, **FAST)
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()
        assert isinstance(clone.source, WorkloadTraffic)

    def test_older_payloads_are_refused(self):
        """Only version 5 decodes: an older version, a config carrying a
        retired knob at its old constant, and a pre-version-3 top-level
        ``pattern``/``load`` payload each raise ``ValueError``."""
        spec = ExperimentSpec.synthetic("sn54", "RND", 0.05, **FAST)
        version_4 = dict(spec.to_dict(), spec_version=4)
        with pytest.raises(ValueError, match="spec_version must be 5, got 4"):
            ExperimentSpec.from_dict(version_4)
        retired = spec.to_dict()
        retired["config"]["router_delay"] = 2
        with pytest.raises(ValueError, match=r"unknown fields \['router_delay'\]"):
            ExperimentSpec.from_dict(retired)
        top_level = spec.to_dict()
        del top_level["source"]
        top_level.update(pattern="RND", load=0.05)
        with pytest.raises(ValueError, match=r"missing fields \['source'\]"):
            ExperimentSpec.from_dict(top_level)

    def test_hash_distinguishes_kinds_and_knobs(self):
        synthetic = ExperimentSpec.synthetic("sn54", "RND", 0.05, **FAST)
        wl = ExperimentSpec.workload("sn54", "barnes", **FAST)
        assert synthetic.content_hash() != wl.content_hash()
        assert (
            wl.content_hash()
            != ExperimentSpec.workload("sn54", "fft", **FAST).content_hash()
        )
        assert (
            wl.content_hash()
            != ExperimentSpec.workload(
                "sn54", "barnes", intensity_scale=0.5, **FAST
            ).content_hash()
        )

    def test_hash_covers_workload_params(self):
        # Retuning a benchmark in WORKLOADS must move its cache keys.
        spec = ExperimentSpec.workload("sn54", "barnes", **FAST)
        before = spec.content_hash()
        original = WORKLOADS["barnes"]
        try:
            WORKLOADS["barnes"] = type(original)(
                original.name, original.intensity * 2, original.read_fraction,
                original.locality, original.burstiness,
            )
            retuned = ExperimentSpec.workload("sn54", "barnes", **FAST)
            assert retuned.content_hash() != before
        finally:
            WORKLOADS["barnes"] = original

    @pytest.mark.parametrize("bench", workload_names())
    def test_params_match_the_dataclass_copy(self, bench):
        """The shallow field copy serializes exactly what ``asdict``
        gave, so no workload spec hash moves."""
        spec = ExperimentSpec.workload("sn54", bench, **FAST)
        payload = spec.to_dict()
        assert payload["source"]["params"] == asdict(WORKLOADS[bench])
        payload["source"]["params"] = asdict(WORKLOADS[bench])
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert spec.content_hash() == hashlib.sha256(blob.encode()).hexdigest()

    def test_unknown_bench_rejected(self):
        with pytest.raises(ValueError):
            WorkloadTraffic("not-a-bench")
        with pytest.raises(ValueError):
            traffic_from_dict({"kind": "nope"})

    def test_workload_spec_executes(self):
        result = ExperimentSpec.workload("sn54", "water-s", **FAST).execute()
        assert result.delivered_packets > 0


class TestWorkloadCampaigns:
    def test_compare_grid_and_caching(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        table = workload_compare(
            engine, {"sn54": "sn54", "cm54": "cm54"}, ["barnes", "fft"], **FAST
        )
        assert set(table) == {"sn54", "cm54"}
        assert set(table["sn54"]) == {"barnes", "fft"}
        assert engine.last_stats.executed == 4
        again = workload_compare(
            engine, {"sn54": "sn54", "cm54": "cm54"}, ["barnes", "fft"], **FAST
        )
        assert engine.last_stats.executed == 0  # zero new simulations
        for label in table:
            for bench in table[label]:
                assert (
                    table[label][bench].avg_latency
                    == again[label][bench].avg_latency
                )

    def test_workload_table_joins_power(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        table = workload_table(
            ["sn54", "cm54"], ["barnes"], engine=engine, **FAST
        )
        row = table["sn54"]["barnes"]
        assert row.total_power_w > 0
        assert row.energy_delay_product > 0
        edp = edp_table(table, "cm54")
        assert edp["barnes"]["cm54"] == 1.0

    def test_smart_gains_run_as_one_batch(self, tmp_path):
        """Table 6: both SMART settings of every network are one engine
        batch, with the gains of two separate per-setting campaigns."""
        networks, benches = ["sn54", "cm54"], ["barnes", "fft"]
        engine = ExperimentEngine(cache=ResultCache(tmp_path / "one"))
        batches = []
        run = engine.run

        def counting_run(specs, **kw):
            batches.append(len(specs))
            return run(specs, **kw)

        engine.run = counting_run
        gains = smart_latency_gains(networks, benches, engine=engine, **FAST)
        assert batches == [2 * len(networks) * len(benches)]

        engine = ExperimentEngine(cache=ResultCache(tmp_path / "two"))
        off, on = (
            workload_compare(
                engine,
                {symbol: symbol for symbol in networks},
                benches,
                config=SimConfig().with_smart(smart),
                seed=4,
                **FAST,
            )
            for smart in (False, True)
        )
        assert gains == {
            (symbol, bench): 100.0
            * (1 - on[symbol][bench].avg_latency / off[symbol][bench].avg_latency)
            for symbol in networks
            for bench in benches
        }


class TestCacheGC:
    def fill(self, tmp_path, n=4):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(cache=cache)
        specs = [
            ExperimentSpec.synthetic("sn54", "RND", 0.02 + 0.01 * i, **FAST)
            for i in range(n)
        ]
        engine.run(specs)
        return cache, specs

    @staticmethod
    def backdate(cache, spec, stamp):
        """Set one entry's LRU timestamp in the pack under ``cache``."""
        PackEntries(cache.backend.path).set_mtime(spec.content_hash(), stamp)

    def test_max_bytes_keeps_most_recent(self, tmp_path):
        cache, specs = self.fill(tmp_path)
        # Spread mtimes, oldest first, then re-read one to bump its LRU slot.
        for i, spec in enumerate(specs):
            self.backdate(cache, spec, time.time() - 3600 + i)
        keep_size = len(PackEntries(cache.backend.path).text(specs[-1].content_hash()))
        report = cache.gc(max_bytes=keep_size)
        assert report.removed_entries == len(specs) - 1
        assert cache.get(specs[-1]) is not None  # newest mtime survived
        assert cache.get(specs[0]) is None

    def test_max_bytes_zero_empties_cache(self, tmp_path):
        cache, specs = self.fill(tmp_path)
        report = cache.gc(max_bytes=0)
        assert report.kept_entries == 0
        assert cache.stats().entries == 0
        # subsequent runs still work (cache repopulates cleanly)
        engine = ExperimentEngine(cache=cache)
        engine.run([specs[0]])
        assert engine.last_stats.executed == 1
        assert cache.stats().entries == 1

    def test_max_age_evicts_stale_only(self, tmp_path):
        cache, specs = self.fill(tmp_path)
        old = time.time() - 10 * 86400
        for spec in specs[:2]:
            self.backdate(cache, spec, old)
        report = cache.gc(max_age_days=7)
        assert report.removed_entries == 2
        assert cache.get(specs[2]) is not None
        assert cache.get(specs[0]) is None

    def test_hit_touches_mtime(self, tmp_path):
        cache, specs = self.fill(tmp_path, n=1)
        old = time.time() - 10 * 86400
        self.backdate(cache, specs[0], old)
        assert cache.get(specs[0]) is not None  # hit refreshes LRU position
        stamp = PackEntries(cache.backend.path).mtime(specs[0].content_hash())
        assert stamp > old + 86400

    def test_unreachable_versions_reclaimable_and_collected(self, tmp_path):
        cache, specs = self.fill(tmp_path, n=3)
        rows = PackEntries(cache.backend.path)
        for spec, version in zip(specs, (4, 3)):  # superseded spec versions
            key = spec.content_hash()
            entry = rows.entry(key)
            entry["spec"]["spec_version"] = version
            rows.write(key, entry)
        stats = cache.stats()
        assert stats.reclaimable_entries == 2
        assert stats.reclaimable_bytes > 0
        report = cache.gc()  # no limits: only unreachable garbage goes
        assert report.removed_entries == 2
        assert cache.get(specs[2]) is not None
