"""Tests for the analysis harness: sweeps, large-N model, metrics."""

import ast
import math
from functools import cached_property
from pathlib import Path

import pytest

import repro.routing
import repro.topos.base as base_module
from repro.analysis import (
    LargeScaleModel,
    compare_networks,
    format_table,
    geometric_mean,
    relative_improvement,
)
from repro.engine import ExperimentEngine, ExperimentSpec, ResultCache
from repro.routing import RoutingAlgorithm, StaticMinimalRouting, UGALRouting
from repro.routing.paths import MinimalPaths
from repro.sim import NoCSimulator, SimConfig
from repro.topos import make_network
from repro.traffic import SyntheticSource


class TestSweep:
    def test_latency_rises_with_load(self):
        topo = make_network("sn54")
        result = compare_networks(
            {"sn54": topo}, "RND", [0.02, 0.2], warmup=200, measure=400, drain=800
        )["sn54"]
        assert result.latencies[0] < result.latencies[-1] * 1.5 + 5

    def test_stops_after_saturation(self):
        topo = make_network("cm54")  # low-radix: saturates early
        result = compare_networks(
            {"cm54": topo}, "RND", [0.05, 0.6, 0.8], warmup=200, measure=300, drain=600
        )["cm54"]
        assert result.points[-1].saturated or len(result.points) == 3
        if result.points[-1].saturated:
            assert len(result.points) < 3

    def test_zero_load_and_lookup(self):
        topo = make_network("sn54")
        result = compare_networks(
            {"sn54": topo}, "RND", [0.02, 0.1], warmup=200, measure=300, drain=600
        )["sn54"]
        assert result.zero_load_latency() == result.points[0].latency
        assert result.latency_at(0.02) == result.points[0].latency
        assert result.saturation_throughput() > 0

    def test_empty_sweep_raises(self):
        from repro.analysis.sweep import SweepResult

        empty = SweepResult("x", "RND")
        with pytest.raises(ValueError):
            empty.zero_load_latency()
        with pytest.raises(ValueError):
            empty.latency_at(0.1)

    def test_compare_networks(self):
        topos = {"sn54": make_network("sn54"), "t2d54": make_network("t2d54")}
        results = compare_networks(
            topos, "RND", [0.02], warmup=150, measure=250, drain=400
        )
        assert set(results) == {"sn54", "t2d54"}
        assert results["sn54"].network == "sn54"


class TestLargeScaleModel:
    def test_zero_load_reasonable(self):
        model = LargeScaleModel.build(make_network("sn1296"), "RND")
        assert 15 < model.zero_load_latency() < 50

    def test_smart_lowers_zero_load(self):
        topo = make_network("sn1296")
        plain = LargeScaleModel.build(topo, "RND")
        smart = LargeScaleModel.build(topo, "RND", SimConfig().with_smart())
        assert smart.zero_load_latency() < plain.zero_load_latency()

    def test_latency_monotone_in_load(self):
        model = LargeScaleModel.build(make_network("sn1296"), "RND")
        rates = [0.01, 0.1, 0.3, 0.5]
        latencies = [model.latency(r) for r in rates]
        assert latencies == sorted(latencies)

    def test_saturation_is_infinite_latency(self):
        model = LargeScaleModel.build(make_network("sn1296"), "RND")
        assert math.isinf(model.latency(model.saturation_rate * 1.01))
        with pytest.raises(ValueError):
            model.latency(-0.1)

    def test_sn_throughput_far_above_torus(self):
        """Paper section 5.2.2: SN improves throughput 10x over T2D at 1296."""
        sn = LargeScaleModel.build(make_network("sn1296"), "RND")
        t2d = LargeScaleModel.build(make_network("t2d9"), "RND")
        assert sn.saturation_rate > 8 * t2d.saturation_rate

    def test_sn_beats_pfbf_latency_with_smart(self):
        """Paper Figs 12-13 (SMART): SN's latency is ~6-25% below PFBF's —
        with single-cycle wires, SN's diameter-2 advantage dominates."""
        smart = SimConfig().with_smart()
        sn = LargeScaleModel.build(make_network("sn1296"), "RND", smart)
        pfbf = LargeScaleModel.build(make_network("pfbf9"), "RND", smart)
        assert sn.zero_load_latency() < pfbf.zero_load_latency()

    def test_sweep_compatible_output(self):
        model = LargeScaleModel.build(make_network("sn1296"), "RND")
        result = model.sweep([0.01, 0.1, 2.0])
        assert result.points[-1].saturated
        assert result.points[0].latency < result.points[1].latency

    def test_empty_store_builds_next_hop_once(self, tmp_path, monkeypatch):
        """The averages come from the topology's BFS summary, so only the
        worst-channel load builds a next-hop table."""
        builds = []
        next_hop = MinimalPaths.__dict__["next_hop"].func

        def counting_next_hop(self):
            builds.append(self.topology)
            return next_hop(self)

        counting = cached_property(counting_next_hop)
        counting.__set_name__(MinimalPaths, "next_hop")
        monkeypatch.setattr(MinimalPaths, "next_hop", counting)
        monkeypatch.setattr(base_module, "_ROUTE_TOTALS", {})
        cache = ResultCache(tmp_path)
        LargeScaleModel.build(make_network("sn54"), "RND", cache=cache)
        assert cache.stats().entries == 1
        assert len(builds) == 1

    def test_model_tracks_simulator_at_small_n(self):
        """Cross-check: analytical zero-load within ~40% of cycle-accurate."""
        topo = make_network("sn200")
        model = LargeScaleModel.build(topo, "RND")
        simulated = compare_networks(
            {"sn200": topo}, "RND", [0.01], warmup=200, measure=400, drain=600
        )["sn200"]
        ratio = model.zero_load_latency() / simulated.zero_load_latency()
        assert 0.6 < ratio < 1.4


class TestMetrics:
    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([2, 2, 2]) == pytest.approx(2.0)

    def test_geometric_mean_validation(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])

    def test_relative_improvement(self):
        assert relative_improvement(45, 100) == pytest.approx(0.55)
        with pytest.raises(ValueError):
            relative_improvement(1, 0)

    def test_format_table(self):
        text = format_table(["net", "lat"], [["sn", 12.5], ["fbf", 14.0]], title="T")
        assert "T" in text and "sn" in text and "12.5" in text
        lines = text.splitlines()
        assert set(lines[2]) <= {"-", " "}


#: Tiny windows for the sn54 class.
FAST = dict(warmup=100, measure=200, drain=300)
#: Figure 20's router configuration (benchmarks/test_fig20_adaptive.py).
FIG20_CONFIG = SimConfig(num_vcs=4, edge_buffer_flits=8)


class TestRoutingNames:
    """Routing is a scheme name; anything else fails before simulating."""

    def test_unknown_name_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown routing 'ugal'; options"):
            ExperimentSpec.synthetic("sn54", "RND", 0.05, routing="ugal")

    def test_routing_object_rejected_at_construction(self):
        ugal = UGALRouting(make_network("sn54"))
        with pytest.raises(ValueError, match="unknown routing"):
            ExperimentSpec.synthetic("sn54", "RND", 0.05, routing=ugal)

    def test_sweep_with_routing_object_simulates_nothing(
        self, tmp_path, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("simulated a point")

        monkeypatch.setattr(NoCSimulator, "run", forbidden)
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        topo = make_network("sn54")
        with pytest.raises(ValueError, match="unknown routing"):
            compare_networks(
                {"sn54": topo}, "RND", [0.05], routing=UGALRouting(topo),
                engine=engine, **FAST,
            )


class TestOneSimulationPath:
    """Sweeps by routing name agree with a directly executed spec."""

    LOADS = [0.02, 0.2]

    def test_named_adaptive_sweep_matches_spec_execute(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        curve = compare_networks(
            {"sn54": "sn54"}, "ADV1", self.LOADS, routing="ugal-l", engine=engine,
            stop_after_saturation=False, **FAST,
        )["sn54"]
        assert engine.last_stats.executed == len(self.LOADS)
        for point in curve.points:
            spec = ExperimentSpec.synthetic(
                "sn54", "ADV1", point.load, routing="ugal-l", **FAST
            )
            direct = spec.execute()
            assert point.latency == direct.avg_latency
            assert point.throughput == direct.throughput
            assert point.saturated == direct.saturated
        again = compare_networks(
            {"sn54": "sn54"}, "ADV1", self.LOADS, routing="ugal-l", engine=engine,
            stop_after_saturation=False, **FAST,
        )["sn54"]
        assert engine.last_stats.executed == 0
        assert again.points == curve.points

    @pytest.mark.parametrize("pattern", ["RND", "ASYM"])
    def test_default_spec_equals_figure20_minimal_run(self, pattern):
        """Figure 20's MIN rows: the engine's ``default`` routing gives
        the same result as the hand-built 4-VC static minimal router."""
        topo = make_network("sn54")
        for load in self.LOADS:
            spec = ExperimentSpec.synthetic(
                "sn54", pattern, load, config=FIG20_CONFIG, seed=2, **FAST
            )
            sim = NoCSimulator(
                topo, FIG20_CONFIG, routing=StaticMinimalRouting(topo, num_vcs=4),
                seed=2,
            )
            direct = sim.run(SyntheticSource(topo, pattern, load), **FAST)
            assert spec.execute().to_dict() == direct.to_dict()


#: What a figure must not call: the simulator itself, or anything that
#: builds a routing object for it.  Figures go through the engine.
_BYPASS_CALLS = frozenset(
    {"NoCSimulator", "default_routing"}
    | {
        name
        for name, obj in vars(repro.routing).items()
        if isinstance(obj, type) and issubclass(obj, RoutingAlgorithm)
    }
)


def _bypass_calls(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in _BYPASS_CALLS:
                found.append(f"line {node.lineno}: {name}")
    return found


class TestFiguresUseEngine:
    """A warm reproduction of the paper runs no simulations: no figure
    may build a simulator or routing object of its own."""

    def test_scanner_flags_a_bypass(self):
        assert {"StaticMinimalRouting", "UGALRouting"} <= _BYPASS_CALLS
        source = "sim = repro.sim.NoCSimulator(topo, routing=UGALRouting(topo))\n"
        assert _bypass_calls(source) == [
            "line 1: NoCSimulator",
            "line 1: UGALRouting",
        ]

    def test_no_figure_bypasses_the_engine(self):
        figures = sorted(
            (Path(__file__).parents[1] / "benchmarks").glob("test_*.py")
        )
        assert figures
        offenders = {
            path.name: calls
            for path in figures
            if (calls := _bypass_calls(path.read_text()))
        }
        assert offenders == {}
