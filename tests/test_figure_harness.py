"""The figure harness stages a figure's whole grid as one campaign."""

from pathlib import Path

from repro.engine import ExperimentEngine
from repro.engine.campaign import CurveSpec, resolve_network, run_curves

BENCHMARKS = Path(__file__).parents[1] / "benchmarks"


def test_latency_curves_stage_the_grid_in_few_rounds(tmp_path, monkeypatch):
    """2 networks × 2 patterns on 2 workers and an empty store take at
    most one engine round per load, and each curve equals that curve
    swept alone on a serial engine."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # as the figures import it
    import harness

    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    rounds = []
    run = ExperimentEngine.run

    def counting_run(self, specs, **kw):
        rounds.append(len(specs))
        return run(self, specs, **kw)

    monkeypatch.setattr(ExperimentEngine, "run", counting_run)
    loads = [0.02, 0.3, 0.6]
    grid = {
        (symbol, pattern): (symbol, pattern, None, None)
        for symbol in ("sn54", "cm54")
        for pattern in ("RND", "ADV1")
    }
    curves = harness.latency_curves(grid, loads)
    assert len(rounds) <= len(loads)
    assert list(curves) == list(grid)
    assert any(len(curve.points) < len(loads) for curve in curves.values())

    monkeypatch.setattr(ExperimentEngine, "run", run)
    for key, (symbol, pattern, config, layout) in grid.items():
        token = resolve_network(symbol, layout)
        (alone,) = run_curves(
            ExperimentEngine(max_workers=1),
            {key: CurveSpec(symbol, token, pattern, "default", config)},
            loads,
            **harness.SIM_KW,
        ).values()
        assert curves[key].to_dict() == alone.to_dict()
