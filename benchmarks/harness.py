"""Common utilities for the figure/table benchmarks.

Each figure's latency curves are submitted together through the shared
experiment engine (:mod:`repro.engine`) as one staged campaign:
re-running a figure serves every point from the content-addressed
cache, and fresh points of all its curves fan out across one worker
process per available CPU (``REPRO_WORKERS=N`` sets N instead;
``REPRO_NO_CACHE=1`` forces re-simulation).
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.engine import default_engine
from repro.engine.campaign import CurveSpec, resolve_network, run_curves
from repro.sim import SimConfig

#: Short windows keep the full harness fast while preserving curve shapes.
SIM_KW = dict(warmup=200, measure=500, drain=1200)


def smart_config(**kw) -> SimConfig:
    return SimConfig(**kw).with_smart()


def latency_curves(grid, loads):
    """Sweep a figure's whole grid of catalog networks as one campaign.

    ``grid`` maps each key to ``(symbol, pattern, config, layout)``;
    ``config`` ``None`` is the default router and ``layout`` ``None`` the
    symbol's default layout.  Each curve is named by its layout, else by
    its symbol.  Returns ``{key: SweepResult}`` in the order of ``grid``.
    """
    curves = {}
    for key, (symbol, pattern, config, layout) in grid.items():
        token = resolve_network(symbol, layout)
        curves[key] = CurveSpec(layout or symbol, token, pattern, "default", config)
    return run_curves(default_engine(), curves, loads, **SIM_KW)


def print_series(title: str, headers, rows) -> None:
    print()
    print(format_table(headers, rows, title=title))
