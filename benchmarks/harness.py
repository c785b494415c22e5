"""Common utilities for the figure/table benchmarks.

Latency curves are submitted through the shared experiment engine
(:mod:`repro.engine`): re-running a figure serves every point from the
content-addressed cache, and fresh points fan out across one worker
process per available CPU (``REPRO_WORKERS=N`` sets N instead;
``REPRO_NO_CACHE=1`` forces re-simulation).
"""

from __future__ import annotations

from repro.analysis import format_table, sweep_loads
from repro.engine import default_engine
from repro.sim import SimConfig
from repro.topos import make_network

#: Short windows keep the full harness fast while preserving curve shapes.
SIM_KW = dict(warmup=200, measure=500, drain=1200)

#: Load points used by most latency figures (flits/node/cycle).
FIGURE_LOADS = [0.008, 0.06, 0.16, 0.30]


def smart_config(**kw) -> SimConfig:
    return SimConfig(**kw).with_smart()


def latency_curve(symbol, pattern, loads=None, config=None, layout=None, **kw):
    """Sweep one catalog network through the engine; returns a SweepResult."""
    params = dict(SIM_KW)
    params.update(kw)
    params.setdefault("engine", default_engine())
    return sweep_loads(
        make_network(symbol, layout),
        pattern,
        list(loads or FIGURE_LOADS),
        config=config,
        name=symbol if layout is None else layout,
        **params,
    )


def print_series(title: str, headers, rows) -> None:
    print()
    print(format_table(headers, rows, title=title))
