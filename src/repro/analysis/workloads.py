"""Workload campaigns: PARSEC/SPLASH runs joined with the power models.

The paper's real-traffic results — Figure 18's energy-delay product and
Table 6's SMART latency gains — drive the cycle-accurate simulator with
per-benchmark workload models and then fold the outcome into the
analytical power model.  This module is that join: simulations are
submitted through the experiment engine (content-addressed cache +
process-pool fan-out, like every synthetic sweep), and each
:class:`~repro.sim.SimResult` is combined with static/dynamic power and
the per-topology cycle time into a :class:`WorkloadRow`.

Networks are named by catalog symbol (``sn200``, ``fbf3``, …) because
the cycle-time table (:func:`repro.topos.cycle_time_ns`) is keyed by
symbol — the same convention the figure harness uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..power import (
    TECH_45NM,
    Technology,
    dynamic_power,
    make_metrics,
    static_power,
)
from ..sim import SimConfig, SimResult
from ..topos import cycle_time_ns, make_network
from .metrics import geometric_mean


@dataclass(frozen=True)
class WorkloadRow:
    """One (network, benchmark) evaluation: performance joined with power."""

    network: str
    bench: str
    avg_latency: float
    throughput: float
    static_power_w: float
    dynamic_power_w: float
    energy_delay_product: float
    saturated: bool

    @property
    def total_power_w(self) -> float:
        return self.static_power_w + self.dynamic_power_w

    def to_dict(self) -> dict:
        return {
            "network": self.network,
            "bench": self.bench,
            "avg_latency": self.avg_latency,
            "throughput": self.throughput,
            "static_power_w": self.static_power_w,
            "dynamic_power_w": self.dynamic_power_w,
            "total_power_w": self.total_power_w,
            "energy_delay_product": self.energy_delay_product,
            "saturated": self.saturated,
        }


def _join_power(
    symbol: str,
    bench: str,
    result: SimResult,
    config: SimConfig,
    tech: Technology,
) -> WorkloadRow:
    """Fold one simulation outcome into the power/EDP models."""
    topo = make_network(symbol)
    ct = cycle_time_ns(symbol)
    kw = dict(hops_per_cycle=config.hops_per_cycle, edge_buffer_flits=None)
    metrics = make_metrics(
        throughput_flits_per_cycle=result.throughput * topo.num_nodes,
        cycle_time_ns=ct,
        static=static_power(topo, tech, **kw),
        dynamic=dynamic_power(topo, tech, result.throughput, ct, **kw),
        avg_latency_cycles=result.avg_latency,
    )
    return WorkloadRow(
        network=symbol,
        bench=bench,
        avg_latency=result.avg_latency,
        throughput=result.throughput,
        static_power_w=metrics.static_power_w,
        dynamic_power_w=metrics.dynamic_power_w,
        energy_delay_product=metrics.energy_delay_product,
        saturated=result.saturated,
    )


def workload_table(
    networks: Sequence[str],
    benches: Sequence[str],
    *,
    config: SimConfig | None = None,
    configs: Mapping[str, SimConfig] | None = None,
    smart: bool = True,
    tech: Technology = TECH_45NM,
    intensity_scale: float = 1.0,
    seed: int = 3,
    warmup: int = 300,
    measure: int = 600,
    drain: int = 1200,
    engine=None,
    progress=None,
) -> dict[str, dict[str, WorkloadRow]]:
    """Evaluate catalog networks across benchmark models; returns
    ``{symbol: {bench: WorkloadRow}}``.

    ``smart`` applies :meth:`~repro.sim.SimConfig.with_smart` to the
    (default) config — the Figure 18 setting; pass an explicit ``config``
    or per-network ``configs`` to override.  All simulations go through
    the engine: cached per point, fanned across workers.
    """
    from ..engine import default_engine, workload_compare

    if config is None:
        config = SimConfig().with_smart(smart)
    results = workload_compare(
        engine if engine is not None else default_engine(),
        {symbol: symbol for symbol in networks},
        benches,
        configs=configs,
        config=config,
        intensity_scale=intensity_scale,
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain=drain,
        progress=progress,
    )
    table: dict[str, dict[str, WorkloadRow]] = {}
    for symbol in networks:
        row_config = (configs or {}).get(symbol, config)
        table[symbol] = {
            bench: _join_power(symbol, bench, results[symbol][bench], row_config, tech)
            for bench in benches
        }
    return table


def edp_table(
    table: Mapping[str, Mapping[str, WorkloadRow]], baseline: str
) -> dict[str, dict[str, float]]:
    """Per-benchmark EDP normalised to ``baseline`` (Figure 18's layout):
    ``{bench: {symbol: edp / edp_baseline}}``."""
    if baseline not in table:
        raise KeyError(f"baseline {baseline!r} missing from table")
    out: dict[str, dict[str, float]] = {}
    for symbol, rows in table.items():
        for bench, row in rows.items():
            base = table[baseline][bench].energy_delay_product
            out.setdefault(bench, {})[symbol] = row.energy_delay_product / base
    return out


def edp_gain(
    edp: Mapping[str, Mapping[str, float]], symbol: str, against: str
) -> float:
    """Geometric-mean EDP advantage of ``symbol`` over ``against`` across
    benchmarks (``0.55`` = 55% lower EDP)."""
    ratios = [edp[bench][symbol] / edp[bench][against] for bench in edp]
    return 1 - geometric_mean(ratios)


def smart_latency_gains(
    networks: Sequence[str],
    benches: Sequence[str],
    *,
    seed: int = 4,
    warmup: int = 200,
    measure: int = 500,
    drain: int = 1200,
    intensity_scale: float = 1.0,
    engine=None,
    progress=None,
) -> dict[tuple[str, str], float]:
    """Percentage latency decrease from SMART links per (network, bench)
    — Table 6.  Both configurations of every network run as one engine
    batch: one label per (network, SMART off/on)."""
    from ..engine import default_engine, workload_compare

    labels = [(symbol, smart) for smart in (False, True) for symbol in networks]
    results = workload_compare(
        engine if engine is not None else default_engine(),
        {label: label[0] for label in labels},
        benches,
        configs={label: SimConfig().with_smart(label[1]) for label in labels},
        intensity_scale=intensity_scale,
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain=drain,
        progress=progress,
    )
    return {
        (symbol, bench): 100.0
        * (
            1
            - results[symbol, True][bench].avg_latency
            / results[symbol, False][bench].avg_latency
        )
        for symbol in networks
        for bench in benches
    }
