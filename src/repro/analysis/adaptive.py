"""The Fig 20-style adaptive-routing study.

Section 6 of the paper compares routing schemes under adversarial
traffic; this module reproduces that study shape across the widened
matrix — static minimal vs Valiant vs *live* UGAL (the simulator is the
congestion oracle) vs deflection, across load, traffic variant
(steady adversarial and bursty), and topology (SN vs mesh).  Every
point flows through the cached campaign engine, so reruns are pure
cache reads.

Typical use::

    from repro.analysis import adaptive_study

    study = adaptive_study(default_engine(), loads=[0.04, 0.08, 0.12])
    print(study.format_table())
    best = study.best_routing("sn200", "ADV1")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..engine.campaign import run_curves, study_curves
from ..engine.runner import ExperimentEngine
from ..sim import SimConfig
from .sweep import SweepResult

#: The study's default corners: one low-diameter SN network against the
#: concentrated mesh of the same node count (the paper's Fig 12 pairing).
DEFAULT_NETWORKS = ("sn200", "cm4")
#: Static minimal, oblivious Valiant, live-UGAL, and deflection.
DEFAULT_ROUTINGS = ("default", "valiant", "ugal-l", "deflect")
#: Steady adversarial traffic and the same pattern delivered in bursts
#: (4x peak at the same mean load).
DEFAULT_TRAFFIC = ("ADV1", "burst:ADV1:64+192")


@dataclass
class AdaptiveStudyResult:
    """All curves of one adaptive study, keyed (network, routing, traffic)."""

    networks: tuple[str, ...]
    routings: tuple[str, ...]
    traffic: tuple[str, ...]
    curves: dict[tuple[str, str, str], SweepResult] = field(default_factory=dict)

    def curve(self, network: str, routing: str, traffic: str) -> SweepResult:
        return self.curves[(network, routing, traffic)]

    def saturation_throughput(self, network: str, routing: str, traffic: str) -> float:
        return self.curve(network, routing, traffic).saturation_throughput()

    def best_routing(self, network: str, traffic: str) -> str:
        """Routing with the highest saturation throughput at this corner."""
        return max(
            self.routings,
            key=lambda r: self.saturation_throughput(network, r, traffic),
        )

    def rows(self) -> list[list]:
        """Saturation-throughput table: one row per (network, traffic)."""
        out: list[list] = []
        for network in self.networks:
            for traffic in self.traffic:
                row: list = [network, traffic]
                for routing in self.routings:
                    row.append(self.saturation_throughput(network, routing, traffic))
                row.append(self.best_routing(network, traffic))
                out.append(row)
        return out

    def format_table(self) -> str:
        from .metrics import format_table

        headers = ["network", "traffic", *self.routings, "best"]
        rows = [
            [
                *row[:2],
                *(f"{value:.4f}" for value in row[2:-1]),
                row[-1],
            ]
            for row in self.rows()
        ]
        return format_table(headers, rows)

    def to_dict(self) -> dict:
        return {
            "networks": list(self.networks),
            "routings": list(self.routings),
            "traffic": list(self.traffic),
            "curves": {
                f"{network}/{routing}/{traffic}": curve.to_dict()
                for (network, routing, traffic), curve in self.curves.items()
            },
        }


def adaptive_study(
    engine: ExperimentEngine,
    networks: Sequence[str] = DEFAULT_NETWORKS,
    routings: Sequence[str] = DEFAULT_ROUTINGS,
    traffic: Sequence[str] = DEFAULT_TRAFFIC,
    loads: Sequence[float] = (0.02, 0.06, 0.10, 0.14, 0.18, 0.22),
    *,
    config: SimConfig | None = None,
    configs: Mapping[str, SimConfig] | None = None,
    seed: int = 1,
    warmup: int = 300,
    measure: int = 800,
    drain: int = 1500,
    stop_after_saturation: bool = True,
    progress=None,
) -> AdaptiveStudyResult:
    """Run the full (network x routing x traffic x load) adaptive grid.

    The grid is one staged campaign (:func:`~repro.engine.campaign.run_curves`):
    each engine round takes the next loads of every unsaturated
    (network, routing, traffic) curve, so a multi-worker engine fans out
    across the whole study.  Every point is the spec ``python -m repro
    sweep NETWORK --routing R --patterns T`` computes, so CLI runs and
    this study share cache entries.  ``configs`` overrides the simulator
    config per network symbol (e.g. deeper buffers on the mesh).
    """
    study = AdaptiveStudyResult(
        networks=tuple(networks),
        routings=tuple(routings),
        traffic=tuple(traffic),
    )
    curves = study_curves(
        study.networks, study.routings, study.traffic, config=config, configs=configs
    )
    study.curves = run_curves(
        engine,
        curves,
        loads,
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain=drain,
        stop_after_saturation=stop_after_saturation,
        progress=progress,
    )
    return study
