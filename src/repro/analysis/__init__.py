"""Analysis harness: sweeps, workload campaigns, large-N models, metrics."""

from .adaptive import AdaptiveStudyResult, adaptive_study
from .largescale import LargeScaleModel, model_curves
from .metrics import format_table, geometric_mean, relative_improvement
from .resilience import ResilienceReport, degrade, resilience_curve
from .sweep import SweepPoint, SweepResult, compare_networks
from .workloads import (
    WorkloadRow,
    edp_gain,
    edp_table,
    smart_latency_gains,
    workload_table,
)

__all__ = [
    "AdaptiveStudyResult",
    "adaptive_study",
    "SweepPoint",
    "SweepResult",
    "compare_networks",
    "LargeScaleModel",
    "model_curves",
    "geometric_mean",
    "relative_improvement",
    "format_table",
    "ResilienceReport",
    "degrade",
    "resilience_curve",
    "WorkloadRow",
    "workload_table",
    "edp_table",
    "edp_gain",
    "smart_latency_gains",
]
