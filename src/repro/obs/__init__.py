"""Campaign observability: metrics, spans, logging, calibration, progress.

``repro.obs`` is the cross-cutting telemetry layer under every hot path
in the repo.  It deliberately imports nothing from :mod:`repro.engine`
(the engine imports *it*), so any module — store backends, the runner,
the HTTP server, the perf harness — can record into one process-local
registry without import cycles:

* :mod:`~repro.obs.metrics` — a process-local, thread-safe
  :class:`MetricsRegistry` of counters, gauges, and fixed-bucket
  histograms, rendered in Prometheus text exposition format
  (``repro serve`` exposes it at ``GET /metrics``), plus lightweight
  :func:`span` stage timers with thread-local nesting;
* :mod:`~repro.obs.logs` — one ``repro.*`` logger hierarchy behind
  :func:`configure_logging` (text or JSON lines, selected by the
  ``REPRO_LOG`` / ``REPRO_LOG_FORMAT`` environment knobs);
* :mod:`~repro.obs.calibration` — the measured-cost table
  (:class:`CostCalibration`): per-spec wall seconds observed by the
  engine accumulate into buckets keyed by (network size, simulated
  cycles), so ``predicted_cost`` (the queue's heaviest-first order and
  the ``--progress`` ETA) converges toward real wall times instead of
  the load×size×cycles heuristic; a fresh checkout seeds the table from the committed perf baseline
  (``benchmarks/BENCH_sim_core.json``);
* :mod:`~repro.obs.progress` — the ``--progress`` live line
  (done/total, hit rate, ETA from calibrated cost).
"""

from .calibration import (
    CALIBRATION_ENV,
    COST_BASE_ACTIVITY,
    CostCalibration,
    bucket_key,
    default_calibration,
    default_calibration_path,
    seed_from_perf_baseline,
)
from .logs import (
    LOG_ENV,
    LOG_FORMAT_ENV,
    configure_logging,
    get_logger,
)
from .metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    MetricsRegistry,
    Span,
    get_registry,
    render_prometheus,
    span,
    span_stack,
    store_op,
)
from .progress import ProgressLine, format_duration

__all__ = [
    "CALIBRATION_ENV",
    "COST_BASE_ACTIVITY",
    "DEFAULT_BUCKETS",
    "LOG_ENV",
    "LOG_FORMAT_ENV",
    "REGISTRY",
    "CostCalibration",
    "MetricsRegistry",
    "ProgressLine",
    "Span",
    "bucket_key",
    "configure_logging",
    "default_calibration",
    "default_calibration_path",
    "format_duration",
    "get_logger",
    "get_registry",
    "render_prometheus",
    "seed_from_perf_baseline",
    "span",
    "span_stack",
    "store_op",
]
