"""Campaign observability: metrics, spans, logging, progress.

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
* :mod:`~repro.obs.progress` — the ``--progress`` live line
  (done/total, hit count, ETA weighted by each spec's predicted cost).
"""

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
    "DEFAULT_BUCKETS",
    "LOG_ENV",
    "LOG_FORMAT_ENV",
    "REGISTRY",
    "MetricsRegistry",
    "ProgressLine",
    "Span",
    "configure_logging",
    "format_duration",
    "get_logger",
    "get_registry",
    "render_prometheus",
    "span",
    "span_stack",
    "store_op",
]
