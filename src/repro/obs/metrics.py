"""Process-local metrics registry and stage spans.

Everything here is deliberately dependency-free and deterministic:

* the registry is **process-local** — pool workers each accumulate into
  their own copy and nothing is merged implicitly (campaign-level
  aggregation happens through :class:`~repro.engine.runner.RunStats`,
  which already crosses the process boundary);
* histogram bucket edges are **fixed** (:data:`DEFAULT_BUCKETS`), never
  derived from observed data, so two runs of the same campaign render
  byte-identical ``le=`` label sets;
* :func:`render_prometheus` sorts metric families by name and children
  by label values, so a scrape is a pure function of the recorded
  samples.

The global :data:`REGISTRY` is what ``repro serve`` exposes at
``GET /metrics`` (Prometheus text exposition format 0.0.4) and what the
engine, the store backends, and the perf harness record into.  Tests
that want isolation construct their own :class:`MetricsRegistry`.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager

#: Fixed histogram bucket edges (seconds).  Spanning 0.5 ms .. 60 s
#: covers everything from a single SQLite batch to a full sweep stage.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


def _format_value(value: float) -> str:
    """Prometheus sample value: integers render bare, floats via repr."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class _Child:
    """One labelled time series.  Thread-safe via the parent's lock."""

    __slots__ = ("_metric", "_values", "count", "total")

    def __init__(self, metric: _Metric):
        self._metric = metric
        self.total = 0.0
        self.count = 0
        self._values = (
            [0] * (len(metric.buckets) + 1) if metric.kind == "histogram" else None
        )

    def inc(self, amount: float = 1.0) -> None:
        with self._metric.lock:
            self.total += amount
            self.count += 1

    def set(self, value: float) -> None:
        with self._metric.lock:
            self.total = value
            self.count += 1

    def observe(self, value: float) -> None:
        with self._metric.lock:
            self.total += value
            self.count += 1
            for i, edge in enumerate(self._metric.buckets):
                if value <= edge:
                    self._values[i] += 1
                    return
            self._values[-1] += 1

    @property
    def value(self) -> float:
        return self.total

    def bucket_counts(self) -> list[int]:
        """Cumulative per-bucket counts (one extra entry for +Inf)."""
        out, running = [], 0
        for n in self._values:
            running += n
            out.append(running)
        return out


class _Metric:
    """A metric family: name, help text, label names, and its children."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...],
    ):
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = labelnames
        self.buckets = buckets
        self.lock = threading.Lock()
        self._children: dict[tuple[str, ...], _Child] = {}
        if not labelnames:
            self._children[()] = _Child(self)

    def labels(self, **labels: str) -> _Child:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self.lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _Child(self)
            return child

    # Unlabelled convenience forwarding.
    def inc(self, amount: float = 1.0) -> None:
        self._children[()].inc(amount)

    def set(self, value: float) -> None:
        self._children[()].set(value)

    def observe(self, value: float) -> None:
        self._children[()].observe(value)

    def children(self) -> list[tuple[tuple[str, ...], _Child]]:
        with self.lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """Thread-safe collection of counters, gauges, and histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling twice
    with the same name returns the same family, so modules can declare
    their instruments at import time without coordination.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...],
    ) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = _Metric(name, help_text, kind, tuple(labelnames), buckets)
                self._metrics[name] = metric
            elif metric.kind != kind or metric.labelnames != tuple(labelnames):
                raise ValueError(f"metric {name!r} re-registered with a new shape")
            return metric

    def counter(
        self, name: str, help_text: str, labelnames: tuple[str, ...] = ()
    ) -> _Metric:
        return self._register(name, help_text, "counter", labelnames, ())

    def gauge(
        self, name: str, help_text: str, labelnames: tuple[str, ...] = ()
    ) -> _Metric:
        return self._register(name, help_text, "gauge", labelnames, ())

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> _Metric:
        return self._register(name, help_text, "histogram", labelnames, buckets)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def value(self, name: str, **labels: str) -> float:
        """Current value of one series (0.0 if never touched)."""
        metric = self.get(name)
        if metric is None:
            return 0.0
        key = tuple(str(labels[n]) for n in metric.labelnames if n in labels)
        if len(key) != len(metric.labelnames):
            return 0.0
        with metric.lock:
            child = metric._children.get(key)
        return child.value if child else 0.0

    def render(self) -> str:
        """Prometheus text exposition format 0.0.4, deterministic order."""
        lines: list[str] = []
        with self._lock:
            families = sorted(self._metrics.items())
        for name, metric in families:
            lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for key, child in metric.children():
                if metric.kind == "histogram":
                    edges = [*(f"{e:g}" for e in metric.buckets), "+Inf"]
                    for edge, count in zip(edges, child.bucket_counts()):
                        labels = _format_labels(
                            (*metric.labelnames, "le"), (*key, edge)
                        )
                        lines.append(f"{name}_bucket{labels} {count}")
                    labels = _format_labels(metric.labelnames, key)
                    lines.append(f"{name}_sum{labels} {_format_value(child.total)}")
                    lines.append(f"{name}_count{labels} {child.count}")
                else:
                    labels = _format_labels(metric.labelnames, key)
                    lines.append(f"{name}{labels} {_format_value(child.value)}")
        return "\n".join(lines) + "\n"


#: The process-global registry every instrument below records into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    return (registry or REGISTRY).render()


# ---------------------------------------------------------------------------
# Shared instrument families.  Declared once here; importers record into
# them via the helpers below so metric names stay in one place.
# ---------------------------------------------------------------------------

STAGE_SECONDS = REGISTRY.histogram(
    "repro_stage_seconds",
    "Wall seconds per instrumented stage (span timers)",
    ("stage",),
)
STORE_OPS = REGISTRY.counter(
    "repro_store_ops_total",
    "Cache-backend operations by backend and op",
    ("backend", "op"),
)
STORE_OP_SECONDS = REGISTRY.histogram(
    "repro_store_op_seconds",
    "Cache-backend operation latency",
    ("backend", "op"),
)
STORE_BYTES = REGISTRY.counter(
    "repro_store_bytes_total",
    "Payload bytes moved through cache backends",
    ("backend", "op"),
)
STORE_RETRIES = REGISTRY.counter(
    "repro_store_retries_total",
    "Remote-store retry attempts by endpoint",
    ("endpoint",),
)
SERVER_REQUESTS = REGISTRY.counter(
    "repro_server_requests_total",
    "Store-server HTTP requests by endpoint and method",
    ("endpoint", "method"),
)
SERVER_SECONDS = REGISTRY.histogram(
    "repro_server_request_seconds",
    "Store-server request latency by endpoint",
    ("endpoint",),
)
SERVER_ERRORS = REGISTRY.counter(
    "repro_server_errors_total",
    "Store-server error responses by endpoint and status",
    ("endpoint", "status"),
)
CACHE_REQUESTS = REGISTRY.counter(
    "repro_cache_requests_total",
    "Result-cache lookups by outcome (hit/miss)",
    ("outcome",),
)
ENGINE_SPECS = REGISTRY.counter(
    "repro_engine_specs_total",
    "Experiment specs resolved by the engine, by outcome",
    ("outcome",),
)
ENGINE_SPEC_SECONDS = REGISTRY.histogram(
    "repro_engine_spec_seconds",
    "Measured wall seconds per executed experiment spec",
)
QUEUE_DEPTH = REGISTRY.gauge(
    "repro_queue_depth",
    "Work-queue jobs by state (pending/leased/done/quarantined)",
    ("state",),
)
QUEUE_SUBMITTED = REGISTRY.counter(
    "repro_queue_submitted_total",
    "Specs submitted to the work queue, by intake outcome",
    ("outcome",),
)
QUEUE_COMPLETED = REGISTRY.counter(
    "repro_queue_completed_total",
    "Specs completed through the work queue",
)
QUEUE_REQUEUED = REGISTRY.counter(
    "repro_queue_requeued_total",
    "Specs returned to the pending queue, by reason",
    ("reason",),
)
QUEUE_QUARANTINED = REGISTRY.counter(
    "repro_queue_quarantined_total",
    "Specs parked after repeated worker failures",
)
QUEUE_LEASES = REGISTRY.counter(
    "repro_queue_leases_total",
    "Leases granted to queue workers",
)
QUEUE_HEARTBEATS = REGISTRY.counter(
    "repro_queue_heartbeats_total",
    "Lease heartbeats received, by outcome (ok/unknown)",
    ("outcome",),
)


# ---------------------------------------------------------------------------
# Spans — lightweight stage timers with thread-local nesting.
# ---------------------------------------------------------------------------

_SPAN_STACK = threading.local()


def _stack() -> list[str]:
    stack = getattr(_SPAN_STACK, "names", None)
    if stack is None:
        stack = _SPAN_STACK.names = []
    return stack


def span_stack() -> tuple[str, ...]:
    """Names of the spans currently open on this thread, outermost first."""
    return tuple(_stack())


class Span:
    """Times a ``with`` block into ``repro_stage_seconds{stage=<name>}``.

    After exit, ``.seconds`` holds the measured wall time and ``.path``
    the dotted nesting path active when the span was opened.
    """

    def __init__(self, name: str, registry: MetricsRegistry | None = None):
        self.name = name
        self.seconds = 0.0
        self.path = name
        self._registry = registry
        self._start = 0.0

    def __enter__(self) -> Span:
        stack = _stack()
        self.path = ".".join([*stack, self.name]) if stack else self.name
        stack.append(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._start
        stack = _stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        histogram = (
            STAGE_SECONDS
            if self._registry is None
            else self._registry.histogram(
                "repro_stage_seconds", STAGE_SECONDS.help, ("stage",)
            )
        )
        histogram.labels(stage=self.path).observe(self.seconds)


def span(name: str, registry: MetricsRegistry | None = None) -> Span:
    """``with span("engine.dispatch") as sp: ...`` — see :class:`Span`."""
    return Span(name, registry=registry)


@contextmanager
def store_op(backend: str, op: str) -> Iterator["_StoreOp"]:
    """Instrument one cache-backend operation: op count, latency, bytes.

    The yielded handle's :meth:`~_StoreOp.add_bytes` accumulates payload
    bytes into ``repro_store_bytes_total{backend,op}``.
    """
    handle = _StoreOp()
    start = time.perf_counter()
    try:
        yield handle
    finally:
        STORE_OPS.labels(backend=backend, op=op).inc()
        STORE_OP_SECONDS.labels(backend=backend, op=op).observe(
            time.perf_counter() - start
        )
        if handle.bytes:
            STORE_BYTES.labels(backend=backend, op=op).inc(handle.bytes)


class _StoreOp:
    __slots__ = ("bytes",)

    def __init__(self) -> None:
        self.bytes = 0

    def add_bytes(self, count: int) -> None:
        self.bytes += count
