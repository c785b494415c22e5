"""The ``--progress`` live status line for campaign commands.

One line, rewritten in place on a TTY-ish stream: done/total points,
cache-hit count, executed count, and an ETA.  The ETA prefers the
calibrated per-spec cost (``cost_fn`` returning predicted seconds for a
pending spec); when no calibration is available it falls back to the
observed pace of the run so far.  Writing goes to stderr by default so
``--json`` output on stdout stays machine-clean.
"""

from __future__ import annotations

import time
from typing import IO, Callable


def format_duration(seconds: float) -> str:
    """Compact human duration: ``12s``, ``3m40s``, ``2h05m``."""
    seconds = max(0.0, seconds)
    if seconds < 10:
        return f"{seconds:.1f}s"
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class ProgressLine:
    """Accumulates per-point completions and renders one ``\\r`` line.

    ``update(spec, cached)`` is called once per finished point.  When a
    ``cost_fn`` is given it is consulted for every spec (calibrated
    seconds or None); the ETA scales remaining predicted seconds by the
    observed predicted-vs-actual pace, or — with no cost data — by the
    plain measured seconds-per-point so far.
    """

    def __init__(
        self,
        total: int,
        stream: IO[str] | None = None,
        cost_fn: Callable[[object], float | None] | None = None,
        label: str = "",
    ):
        import sys

        self.total = max(0, int(total))
        self.stream = stream if stream is not None else sys.stderr
        self.cost_fn = cost_fn
        self.label = label
        self.done = 0
        self.hits = 0
        self.executed = 0
        self.calibrated = False
        self._done_cost = 0.0
        self._pending_cost = 0.0
        self._start: float | None = None
        self._wrote = False

    def add_pending(self, specs: list) -> None:
        """Pre-compute the calibrated cost of the whole work list."""
        if self.cost_fn is None:
            return
        costs = [self.cost_fn(spec) for spec in specs]
        if any(cost is None for cost in costs):
            return
        self._pending_cost = float(sum(costs))
        self.calibrated = self._pending_cost > 0

    def eta_seconds(self) -> float | None:
        if self._start is None or self.done == 0 or self.done >= self.total:
            return None
        elapsed = time.perf_counter() - self._start
        if self.calibrated and self._done_cost > 0:
            pace = elapsed / self._done_cost
            return pace * max(0.0, self._pending_cost - self._done_cost)
        return elapsed / self.done * (self.total - self.done)

    def update(self, spec: object = None, cached: bool = False) -> None:
        if self._start is None:
            self._start = time.perf_counter()
        self.done += 1
        if cached:
            self.hits += 1
        else:
            self.executed += 1
        if self.calibrated and spec is not None and self.cost_fn is not None:
            cost = self.cost_fn(spec)
            if cost is not None:
                self._done_cost += cost
        self._render()

    def _render(self) -> None:
        percent = 100.0 * self.done / self.total if self.total else 100.0
        parts = [
            f"{self.label}{self.done}/{self.total} ({percent:.0f}%)",
            f"hits {self.hits}",
            f"sims {self.executed}",
        ]
        eta = self.eta_seconds()
        if eta is not None:
            kind = "calibrated" if self.calibrated else "pace"
            parts.append(f"eta ~{format_duration(eta)} ({kind})")
        line = "  ".join(parts)
        self.stream.write(f"\r{line:<78}")
        self.stream.flush()
        self._wrote = True

    def finish(self) -> None:
        """Terminate the in-place line (newline) if anything was drawn."""
        if self._wrote:
            self.stream.write("\n")
            self.stream.flush()
            self._wrote = False

