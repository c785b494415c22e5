"""The ``--progress`` live status line for campaign commands.

One line, rewritten in place on a TTY-ish stream: done/total points,
cache-hit count, executed count, and an ETA.  Each spec weighs
``cost_fn(spec)`` (the CLI passes ``predicted_cost``; one unit per spec
without it).  Cache hits are shown but not timed: the ETA is the time
spent per unit of simulated cost so far, times the cost still pending.
Writing goes to stderr by default so ``--json`` output on stdout stays
machine-clean.
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

    ``update(spec, cached)`` is called once per finished point; the line
    itself is also a campaign's ``progress`` callback (the hooks are
    described in :func:`~repro.engine.campaign.run_curves`).
    A hit takes its cost off the pending total without adding to the
    timed cost, so a warm prefix of the grid does not make the rest
    look cheap.  The clock restarts on every hit until the first simulation
    finishes: the runner reports all of a batch's hits before it
    simulates anything.
    """

    def __init__(
        self,
        total: int,
        stream: IO[str] | None = None,
        cost_fn: Callable[[object], float] | None = None,
        label: str = "",
    ):
        import sys

        self.total = max(0, int(total))
        self.stream = stream if stream is not None else sys.stderr
        self.cost_fn = cost_fn or (lambda spec: 1.0)
        self.label = label
        self.done = 0
        self.hits = 0
        self.executed = 0
        self._executed_cost = 0.0
        self._pending_cost = float(self.total)
        self._start = time.perf_counter()
        self._wrote = False

    def add_pending(self, specs: list) -> None:
        """Weigh the whole work list by ``cost_fn`` (default: one each)."""
        self._pending_cost = float(sum(self.cost_fn(spec) for spec in specs))

    def eta_seconds(self) -> float | None:
        if self._executed_cost <= 0 or self.done >= self.total:
            return None
        pace = (time.perf_counter() - self._start) / self._executed_cost
        return pace * max(0.0, self._pending_cost)

    def __call__(self, done: int, total: int, spec: object, cached: bool) -> None:
        """The engine's ``progress`` callback signature."""
        self.update(spec, cached)

    def skip(self, specs: list) -> None:
        """Drop ``specs`` a staged campaign will never run from the total
        and the pending cost, so the line can end at 100%."""
        self.total -= len(specs)
        self._pending_cost -= sum(self.cost_fn(spec) for spec in specs)
        self._render()

    def update(self, spec: object = None, cached: bool = False) -> None:
        self.done += 1
        cost = self.cost_fn(spec)
        self._pending_cost -= cost
        if cached:
            self.hits += 1
            if not self.executed:
                self._start = time.perf_counter()
        else:
            self.executed += 1
            self._executed_cost += cost
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
            parts.append(f"eta ~{format_duration(eta)}")
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

