"""Measured-cost calibration for the queue's job order and ETAs.

``predicted_cost`` (engine/spec.py) estimates a spec's wall time in
abstract units: ``cycles x num_nodes x (COST_BASE_ACTIVITY + load)``.
That heuristic ranks specs correctly but its units are meaningless, so
``--progress`` ETAs and the work queue's heaviest-first order are only
as good as the model.
This module closes the ROADMAP loop: every executed spec's **measured**
wall seconds feed an EWMA ratio table keyed by :func:`bucket_key`
(network size x power-of-two cycle count).  A calibrated cost is then

    ``seconds = ratio[bucket] x cycles x (COST_BASE_ACTIVITY + load)``

i.e. the heuristic's *shape* within a bucket scaled to real seconds.
Buckets fold ``num_nodes`` into the ratio (node count is constant
within a bucket), which sidesteps the question of how wall time really
scales with network size — each size learns its own scale.

The table persists as JSON next to the cache (``.repro_calibration.json``
by default, ``REPRO_CALIBRATION`` to relocate).  A fresh checkout with
no table auto-seeds in memory from the committed perf baseline
(``benchmarks/BENCH_sim_core.json``) so first-run ETAs are sane.  A
queued campaign's order comes from the submitting host's table only.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

CALIBRATION_ENV = "REPRO_CALIBRATION"
DEFAULT_CALIBRATION_FILENAME = ".repro_calibration.json"
CALIBRATION_SCHEMA = 1

#: Baseline per-node activity of an idle-ish network — shared with
#: ``predicted_cost`` so heuristic and calibrated costs use one shape.
COST_BASE_ACTIVITY = 0.25

#: EWMA weight of the newest observation; 0.3 adapts within a few
#: campaigns without letting one noisy point whipsaw the table.
EWMA_ALPHA = 0.3


def default_calibration_path() -> Path:
    """``$REPRO_CALIBRATION`` or ``.repro_calibration.json`` in cwd."""
    override = os.environ.get(CALIBRATION_ENV)
    if override:
        return Path(override).expanduser()
    return Path(DEFAULT_CALIBRATION_FILENAME)


def bucket_key(num_nodes: int, cycles: int) -> str:
    """Calibration bucket for a spec: network size and the nearest
    power of two of its simulated-cycle budget (warmup+measure+drain).

    Cycle counts inside one figure campaign are identical, and across
    campaigns they cluster; rounding to a power of two keeps the table
    tiny while separating quick smoke points from deep drains.
    """
    cycles = max(1, int(cycles))
    return f"n{int(num_nodes)}|c{2 ** round(math.log2(cycles))}"


def _unit_cost(cycles: int, load: float) -> float:
    return float(cycles) * (COST_BASE_ACTIVITY + float(load))


class CostCalibration:
    """EWMA table of measured-seconds-per-heuristic-unit by bucket."""

    def __init__(self, path: Path | None = None):
        self.path = path
        self.buckets: dict[str, dict[str, float]] = {}
        self.dirty = False

    # -- persistence --------------------------------------------------

    @classmethod
    def load(cls, path: Path | None = None) -> CostCalibration:
        """Read the table at ``path`` (default resolved path); a missing
        or unreadable file yields an empty table, never an error."""
        resolved = path or default_calibration_path()
        table = cls(resolved)
        try:
            payload = json.loads(resolved.read_text())
        except (OSError, ValueError):
            return table
        if payload.get("schema") != CALIBRATION_SCHEMA:
            return table
        for key, entry in payload.get("buckets", {}).items():
            try:
                ratio = float(entry["ratio"])
                samples = int(entry.get("samples", 1))
            except (KeyError, TypeError, ValueError):
                continue
            if ratio > 0:
                table.buckets[key] = {"ratio": ratio, "samples": samples}
        return table

    def save(self, path: Path | None = None) -> Path:
        resolved = path or self.path or default_calibration_path()
        payload = {
            "schema": CALIBRATION_SCHEMA,
            "buckets": {
                key: {
                    "ratio": entry["ratio"],
                    "samples": int(entry["samples"]),
                }
                for key, entry in sorted(self.buckets.items())
            },
        }
        resolved.parent.mkdir(parents=True, exist_ok=True)
        resolved.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        self.dirty = False
        return resolved

    # -- recording / querying -----------------------------------------

    def observe(
        self, num_nodes: int, cycles: int, load: float, seconds: float
    ) -> None:
        """Fold one measured spec execution into its bucket's EWMA."""
        unit = _unit_cost(cycles, load)
        if unit <= 0 or seconds <= 0:
            return
        ratio = seconds / unit
        key = bucket_key(num_nodes, cycles)
        entry = self.buckets.get(key)
        if entry is None:
            self.buckets[key] = {"ratio": ratio, "samples": 1}
        else:
            entry["ratio"] += EWMA_ALPHA * (ratio - entry["ratio"])
            entry["samples"] += 1
        self.dirty = True

    def seconds_for(
        self, num_nodes: int, cycles: int, load: float
    ) -> float | None:
        """Calibrated wall-seconds estimate, or None if the bucket has
        never been observed (callers fall back to the heuristic)."""
        entry = self.buckets.get(bucket_key(num_nodes, cycles))
        if entry is None:
            return None
        return entry["ratio"] * _unit_cost(cycles, load)

    def __len__(self) -> int:
        return len(self.buckets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CostCalibration(path={self.path}, buckets={len(self)})"


def seed_from_perf_baseline(
    calibration: CostCalibration, baseline_path: Path | None = None
) -> int:
    """Seed ``calibration`` from the committed perf baseline.

    Each baseline case carries measured ``seconds`` for a known
    (topology, load, cycle-budget) point; replaying them through
    :meth:`CostCalibration.observe` gives a fresh checkout real-seconds
    ETAs before any campaign has run.  Returns the number of cases
    folded in.  Seeding does not mark the table dirty — the baseline is
    derivable, so there is nothing worth persisting yet.
    """
    from ..perf import BASELINE_PATH, WORKLOADS
    from ..topos import make_network

    was_dirty = calibration.dirty
    path = baseline_path or BASELINE_PATH
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return 0
    nodes_by_symbol: dict[str, int] = {}
    seeded = 0
    for mode, report in sorted(payload.get("modes", {}).items()):
        cases = WORKLOADS.get(mode, {})
        for name, measured in sorted(report.get("cases", {}).items()):
            case = cases.get(name)
            if case is None:
                continue
            symbol, _pattern, load, _cfg, _seed, warmup, measure, drain = case
            num_nodes = nodes_by_symbol.get(symbol)
            if num_nodes is None:
                num_nodes = make_network(symbol).num_nodes
                nodes_by_symbol[symbol] = num_nodes
            seconds = measured.get("seconds")
            if not seconds:
                continue
            calibration.observe(
                num_nodes, warmup + measure + drain, load, float(seconds)
            )
            seeded += 1
    calibration.dirty = was_dirty
    return seeded


_DEFAULT: dict[str, CostCalibration] = {}


def default_calibration(refresh: bool = False) -> CostCalibration:
    """The process-wide calibration table at the resolved default path.

    Loaded once per distinct path (``REPRO_CALIBRATION`` aware, so tests
    that repoint the env get fresh tables); when the file does not exist
    the table is seeded in memory from the committed perf baseline.
    """
    key = str(default_calibration_path().resolve())
    if refresh or key not in _DEFAULT:
        table = CostCalibration.load(Path(key))
        if not table.buckets:
            seed_from_perf_baseline(table)
        _DEFAULT[key] = table
    return _DEFAULT[key]
