"""Shared fixtures and helpers for the per-figure benchmark harness.

Every benchmark regenerates one table or figure of the paper: it prints
the same rows/series the paper reports (via ``print_series``) and asserts
the paper's *qualitative* relationships (who wins, rough factors).
Absolute numbers differ from the paper's testbed — see docs/architecture.md.

Simulation windows are kept short (warmup 200 / measure 500 / drain 1000)
so the whole harness runs in minutes; the curves' shapes are stable at
these windows for the network sizes involved.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
