"""Spec classification for the benchmark's ``engine.batchable_frac``.

:func:`spec_batchable` marks the specs a lockstep kernel (many
simulations advanced per step) could run: stationary synthetic traffic,
deterministic source routing and credit flow control.  The benchmark's
per-layer trace reports the share of executed simulations, and of their
seconds, that have this shape.
"""

from __future__ import annotations

from .spec import ExperimentSpec

__all__ = ["spec_batchable"]

_PATTERNS = frozenset({"RND", "SHF", "REV", "ADV1", "ADV2", "ASYM"})

#: Deterministic source routing: no RNG and no congestion-oracle input.
_ROUTINGS = frozenset({"default", "minimal", "dor"})


def spec_batchable(spec: ExperimentSpec) -> bool:
    """Whether ``spec`` has the lockstep-kernel shape described above.

    Elastic links and the CBR central buffer have per-cycle state
    machines beyond plain credit flow control, so they read ``False``.
    """
    source = spec.source
    config = spec.config
    return (
        getattr(source, "kind", None) == "synthetic"
        and source.pattern in _PATTERNS
        and spec.routing in _ROUTINGS
        and not config.elastic_links
        and config.central_buffer_flits == 0
    )
