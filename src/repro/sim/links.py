"""Link models: credit-based pipelined wires and elastic (EB/ElastiStore) links.

* A credit link is a fixed-latency pipe.  Flits sent at cycle ``t``
  arrive at ``t + latency``; the upstream router only sends with a credit
  in hand, and credits return with the same wire latency.  This is the
  conventional edge-buffer design whose buffers must cover the RTT.  It
  has no object: :class:`~repro.sim.NoCSimulator`'s event wheels carry
  its flits and credits.

* :class:`ElasticLink` — the paper's EB/ElastiStore wire (section 4.1):
  the repeaters themselves become master-slave latches, one slave latch
  per VC with a shared master per stage.  Each stage holds at most one
  flit per VC but advances at most one flit per cycle (the shared
  master), which reproduces ElastiStore's worst-case 1/|VC| throughput
  loss when all but one VC are blocked.  Backpressure is ready/valid —
  no credits and no deep buffers.

With SMART (section 3.2.2) a wire of physical length ``d`` hops has
``ceil(d / H)`` cycles of latency; :func:`link_latency` centralises that.
"""

from __future__ import annotations

import math

from .packet import Flit


def link_latency(distance_hops: int, hops_per_cycle: int = 1) -> int:
    """Cycles to traverse a wire of the given physical length (>= 1)."""
    return max(1, math.ceil(max(distance_hops, 1) / hops_per_cycle))


class ElasticLink:
    """Pipeline of elastic stages; per-VC slots, one advance per stage/cycle.

    ``stages[s]`` maps a VC to the flit in stage ``s``'s slave latch and
    ``rr[s]`` is that stage's master-latch round-robin pointer.  ``busy``
    lists the indices of the non-empty stages in descending order, so a
    cycle of motion walks only the stages that hold flits.
    :class:`~repro.sim.NoCSimulator` moves the flits: it pushes them into
    stage 0, advances each occupied stage once per cycle and drains stage
    ``latency - 1`` into the downstream router's staging buffers.
    """

    def __init__(self, latency: int, num_vcs: int):
        if latency < 1:
            raise ValueError("link latency must be >= 1")
        self.latency = latency
        self.num_vcs = num_vcs
        self.stages: list[dict[int, Flit]] = [{} for _ in range(latency)]
        self.rr = [0] * latency
        self.busy: list[int] = []
        #: ``orders[p]``: the VCs in round-robin order from pointer ``p``.
        self.orders = _vc_orders(num_vcs)

    @property
    def in_flight(self) -> int:
        """Flits anywhere in the pipeline (a sum over the occupied stages)."""
        stages = self.stages
        return sum(len(stages[s]) for s in self.busy)


def _vc_orders(num_vcs: int) -> tuple[tuple[int, ...], ...]:
    """Every round-robin visiting order of ``num_vcs`` VCs, by start VC."""
    vcs = range(num_vcs)
    return tuple(tuple((start + k) % num_vcs for k in vcs) for start in vcs)
