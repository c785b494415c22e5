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
    cycle of motion walks only the stages that hold flits.  The upstream
    router offers flits via :meth:`can_accept` / :meth:`push`; the
    downstream router drains stage ``latency - 1`` inside :meth:`advance`.
    :class:`~repro.sim.NoCSimulator` open-codes :meth:`advance` over this
    same state, so the two must move flits identically.
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

    def can_accept(self, vc: int) -> bool:
        return vc not in self.stages[0]

    def push(self, flit: Flit, vc: int) -> None:
        stage = self.stages[0]
        if vc in stage:
            raise RuntimeError("elastic stage 0 busy for this VC")
        if not stage:
            self.busy.append(0)  # the lowest index: ``busy`` stays descending
        stage[vc] = flit

    def advance(self, downstream_free) -> list[tuple[Flit, int]]:
        """One cycle of pipeline motion over the occupied stages, last first.

        Each occupied stage moves at most one flit (the shared master
        latch): the first VC in round-robin order whose flit can go
        forward.  A stage's content is unchanged until it is visited
        (only stage ``s`` and ``s + 1`` change while ``s`` is visited), so
        walking the stages occupied at the start of the cycle is the
        same as walking all of them.

        Args:
            downstream_free: callable ``(vc) -> bool`` — can the router's
                staging buffer accept a flit on this VC right now?

        Returns:
            Flits delivered into the downstream router this cycle.
        """
        delivered: list[tuple[Flit, int]] = []
        stages = self.stages
        rr = self.rr
        last = self.latency - 1
        busy: list[int] = []
        for s in self.busy:
            stage = stages[s]
            order = self.orders[rr[s]]
            if s == last:
                for vc in order:
                    if vc in stage and downstream_free(vc):
                        delivered.append((stage.pop(vc), vc))
                        rr[s] = (vc + 1) % self.num_vcs
                        break
            else:
                forward = stages[s + 1]
                for vc in order:
                    if vc in stage and vc not in forward:
                        forward[vc] = stage.pop(vc)
                        rr[s] = (vc + 1) % self.num_vcs
                        if not busy or busy[-1] != s + 1:
                            busy.append(s + 1)
                        break
            if stage:
                busy.append(s)
        self.busy = busy
        return delivered

    @property
    def in_flight(self) -> int:
        """Flits anywhere in the pipeline (a sum over the occupied stages)."""
        stages = self.stages
        return sum(len(stages[s]) for s in self.busy)


def _vc_orders(num_vcs: int) -> tuple[tuple[int, ...], ...]:
    """Every round-robin visiting order of ``num_vcs`` VCs, by start VC."""
    vcs = range(num_vcs)
    return tuple(tuple((start + k) % num_vcs for k in vcs) for start in vcs)
