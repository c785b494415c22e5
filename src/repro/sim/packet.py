"""Packets and flits for the cycle-accurate model.

A packet carries its full :class:`~repro.routing.algorithms.Route`
(computed at injection — source routing, as in the paper's deterministic
setup) and is split into flits.  Flits are deliberately tiny mutable
objects; the simulator creates millions of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from ..routing.algorithms import Route

_packet_ids = count()


@dataclass
class Packet:
    """One network packet.

    Attributes:
        src / dst: *Node* ids (not router ids).
        route: Router-level route including the VC schedule.
        size: Length in flits.
        created: Cycle the source generated the packet.
        injected: Cycle the head flit left the NIC into the router.
        ejected: Cycle the tail flit reached the destination NIC.
        kind: Free-form tag used by trace traffic ("read", "write", "reply").
        wants_reply: Trace traffic: destination generates a reply on arrival.
        hops: The simulator's per-hop grant records for ``route``, resolved
            once per route at injection (see
            :meth:`~repro.sim.NoCSimulator._hop_records`).
    """

    src: int
    dst: int
    route: Route
    size: int
    created: int
    kind: str = "data"
    wants_reply: bool = False
    reply_size: int = 0
    pid: int = field(default_factory=_packet_ids.__next__)
    injected: int = -1
    ejected: int = -1
    hops: tuple = field(default=(), repr=False, compare=False)

    @property
    def latency(self) -> int:
        """Creation-to-tail-ejection latency (valid once delivered)."""
        if self.ejected < 0:
            raise ValueError("packet not delivered yet")
        return self.ejected - self.created


class Flit:
    """One flow-control unit.  ``hop`` counts router-to-router traversals
    completed, indexing into the packet's route, VC schedule and grant
    records."""

    __slots__ = ("packet", "index", "is_head", "is_tail", "hop", "arrival")

    def __init__(
        self,
        packet: Packet,
        index: int,
        is_head: bool,
        is_tail: bool,
        arrival: int,
    ):
        self.packet = packet
        self.index = index
        self.is_head = is_head
        self.is_tail = is_tail
        self.hop = 0
        self.arrival = arrival  # cycle the flit entered its current buffer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Flit(p{self.packet.pid}#{self.index} hop={self.hop})"
