"""The cycle-accurate NoC simulator.

Models flit-level virtual-channel wormhole switching with credit-based or
elastic flow control over any :class:`~repro.topos.base.Topology`:

* **Edge-buffer router** — 2-stage pipeline: a flit arriving at cycle
  ``t`` may arbitrate from ``t + ROUTER_DELAY - 1`` and reaches the next
  router after the wire latency.  Input buffers per (port, VC) sized by
  the active buffering strategy; credits flow back over the same wire.
* **Central-buffer router (CBR)** — 1-flit staging buffers per (port,
  VC); on an output conflict the whole packet is *atomically* granted
  central-buffer space (deadlock safety, section 4.3) and re-arbitrates
  from the CB after the 4-cycle buffered-path penalty.  The CB has a
  single read and a single write port (section 4.2).
* **Wormhole VC ownership** — an output (port, VC) belongs to one packet
  from head until tail, and the VC a packet uses on every hop is fixed at
  route time (hop-index VCs / datelines), so the channel dependency graph
  is acyclic by construction.
* **SMART links** — wire latency ``ceil(distance / H)`` cycles.

**Scheduling.**  :meth:`NoCSimulator.run` is a lockstep loop: it draws
each cycle's injections and then steps every cycle.  Within a step the
core is *activity-tracked*: routers join an active set when a flit is
buffered in one of their input units or CB queues and leave it once
empty, and links are tracked while they carry in-flight flits or
credits, so :meth:`NoCSimulator.step` visits only components that can
make progress (below saturation almost everything is idle almost
always).  This is exact: per-router state is resolved to port-indexed
lists once at build time and active components are visited in the same
order the naive core used, so results are bit-identical to it (pinned by
``tests/test_golden_digests.py``).

**Flit hops.**  Each route's per-hop *grant records* are resolved once
per route per simulation, at injection (:meth:`NoCSimulator._hop_records`):
output slot, credit/owner index, VC, link ordinal and latency, with
``None`` marking the ejection hop.  Switch allocation
(:meth:`NoCSimulator._arbitrate`) is one pass per router: it walks the
occupied input units once, tests each eligible head flit's viability
through its record while bucketing it by output slot, and grants one
winner per non-empty bucket; no request table of blocked candidates is
built and filtered a second time.  Elastic links keep the indices of
their occupied stages, so a cycle of pipeline motion visits only stages
that hold flits.

Adaptive routings observe live channel occupancy through
:class:`LiveQueues`, a :class:`~repro.routing.algorithms.QueueOracle`
view that reads it off the credit counters and elastic links and holds
no reference back to the simulator, so a finished run is freed by
reference counting alone.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, fields, replace
from functools import cached_property

from ..routing import QueueOracle, RoutingAlgorithm, ZeroQueues, default_routing
from ..topos.base import Topology
from .config import (CBR_PATIENCE, CBR_PENALTY, ROUTER_DELAY, SATURATION_BACKLOG,
                     SATURATION_DELIVERY_FRACTION, SimConfig, check_fields)
from .links import ElasticLink, link_latency
from .packet import Flit, Packet


class _InputUnit:
    """One (input port, VC) FIFO, with its identity resolved at build time.

    ``node`` is set for injection units (the NIC it serves); under credit
    flow control, link units carry the ready-made wheel entry that returns
    one credit upstream — so the hot path never reconstructs tuple keys
    (the router's ``in_index`` keeps each unit's (upstream, VC) identity).
    ``index`` is the unit's position in the router's build order; the
    router's ``occupied`` set tracks these indices so arbitration visits
    only non-empty units.  Depth is not stored: credits bound a credit
    link's buffer, and an elastic link's staging buffer holds one flit.
    """

    __slots__ = ("buffer", "index", "node", "credit_entry", "credit_latency")

    def __init__(self, index: int, node: int | None = None, credit_latency: int = 0):
        self.buffer: deque = deque()
        self.index = index
        self.node = node
        # (upstream credits, credit index, link ordinal): appended to the
        # credit wheel as is when a flit leaves this unit (credit links).
        self.credit_entry: tuple | None = None
        self.credit_latency = credit_latency


class _Router:
    """Per-router state: input units, credits, ownership, CB queues.

    Input units live in ``in_units`` in a fixed build order (sorted
    neighbors x VCs, then injection ports) and credits/ownership are flat
    lists indexed by ``out_base[neighbor] + vc`` — no tuple-keyed dicts on
    the hot path.  Output ports are numbered by *slot*: neighbor ``k`` of
    the sorted ``neighbors`` is slot ``k``, and the ejection ports of the
    attached nodes follow; ``rr`` holds one round-robin pointer per slot.
    ``occupied`` and ``cb_flits`` are incrementally maintained occupancy
    state driving the simulator's active-router set.
    """

    __slots__ = (
        "index", "neighbors", "config", "in_units", "in_index", "occupied",
        "out_base", "credits", "owner", "rr",
        "cb_free", "cb_flits", "cb_queues", "cb_committed", "cb_stream_owner",
    )

    def __init__(
        self,
        index: int,
        neighbors: tuple[int, ...],
        num_nodes: int,
        config: SimConfig,
    ):
        self.index = index
        self.neighbors = neighbors
        self.config = config
        self.in_units: list[_InputUnit] = []
        self.occupied: set[int] = set()  # indices of non-empty units
        # (port_key, vc) -> unit; port_key is the upstream router id, or
        # ("inj", node) for injection ports.  Cold-path lookups only.
        self.in_index: dict[tuple, _InputUnit] = {}
        self.out_base: dict[int, int] = {
            nbr: pos * config.num_vcs for pos, nbr in enumerate(neighbors)
        }
        size = len(neighbors) * config.num_vcs
        self.credits: list[int] = [0] * size
        self.owner: list[int | None] = [None] * size
        self.rr: list[int] = [0] * (len(neighbors) + num_nodes)
        # Central buffer, its queues keyed by (output slot, VC).
        self.cb_free = config.central_buffer_flits
        self.cb_flits = 0  # flits across all CB queues
        self.cb_queues: dict[tuple[int, int], deque] = {}
        self.cb_committed: dict[int, int] = {}  # pid -> flits still to enter CB
        # Per (output slot, vc): packet whose flits currently stream through
        # the CB queue.  A CB queue is "part of the output buffer of the
        # corresponding port and VC" (section 4.3), so it is wormhole-owned —
        # interleaving two packets in one FIFO would deadlock on ownership.
        self.cb_stream_owner: dict[tuple[int, int], int] = {}


#: Above this many tracked packets, :meth:`SimResult.to_dict` stores the
#: latency distribution as a sorted ``[value, count]`` histogram instead of
#: the raw per-packet list (latency order carries no information — every
#: derived statistic is order-independent).
LATENCY_HISTOGRAM_THRESHOLD = 512


@dataclass
class SimResult:
    """Outcome of one simulation run (measurement window only)."""

    injection_rate: float
    cycles: int
    created_packets: int
    delivered_packets: int
    delivered_flits: int
    latencies: list[int]
    num_nodes: int
    measure_cycles: int
    max_injection_backlog: int

    @cached_property
    def sorted_latencies(self) -> list[int]:
        """Ascending latencies, sorted once and cached (the latency list
        is treated as immutable once the result exists)."""
        return sorted(self.latencies)

    @property
    def avg_latency(self) -> float:
        """Mean packet latency in cycles (creation to tail ejection)."""
        if not self.latencies:
            return float("nan")
        return sum(self.latencies) / len(self.latencies)

    @property
    def p99_latency(self) -> float:
        if not self.latencies:
            return float("nan")
        ordered = self.sorted_latencies
        return float(ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))])

    @property
    def throughput(self) -> float:
        """Accepted flits per node per cycle during the measurement window."""
        return self.delivered_flits / (self.num_nodes * self.measure_cycles)

    @property
    def saturated(self) -> bool:
        """Offered load exceeded accepted load: packets left undelivered
        after the drain phase, or a large standing source backlog built up."""
        if self.created_packets == 0:
            return False
        threshold = SATURATION_DELIVERY_FRACTION * self.created_packets
        undelivered = self.delivered_packets < threshold
        return undelivered or self.max_injection_backlog > SATURATION_BACKLOG

    def to_dict(self) -> dict:
        """JSON-safe representation (see :meth:`from_dict` for the inverse).

        Large latency populations are compacted into a sorted histogram;
        mean/percentile statistics survive the round trip exactly, only
        the (meaningless) per-packet ordering is lost.
        """
        payload = {
            "injection_rate": self.injection_rate,
            "cycles": self.cycles,
            "created_packets": self.created_packets,
            "delivered_packets": self.delivered_packets,
            "delivered_flits": self.delivered_flits,
            "num_nodes": self.num_nodes,
            "measure_cycles": self.measure_cycles,
            "max_injection_backlog": self.max_injection_backlog,
        }
        if len(self.latencies) > LATENCY_HISTOGRAM_THRESHOLD:
            counts: dict[int, int] = {}
            for value in self.latencies:
                counts[value] = counts.get(value, 0) + 1
            payload["latency_hist"] = [[v, counts[v]] for v in sorted(counts)]
        else:
            payload["latencies"] = list(self.latencies)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SimResult":
        """Inverse of :meth:`to_dict`.  A payload that lacks a field, has
        an unknown one, or has one of the wrong type raises ``ValueError``
        (the store treats such an entry as a miss)."""
        hist = type(payload) is dict and "latency_hist" in payload
        types = _HIST_FIELDS if hist else _RESULT_FIELDS
        payload = dict(check_fields("result", payload, types))
        if not hist:
            return cls(**payload)
        latencies = []
        try:
            for value, count in payload.pop("latency_hist"):
                if type(value) is not int or type(count) is not int or count < 1:
                    raise TypeError
                latencies += [value] * count
        except (TypeError, ValueError):  # not a list of [int, int > 0] pairs
            raise ValueError("result.latency_hist must hold [latency, count] pairs")
        return cls(latencies=latencies, **payload)


#: The field annotations of a :meth:`SimResult.to_dict` payload: with the
#: raw latency list, or with the histogram in its place.
_RESULT_FIELDS = {f.name: f.type for f in fields(SimResult)}
_HIST_FIELDS = {
    **{name: kind for name, kind in _RESULT_FIELDS.items() if name != "latencies"},
    "latency_hist": "list",
}


class LiveQueues(QueueOracle):
    """One simulator's live channel occupancy, as a routing oracle.

    The view holds each credit link's ``(credits, start, stop,
    capacity)`` (``credits[start:stop]`` are the sender's per-VC credits,
    ``capacity`` in total when the channel is empty) and the elastic
    links, never the simulator itself.  Installed as ``routing.oracle``
    it therefore forms no simulator <-> routing reference cycle, and a
    finished run's routers, flits and event wheel are freed by reference
    counting the moment the caller drops the simulator, not at some
    later generation-2 collection.
    """

    def __init__(self, credit_ports: dict, links: dict[tuple[int, int], ElasticLink]):
        self._credit_ports = credit_ports
        self._links = links

    def output_queue(self, router: int, neighbor: int) -> int:
        """Live congestion on the ``router -> neighbor`` channel (0 if it
        is not one), read off flow-control state the simulator keeps
        anyway: a credit link's deficit (flits on the wire, flits still
        buffered at the neighbor, credits on their way back), or the
        flits in an elastic link's pipeline."""
        link = self._links.get((router, neighbor))
        if link is not None:
            return link.in_flight
        port = self._credit_ports.get((router, neighbor))
        if port is None:
            return 0
        credits, start, stop, capacity = port
        return capacity - sum(credits[start:stop])


class NoCSimulator:
    """Flit-level simulator over a topology + configuration + routing."""

    def __init__(
        self,
        topology: Topology,
        config: SimConfig | None = None,
        routing: RoutingAlgorithm | None = None,
        seed: int = 0,
    ):
        self.topology = topology
        self.config = config if config is not None else SimConfig()
        self.routing = routing if routing is not None else default_routing(topology)
        if self.routing.topology is not topology:
            raise ValueError("routing was built for a different topology")
        if self.routing.num_vcs > self.config.num_vcs:
            # The routing's deadlock-avoidance scheme dictates the VC count
            # (e.g. PFBF's diameter-4 hop-index scheme needs 4 VCs).
            self.config = replace(self.config, num_vcs=self.routing.num_vcs)
        self.rng = random.Random(seed)
        self.now = 0
        self._build()
        # Adaptive algorithms observe live congestion through this run's
        # LiveQueues view: the default (degenerate) ZeroQueues oracle and
        # any stale view left by a previous run are replaced with it, so
        # route choice reads this run's channel occupancy at injection
        # time.  A custom QueueOracle (anything else, including
        # ZeroQueues subclasses) was attached deliberately and is kept.
        oracle = getattr(self.routing, "oracle", None)
        if oracle is not None and (
            type(oracle) is ZeroQueues or isinstance(oracle, LiveQueues)
        ):
            self.routing.oracle = self.queues

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        topo, cfg = self.topology, self.config
        self._elastic = cfg.elastic_links
        self._uses_cb = cfg.uses_central_buffer
        self._eligible_at = ROUTER_DELAY - 1
        self._node_router = [topo.node_router(n) for n in range(topo.num_nodes)]
        self.routers = [
            _Router(
                r,
                tuple(sorted(topo.router_neighbors(r))),
                len(topo.router_nodes(r)),
                cfg,
            )
            for r in range(topo.num_routers)
        ]
        # Link ordinals are the insertion order of ``link_cycles`` (edges
        # x both directions).  Only elastic links are objects: credit
        # links are carried by the event wheels below.
        self.link_cycles: dict[tuple[int, int], int] = {}
        self.links: dict[tuple[int, int], ElasticLink] = {}
        for i, j in topo.edges():
            lat = link_latency(topo.link_length_hops(i, j), cfg.hops_per_cycle)
            for a, b in ((i, j), (j, i)):
                self.link_cycles[(a, b)] = lat
                if cfg.elastic_links:
                    self.links[(a, b)] = ElasticLink(lat, cfg.num_vcs)
        self._inj_units: list[_InputUnit] = [None] * topo.num_nodes  # type: ignore
        # Node -> the router output slot of its ejection port.
        self._ej_slot: list[int] = [0] * topo.num_nodes
        for router in self.routers:
            for neighbor in router.neighbors:
                lat = self.link_cycles[(neighbor, router.index)]
                for vc in range(cfg.num_vcs):
                    unit = _InputUnit(len(router.in_units), credit_latency=lat)
                    router.in_units.append(unit)
                    router.in_index[(neighbor, vc)] = unit
            for pos, node in enumerate(topo.router_nodes(router.index)):
                unit = _InputUnit(len(router.in_units), node=node)
                router.in_units.append(unit)
                router.in_index[(("inj", node), 0)] = unit
                self._inj_units[node] = unit
                self._ej_slot[node] = len(router.neighbors) + pos
            for neighbor in router.neighbors:
                out_lat = self.link_cycles[(router.index, neighbor)]
                peer_depth = cfg.buffer_depth_for(out_lat)
                base = router.out_base[neighbor]
                for vc in range(cfg.num_vcs):
                    router.credits[base + vc] = peer_depth
        # The occupancy view adaptive routings read (filled below).
        credit_ports: dict[tuple[int, int], tuple] = {}
        self.queues = LiveQueues(credit_ports, self.links)
        # Per link ordinal: the destination router and its [vc] -> input
        # unit (flit delivery); for elastic links also the link and its
        # stage 0, which the allocation pass tests directly.
        self._link_dst: list[_Router] = []
        self._link_units: list[list[_InputUnit]] = []
        # (src, dst) -> (output slot, credit/owner base, ordinal, latency):
        # what a hop's grant record is built from.
        self._out_ports: dict[tuple[int, int], tuple[int, int, int, int]] = {}
        self._elastic_links: list[ElasticLink] = []
        self._stage0: list[dict] | None = [] if cfg.elastic_links else None
        for ordinal, ((src, dst), latency) in enumerate(self.link_cycles.items()):
            dst_router = self.routers[dst]
            units = [dst_router.in_index[(src, vc)] for vc in range(cfg.num_vcs)]
            self._link_dst.append(dst_router)
            self._link_units.append(units)
            src_router = self.routers[src]
            self._out_ports[(src, dst)] = (
                src_router.neighbors.index(dst),
                src_router.out_base[dst],
                ordinal,
                latency,
            )
            if cfg.elastic_links:
                link = self.links[(src, dst)]
                self._elastic_links.append(link)
                self._stage0.append(link.stages[0])
            else:
                base = src_router.out_base[dst]
                for vc in range(cfg.num_vcs):
                    units[vc].credit_entry = (src_router.credits, base + vc, ordinal)
                credit_ports[(src, dst)] = (
                    src_router.credits,
                    base,
                    base + cfg.num_vcs,
                    cfg.num_vcs * cfg.buffer_depth_for(latency),
                )
        # Route -> its per-hop grant records (see :meth:`_hop_records`),
        # keyed by ``id(route)`` with the route held alive in the value.
        self._route_hops: dict[int, tuple] = {}
        # Activity tracking: components that can make progress this cycle.
        # Credit links are event-scheduled on two calendar wheels (arrival
        # cycle -> events; cheaper than a heap since any cycle's events
        # are processed together and order within a cycle is immaterial);
        # elastic links advance every cycle while they hold flits, so
        # their ordinals live in an active set.
        self._active_routers: set[int] = set()
        # Wheel slots carry pre-resolved entries — the wheels *are* the
        # credit-link transport:
        #   event wheel: (flit, destination input unit, link ordinal), a
        #       flit on a wire;
        #   credit wheel: (upstream credits, credit index, link ordinal),
        #       a credit return, the input unit's ``credit_entry`` as is.
        # Per-wire in-flight counts are only maintained when the CBR spill
        # heuristic needs them.
        self._event_wheel: dict[int, list[tuple]] = {}
        self._credit_wheel: dict[int, list[tuple]] = {}
        self._track_inflight = self._uses_cb and not cfg.elastic_links
        self._credit_inflight: list[int] = [0] * len(self.link_cycles)
        self._active_elastic_links: set[int] = set()
        self._vc_succ = tuple((vc + 1) % cfg.num_vcs for vc in range(cfg.num_vcs))
        # CBR switch-allocation scratch, cleared after each router: output
        # slot -> blocked input candidates.
        self._blocked: dict[int, list] = {}
        # NIC state.  ``eject_pipe`` holds the flits granted to ejection
        # ports last cycle: each NIC takes its flit the cycle after.
        self.eject_pipe: list[Flit] = []
        self._nonzero_backlogs: dict[int, int] = {}
        self._backlog_current = 0
        self._backlog_dirty = False
        self._pending_replies: list[tuple[int, int, int]] = []

    def _hop_records(self, route) -> tuple:
        """The grant record of every hop of ``route``, built once per route.

        Entry ``h`` serves a flit at ``route.path[h]`` that has made ``h``
        hops: ``(slot, index, vc, ordinal, latency)`` — the output slot,
        the credit/owner index ``slot * num_vcs + vc``, the hop's VC, the
        link ordinal and the link latency.  The final entry is ``None``:
        the flit ejects there.  Records hold only ints, so packets that
        carry them form no reference cycle with the buffers they sit in.
        """
        path, vcs = route.path, route.vcs
        ports = self._out_ports
        records = []
        for hop, vc in enumerate(vcs):
            slot, base, ordinal, latency = ports[(path[hop], path[hop + 1])]
            records.append((slot, base + vc, vc, ordinal, latency))
        records.append(None)
        hops = tuple(records)
        self._route_hops[id(route)] = (route, hops)
        return hops

    # ------------------------------------------------------------------
    # Packet creation
    # ------------------------------------------------------------------

    def inject_packet(
        self,
        src_node: int,
        dst_node: int,
        size: int,
        kind: str = "data",
        wants_reply: bool = False,
        reply_size: int = 0,
    ) -> Packet:
        """Create a packet at ``src_node``'s NIC, routed now."""
        node_router = self._node_router
        num_nodes = len(node_router)
        if not (0 <= src_node < num_nodes and 0 <= dst_node < num_nodes):
            bad = dst_node if 0 <= src_node < num_nodes else src_node
            raise ValueError(f"node {bad} out of range")
        src_router = node_router[src_node]
        now = self.now
        route = self.routing.route(src_router, node_router[dst_node])
        known = self._route_hops.get(id(route))
        hops = known[1] if known is not None else self._hop_records(route)
        packet = Packet(
            src=src_node,
            dst=dst_node,
            route=route,
            size=size,
            created=now,
            kind=kind,
            wants_reply=wants_reply,
            reply_size=reply_size,
            hops=hops,
        )
        unit = self._inj_units[src_node]
        buffer = unit.buffer
        router = self.routers[src_router]
        if not buffer:
            router.occupied.add(unit.index)
        last = size - 1
        for index in range(size):
            buffer.append(Flit(packet, index, index == 0, index == last, now))
        self._active_routers.add(src_router)
        self._set_backlog(src_node, len(buffer))
        return packet

    def _set_backlog(self, node: int, value: int) -> None:
        if value:
            self._nonzero_backlogs[node] = value
        else:
            self._nonzero_backlogs.pop(node, None)
        self._backlog_dirty = True

    def _current_backlog(self) -> int:
        """Max standing NIC backlog, recomputed only when one changed."""
        if self._backlog_dirty:
            values = self._nonzero_backlogs.values()
            self._backlog_current = max(values) if values else 0
            self._backlog_dirty = False
        return self._backlog_current

    # ------------------------------------------------------------------
    # One simulated cycle
    # ------------------------------------------------------------------

    def step(self) -> list[Packet]:
        """Advance one cycle; returns packets fully ejected this cycle.

        Only *active* components are visited: links carrying flits or
        credits, then routers holding buffered flits (in ascending index
        order — the order the lockstep core used, which fixes the
        ejection-FIFO and therefore latency-list ordering).
        """
        self.now += 1
        if self._elastic:
            self._advance_elastic_links()
        else:
            self._deliver_credit_links()
        delivered = self._drain_ejection()
        if self._active_routers:
            self._arbitrate()
        return delivered

    def _deliver_credit_links(self) -> None:
        """Pop this cycle's link events and apply them.

        One entry is scheduled per sent flit or returned credit, already
        resolved to what its delivery touches: a credit-wheel entry
        ``(credits, index, ordinal)`` (an input unit's prebuilt
        ``credit_entry``) returns one credit upstream; an event-wheel
        entry ``(flit, destination input unit, link ordinal)`` buffers a
        flit at the router the ordinal names in ``_link_dst``.  Cross-link
        delivery order is immaterial (each link feeds its own per-(port,
        VC) staging buffers and credit counters), so wheel order and the
        lockstep core's dict order produce identical state.
        """
        now = self.now
        credits_back = self._credit_wheel.pop(now, None)
        if credits_back is not None:
            for credits, index, _ in credits_back:
                credits[index] += 1
        entries = self._event_wheel.pop(now, None)
        if entries is None:
            return
        active = self._active_routers
        link_dst = self._link_dst
        track = self._track_inflight
        for flit, unit, ordinal in entries:
            router = link_dst[ordinal]
            flit.arrival = now
            buffer = unit.buffer
            if not buffer:
                router.occupied.add(unit.index)
            buffer.append(flit)
            active.add(router.index)
            if track:
                self._credit_inflight[ordinal] -= 1

    def _advance_elastic_links(self) -> None:
        """One cycle of elastic pipeline motion for every in-flight link.

        Per active link only the occupied stages are visited, last first;
        each moves at most one flit (the shared master latch), and a flit
        leaving the last stage lands in its staging buffer directly.
        ``tests/test_sim.py`` replays this walk against a standalone model
        of the link (``tests/oracles.py``).
        """
        now = self.now
        links = self._elastic_links
        link_units = self._link_units
        link_dst = self._link_dst
        active = self._active_elastic_links
        active_routers = self._active_routers
        succ = self._vc_succ
        for ordinal in list(active):
            link = links[ordinal]
            stages = link.stages
            rr = link.rr
            last = link.latency - 1
            busy: list[int] = []
            for s in link.busy:
                stage = stages[s]
                if s == last:
                    # Elastic staging buffers hold one flit
                    # (SimConfig.buffer_depth_for), so "room" is "empty".
                    units = link_units[ordinal]
                    for vc in stage if len(stage) == 1 else link.orders[rr[s]]:
                        if vc not in stage:
                            continue
                        unit = units[vc]
                        buffer = unit.buffer
                        if buffer:
                            continue  # staging full: this VC stalls
                        rr[s] = succ[vc]
                        flit = stage.pop(vc)
                        flit.arrival = now
                        router = link_dst[ordinal]
                        router.occupied.add(unit.index)
                        buffer.append(flit)
                        active_routers.add(router.index)
                        break
                    if stage:
                        busy.append(s)
                    continue
                # Moving into stage s + 1 (visited before s if it held a
                # flit) makes it busy unless it already was: then it
                # holds another flit besides the one moved in.
                forward = stages[s + 1]
                if len(stage) == 1:  # a lone flit needs no round robin
                    vc, flit = stage.popitem()
                    if vc in forward:
                        stage[vc] = flit  # stalled behind its own VC
                        busy.append(s)
                        continue
                    forward[vc] = flit
                    rr[s] = succ[vc]
                    if len(forward) == 1:
                        busy.append(s + 1)
                    continue
                for vc in link.orders[rr[s]]:
                    if vc in stage and vc not in forward:
                        rr[s] = succ[vc]
                        forward[vc] = stage.pop(vc)
                        if len(forward) == 1:
                            busy.append(s + 1)
                        break
                busy.append(s)  # two or more flits: one is left
            link.busy = busy
            if not busy:
                active.discard(ordinal)

    def _drain_ejection(self) -> list[Packet]:
        """Hand last cycle's ejection grants to their NICs; returns the
        packets whose tail arrived.  Each ejection port grants at most one
        flit per cycle and its NIC takes it the next, so an ejection port
        never blocks."""
        pipe = self.eject_pipe
        if not pipe:
            return []
        finished: list[Packet] = []
        now = self.now
        for flit in pipe:
            if flit.is_tail:
                packet = flit.packet
                packet.ejected = now
                finished.append(packet)
                if packet.wants_reply:
                    self._pending_replies.append(
                        (packet.dst, packet.src, packet.reply_size)
                    )
        pipe.clear()
        return finished

    def issue_replies(self) -> list[Packet]:
        """Generate reply packets queued by request deliveries (trace mode)."""
        replies = []
        for src, dst, size in self._pending_replies:
            replies.append(self.inject_packet(src, dst, size, kind="reply"))
        self._pending_replies.clear()
        return replies

    # ------------------------------------------------------------------
    # Switch allocation
    # ------------------------------------------------------------------

    def _arbitrate(self) -> None:
        """Switch allocation for one cycle: every active router, one pass each.

        This is the single hottest function in the repository, so it is
        spelled out inline, and per-cycle state is loaded once for all
        routers.  Routers are visited in ascending index (the order the
        lockstep core used) and leave the active set once empty.  Per
        router, the pass walks the occupied input units once, in ascending
        index (build order, the order the lockstep core walked its (port,
        VC) dict), then the CB queues.  Each head flit whose pipeline wait
        is over is tested for viability as it is bucketed by output slot —
        VC owner, credit or elastic stage-0 slot, CB commitment (an
        ejection port never blocks) — through its packet's per-hop grant record
        (:meth:`_hop_records`), and only viable candidates enter a bucket.
        Each non-empty bucket then grants one winner by its slot's
        round-robin pointer.

        Buckets are granted in first-candidate order, which fixes the two
        places where grant order across output ports shows: ejection FIFO
        appends (the latency-list order) and CB spills.  A CBR router
        therefore also opens a bucket for a blocked candidate and keeps
        the blocked input candidates of each slot, so a slot with no
        viable candidate can spill one into the central buffer
        (:meth:`_try_central_buffer`) at its place in that order.  Grant
        side effects replicate the lockstep core operation for operation.
        """
        now = self.now
        eligible_at = self._eligible_at
        stage0 = self._stage0
        uses_cb = self._uses_cb
        ej_slot = self._ej_slot
        blocked = self._blocked
        wheel = self._event_wheel
        credit_wheel = self._credit_wheel
        link_units = self._link_units
        elastic_links = self._elastic_links
        active_links = self._active_elastic_links
        eject_pipe = self.eject_pipe
        routers = self.routers
        active = self._active_routers
        for router_index in sorted(active):
            router = routers[router_index]
            occupied = router.occupied
            units = router.in_units
            owner_list = router.owner
            credits = router.credits
            cb_committed = router.cb_committed
            buckets: dict[int, list] = {}  # output slot -> viable candidates
            for unit_index in sorted(occupied) if len(occupied) > 1 else occupied:
                unit = units[unit_index]
                flit: Flit = unit.buffer[0]
                # Head flits pay the pipeline (route computation +
                # allocation); body flits inherit the head's state and
                # stream at link rate.
                if flit.is_head and now < flit.arrival + eligible_at:
                    continue
                packet = flit.packet
                hop = packet.hops[flit.hop]
                if hop is None:  # ejection port
                    slot = ej_slot[packet.dst]
                    viable = True
                else:
                    slot, index, vc, ordinal, _ = hop
                    owner = owner_list[index]
                    if owner is None:
                        viable = flit.is_head  # body flits follow their head
                    else:
                        viable = owner == packet.pid
                    if viable:
                        if stage0 is None:
                            viable = credits[index] > 0
                        else:
                            viable = vc not in stage0[ordinal]
                if viable and cb_committed and packet.pid in cb_committed:
                    viable = False  # committed packets re-arbitrate from the CB
                if viable:
                    bucket = buckets.get(slot)
                    if bucket is None:
                        buckets[slot] = [(unit, flit, hop)]
                    else:
                        bucket.append((unit, flit, hop))
                elif uses_cb:
                    if slot not in buckets:
                        buckets[slot] = []
                    if hop is not None:
                        spill = blocked.get(slot)
                        if spill is None:
                            blocked[slot] = [(unit, flit)]
                        else:
                            spill.append((unit, flit))

            # CB queues re-arbitrate alongside staged flits.  The CB is
            # modeled as per-output FIFOs: each output port can drain one
            # CB flit per cycle (the mux/demux sharing of Figure 8), while
            # CB *writes* stay limited to one per blocked staging buffer
            # per cycle.  A CB flit's packet is committed by construction.
            if router.cb_flits:
                for queue in router.cb_queues.values():
                    if not queue:
                        continue
                    flit = queue[0]
                    if now < flit.arrival:
                        continue
                    packet = flit.packet
                    hop = packet.hops[flit.hop]
                    slot, index, vc, ordinal, _ = hop
                    owner = owner_list[index]
                    if owner is None:
                        if not flit.is_head:
                            continue
                    elif owner != packet.pid:
                        continue
                    if stage0 is None:
                        if credits[index] <= 0:
                            continue
                    elif vc in stage0[ordinal]:
                        continue
                    bucket = buckets.get(slot)
                    if bucket is None:
                        buckets[slot] = [(queue, flit, hop)]
                    else:
                        bucket.append((queue, flit, hop))

            if buckets:
                rr = router.rr
                for slot, viable in buckets.items():
                    if not viable:
                        # CBR: losing head flits (and flits of CB-committed
                        # packets) fall into the central buffer when a
                        # whole-packet reservation fits.
                        spill = blocked.get(slot)
                        if spill is not None:
                            self._try_central_buffer(router, slot, spill)
                        continue
                    pointer = rr[slot]
                    rr[slot] = pointer + 1
                    container, flit, hop = viable[pointer % len(viable)]
                    if uses_cb and container.__class__ is deque:  # CB queue pop
                        container.popleft()
                        router.cb_free += 1
                        router.cb_flits -= 1
                        if flit.is_tail:
                            router.cb_stream_owner.pop((slot, hop[2]), None)
                    else:  # input-unit pop
                        buffer = container.buffer
                        buffer.popleft()
                        if not buffer:
                            occupied.discard(container.index)
                        node = container.node
                        if node is not None:
                            value = len(buffer)
                            if value:
                                self._nonzero_backlogs[node] = value
                            else:
                                self._nonzero_backlogs.pop(node, None)
                            self._backlog_dirty = True
                        elif (credit := container.credit_entry) is not None:
                            when = now + container.credit_latency
                            try:
                                credit_wheel[when].append(credit)
                            except KeyError:
                                credit_wheel[when] = [credit]
                    if hop is None:  # ejection: the CB only fronts router ports
                        eject_pipe.append(flit)
                        continue
                    _, index, vc, ordinal, latency = hop
                    if flit.is_head:
                        owner_list[index] = flit.packet.pid
                    if flit.is_tail:
                        owner_list[index] = None
                    flit.hop += 1
                    if stage0 is None:
                        credits[index] -= 1
                        when = now + latency
                        entry = (flit, link_units[ordinal][vc], ordinal)
                        try:
                            wheel[when].append(entry)
                        except KeyError:
                            wheel[when] = [entry]
                        if self._track_inflight:
                            self._credit_inflight[ordinal] += 1
                    else:  # into stage 0 (it was tested free for this VC)
                        stage = stage0[ordinal]
                        if not stage:
                            elastic_links[ordinal].busy.append(0)
                        stage[vc] = flit
                        active_links.add(ordinal)
                if blocked:
                    blocked.clear()
            if not occupied and not router.cb_flits:
                active.discard(router_index)

    def _pop_input(self, router: _Router, unit: _InputUnit) -> None:
        """Dequeue the head flit of an input unit (CB spill path; the
        grant loop inlines this same bookkeeping)."""
        unit.buffer.popleft()
        if not unit.buffer:
            router.occupied.discard(unit.index)
        if unit.node is not None:
            self._set_backlog(unit.node, len(unit.buffer))
        elif unit.credit_entry is not None:
            when = self.now + unit.credit_latency
            wheel = self._credit_wheel
            slot = wheel.get(when)
            if slot is None:
                wheel[when] = [unit.credit_entry]
            else:
                slot.append(unit.credit_entry)

    def _upstream_pressure(self, flit: Flit) -> bool:
        """Is a flit stuck in the incoming link right behind this one?"""
        if flit.hop == 0:
            return False  # injection conflicts wait in the (deep) NIC queue
        _, _, vc, ordinal, _ = flit.packet.hops[flit.hop - 1]
        if self._elastic:
            return vc in self._elastic_links[ordinal].stages[-1]
        # Credit-mode flits ride the event wheel; the per-wire counter is
        # maintained exactly for this query (CBR + credit links only).
        return self._credit_inflight[ordinal] > 0

    def _try_central_buffer(self, router: _Router, slot: int, blocked: list) -> bool:
        """Move one blocked staged flit bound for ``slot`` into the CB.

        ``blocked`` holds the slot's eligible input candidates ``(unit,
        flit)`` in ascending unit order; at most one of them spills (CB
        writes are per input port, one flit per cycle), atomically per
        packet.  A packet only *opens* a CB reservation when its blocked
        head is holding up traffic — a flit is waiting in the link's final
        stage behind it — so the CB acts as a conflict overflow (its single
        R/W port would otherwise serialise the whole router).
        """
        for unit, flit in blocked:
            packet = flit.packet
            pid = packet.pid
            key = (slot, packet.hops[flit.hop][2])
            committed = router.cb_committed.get(pid)
            if committed is None:
                if not flit.is_head:
                    continue  # only heads open a CB reservation
                if router.cb_stream_owner.get(key) is not None:
                    continue  # another packet streams through this CB queue
                if self.now - flit.arrival < CBR_PATIENCE:
                    continue  # transient conflict: keep retrying the bypass
                if not self._upstream_pressure(flit):
                    continue  # nothing waiting behind: stay on the bypass path
                if router.cb_free < packet.size:
                    continue  # atomic allocation: all-or-nothing
                router.cb_free -= packet.size
                router.cb_committed[pid] = packet.size
                router.cb_stream_owner[key] = pid
            self._pop_input(router, unit)
            flit.arrival = self.now + CBR_PENALTY
            queue = router.cb_queues.get(key)
            if queue is None:
                queue = router.cb_queues[key] = deque()
            queue.append(flit)
            router.cb_flits += 1
            router.cb_committed[pid] -= 1
            if router.cb_committed[pid] == 0 or flit.is_tail:
                del router.cb_committed[pid]
            return True
        return False

    # ------------------------------------------------------------------
    # Top-level run loop
    # ------------------------------------------------------------------

    def run(
        self,
        source,
        warmup: int = 1000,
        measure: int = 3000,
        drain: int = 3000,
    ) -> SimResult:
        """Drive ``source`` through warmup + measurement (+ drain) phases.

        ``source`` implements ``packets_at(cycle, rng)`` yielding tuples
        ``(src_node, dst_node, size, kind, wants_reply, reply_size)``.
        Packets created during the measurement window are tracked for
        latency; injection stops after the window and the drain phase lets
        in-flight packets finish (undelivered tracked packets after the
        drain flag saturation).
        """
        tracked: dict[int, Packet] = {}
        latencies: list[int] = []
        delivered_flits = 0
        created = 0
        max_backlog = 0
        measure_end = warmup + measure
        end_now = self.now + warmup + measure + drain
        while self.now < end_now:
            cycle = self.now  # packets for the upcoming cycle
            if cycle < measure_end:
                for spec in source.packets_at(cycle, self.rng):
                    packet = self.inject_packet(*spec)
                    if warmup <= cycle:
                        created += 1
                        tracked[packet.pid] = packet
            finished = self.step()
            if self._pending_replies:
                self.issue_replies()
            for packet in finished:
                if packet.pid in tracked:
                    latencies.append(packet.latency)
                    delivered_flits += packet.size
                    del tracked[packet.pid]
            backlog = self._current_backlog()
            if backlog > max_backlog:
                max_backlog = backlog
            if self.now >= measure_end and not tracked:
                break
        return SimResult(
            injection_rate=getattr(source, "rate", 0.0),
            cycles=self.now,
            created_packets=created,
            delivered_packets=len(latencies),
            delivered_flits=delivered_flits,
            latencies=latencies,
            num_nodes=self.topology.num_nodes,
            measure_cycles=measure,
            max_injection_backlog=max_backlog,
        )
