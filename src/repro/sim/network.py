"""The cycle-accurate NoC simulator.

Models flit-level virtual-channel wormhole switching with credit-based or
elastic flow control over any :class:`~repro.topos.base.Topology`:

* **Edge-buffer router** — 2-stage pipeline: a flit arriving at cycle
  ``t`` may arbitrate from ``t + router_delay - 1`` and reaches the next
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

**Scheduling.**  The core is *activity-tracked*: routers join an active
set when a flit is buffered in one of their input units or CB queues and
leave it once empty, and links are tracked while they carry in-flight
flits or credits, so :meth:`NoCSimulator.step` visits only components
that can make progress (below saturation almost everything is idle almost
always).  On top of that, :meth:`NoCSimulator.run` *fast-forwards*: when
no router can act before some future cycle — every buffered head flit is
still in its pipeline or CB-penalty wait and all link/ejection events are
scheduled later — ``now`` jumps straight to the next scheduled event
(link or credit arrival, pipeline-eligibility time, next injection),
skipping warmup gaps, drain tails, and low-load injection gaps.  Both
optimizations are exact: per-router state is resolved to port-indexed
lists once at build time, active components are visited in the same
order the naive lockstep core used, and skipped cycles consume the
injection RNG identically, so results are bit-identical to the
pre-optimization core (pinned by ``tests/test_golden_digests.py``).

The simulator also implements the
:class:`~repro.routing.algorithms.QueueOracle` protocol so UGAL can
observe live channel occupancy.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property

from ..routing import QueueOracle, RoutingAlgorithm, ZeroQueues, default_routing
from ..topos.base import Topology
from .config import SimConfig
from .links import CreditLink, ElasticLink, link_latency
from .packet import Flit, Packet

# Out-port keys: ints address neighbor routers; ("ej", node) tuples address
# the per-node ejection ports.


class _InputUnit:
    """One (input port, VC) FIFO, with its identity resolved at build time.

    ``node`` is set for injection units (the NIC it serves); link units
    carry ``upstream``/``vc`` and, under credit flow control, the link to
    return credits on — so the hot path never reconstructs tuple keys.
    ``index`` is the unit's position in the router's build order; the
    router's ``occupied`` set tracks these indices so arbitration visits
    only non-empty units.
    """

    __slots__ = ("capacity", "buffer", "index", "node", "upstream", "vc",
                 "credit_code", "credit_latency")

    def __init__(
        self,
        capacity: int,
        index: int,
        node: int | None = None,
        upstream: int | None = None,
        vc: int = 0,
        credit_latency: int = 0,
    ):
        self.capacity = capacity
        self.buffer: deque = deque()
        self.index = index
        self.node = node
        self.upstream = upstream
        self.vc = vc
        self.credit_code = -1  # event code of the upstream link's credit path
        self.credit_latency = credit_latency

    @property
    def occupancy(self) -> int:
        return len(self.buffer)

    def has_space(self) -> bool:
        return len(self.buffer) < self.capacity


class _Router:
    """Per-router state: input units, credits, ownership, CB queues.

    Input units live in ``in_units`` in a fixed build order (sorted
    neighbors x VCs, then injection ports) and credits/ownership are flat
    lists indexed by ``out_base[neighbor] + vc`` — no tuple-keyed dicts on
    the hot path.  ``buffered``/``cb_flits`` are incrementally maintained
    occupancy counters driving the simulator's active-router set.
    """

    __slots__ = (
        "index", "neighbors", "config", "in_units", "in_index", "occupied",
        "out_base", "out_code", "out_info", "credits", "owner", "rr",
        "buffered",
        "cb_free", "cb_flits", "cb_queues", "cb_committed", "cb_stream_owner",
    )

    def __init__(self, index: int, neighbors: tuple[int, ...], config: SimConfig):
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
        self.out_code: dict[int, int] = {}  # neighbor -> flit event code
        # neighbor -> (credit/owner base, link, latency, event code,
        # occupancy ordinal, round-robin slot); one lookup serves a grant.
        self.out_info: dict[int, tuple] = {}
        size = len(neighbors) * config.num_vcs
        self.credits: list[int] = [0] * size
        self.owner: list[int | None] = [None] * size
        # Round-robin pointers, flat per output port (ejection ports use
        # the simulator's per-node table).
        self.rr: list[int] = [0] * len(neighbors)
        self.buffered = 0  # flits across all input units
        # Central buffer.
        self.cb_free = config.central_buffer_flits
        self.cb_flits = 0  # flits across all CB queues
        self.cb_queues: dict[tuple[int, int], deque] = {}
        self.cb_committed: dict[int, int] = {}  # pid -> flits still to enter CB
        # Per (out_port, vc): packet whose flits currently stream through the
        # CB queue.  A CB queue is "part of the output buffer of the
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
    saturation_delivery_fraction: float = 0.90
    saturation_backlog: int = 120

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
        threshold = self.saturation_delivery_fraction * self.created_packets
        undelivered = self.delivered_packets < threshold
        return undelivered or self.max_injection_backlog > self.saturation_backlog

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
            "saturation_delivery_fraction": self.saturation_delivery_fraction,
            "saturation_backlog": self.saturation_backlog,
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
        if "latency_hist" in payload:
            latencies = [
                value for value, count in payload["latency_hist"] for _ in range(count)
            ]
        else:
            latencies = list(payload["latencies"])
        return cls(
            injection_rate=payload["injection_rate"],
            cycles=payload["cycles"],
            created_packets=payload["created_packets"],
            delivered_packets=payload["delivered_packets"],
            delivered_flits=payload["delivered_flits"],
            latencies=latencies,
            num_nodes=payload["num_nodes"],
            measure_cycles=payload["measure_cycles"],
            max_injection_backlog=payload["max_injection_backlog"],
            saturation_delivery_fraction=payload.get(
                "saturation_delivery_fraction", 0.90
            ),
            saturation_backlog=payload.get("saturation_backlog", 120),
        )


class NoCSimulator(QueueOracle):
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
        # Adaptive algorithms observe live congestion through this
        # simulator: the default (degenerate) ZeroQueues oracle and any
        # stale simulator left by a previous run are replaced with self,
        # so route choice reads this run's credit/occupancy state at
        # injection time.  A custom QueueOracle (anything else, including
        # ZeroQueues subclasses) was attached deliberately and is kept.
        oracle = getattr(self.routing, "oracle", None)
        if oracle is not None and (
            type(oracle) is ZeroQueues or isinstance(oracle, NoCSimulator)
        ):
            self.routing.oracle = self

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        topo, cfg = self.topology, self.config
        self._elastic = cfg.elastic_links
        self._eligible_at = cfg.router_delay - 1
        self.routers = [
            _Router(r, tuple(sorted(topo.router_neighbors(r))), cfg)
            for r in range(topo.num_routers)
        ]
        self.links: dict[tuple[int, int], CreditLink | ElasticLink] = {}
        self.link_cycles: dict[tuple[int, int], int] = {}
        for i, j in topo.edges():
            lat = link_latency(topo.link_length_hops(i, j), cfg.hops_per_cycle)
            for a, b in ((i, j), (j, i)):
                self.link_cycles[(a, b)] = lat
                if cfg.elastic_links:
                    self.links[(a, b)] = ElasticLink(lat, cfg.num_vcs)
                else:
                    self.links[(a, b)] = CreditLink(lat)
        self._inj_units: list[_InputUnit] = [None] * topo.num_nodes  # type: ignore
        for router in self.routers:
            for neighbor in router.neighbors:
                lat = self.link_cycles[(neighbor, router.index)]
                depth = cfg.buffer_depth_for(lat)
                for vc in range(cfg.num_vcs):
                    unit = _InputUnit(
                        depth, len(router.in_units),
                        upstream=neighbor, vc=vc, credit_latency=lat,
                    )
                    router.in_units.append(unit)
                    router.in_index[(neighbor, vc)] = unit
            for node in topo.router_nodes(router.index):
                unit = _InputUnit(10**9, len(router.in_units), node=node)
                router.in_units.append(unit)
                router.in_index[(("inj", node), 0)] = unit
                self._inj_units[node] = unit
            for neighbor in router.neighbors:
                out_lat = self.link_cycles[(router.index, neighbor)]
                peer_depth = cfg.buffer_depth_for(out_lat)
                base = router.out_base[neighbor]
                for vc in range(cfg.num_vcs):
                    router.credits[base + vc] = peer_depth
        # Per-link destination units ([vc] -> unit).
        self._link_in_units: dict[tuple[int, int], list[_InputUnit]] = {}
        # Channel occupancy (UGAL's congestion estimate) as a flat list
        # indexed by link ordinal, with the (src, dst) -> ordinal map kept
        # for the cold QueueOracle lookup.
        self._occ_ordinal: dict[tuple[int, int], int] = {}
        self._occupancy: list[int] = [0] * len(self.links)
        # Event codes: each directed credit link gets an even integer;
        # code + 1 is its credit return path.  Wheel slots hold plain int
        # codes, and the handler tables resolve a code back to everything
        # its delivery needs.  Elastic links are cycle-driven instead:
        # ``_elastic_info`` carries their per-advance state.
        self._flit_handlers: dict[int, tuple] = {}
        self._credit_handlers: dict[int, tuple] = {}
        self._elastic_info: dict[tuple[int, int], tuple] = {}
        for ordinal, (src, dst) in enumerate(self.links):
            units = [
                self.routers[dst].in_index[(src, vc)] for vc in range(cfg.num_vcs)
            ]
            self._link_in_units[(src, dst)] = units
            self._occ_ordinal[(src, dst)] = ordinal
            link = self.links[(src, dst)]
            src_router = self.routers[src]
            if cfg.elastic_links:
                self._elastic_info[(src, dst)] = (
                    link, units, self.routers[dst], ordinal
                )
            else:
                src_router.out_code[dst] = 2 * ordinal
                self._flit_handlers[2 * ordinal] = (self.routers[dst], units)
                self._credit_handlers[2 * ordinal + 1] = (
                    src_router.credits, src_router.out_base[dst], ordinal,
                )
                for vc in range(cfg.num_vcs):
                    units[vc].credit_code = 2 * ordinal + 1
            # One consolidated grant-time record per output port: the old
            # per-grant chain of out_base / links / out_code / occupancy
            # lookups collapses to a single dict hit.
            src_router.out_info[dst] = (
                src_router.out_base[dst], link, link.latency,
                src_router.out_code.get(dst, -1), ordinal,
                src_router.neighbors.index(dst),
            )
        # Activity tracking: components that can make progress this cycle.
        # Credit links are event-scheduled on a calendar wheel (arrival
        # cycle -> event codes; cheaper than a heap since any cycle's
        # events are processed together and order within a cycle is
        # immaterial); elastic links advance every cycle while they hold
        # flits, so they live in an active set.
        self._active_routers: set[int] = set()
        # Wheel slots carry the payloads themselves: (code, flit, vc) for
        # a flit crossing a wire, (code, vc) for a returning credit — the
        # wheel *is* the credit-link transport (CreditLink objects remain
        # as the standalone/unit-tested model).  Per-wire in-flight counts
        # are only maintained when the CBR spill heuristic needs them.
        self._event_wheel: dict[int, list[tuple]] = {}
        self._track_inflight = cfg.uses_central_buffer and not cfg.elastic_links
        self._credit_inflight: list[int] = [0] * len(self.links)
        self._active_elastic_links: set[tuple[int, int]] = set()
        # Hoisted per-cycle scratch (cleared after use, never reallocated).
        self._requests: dict[object, list] = {}
        self._viable: list = []
        # NIC state.
        self.eject_credits = [cfg.ejection_queue_flits] * topo.num_nodes
        self._ej_rr = [0] * topo.num_nodes  # ejection-port round-robin
        self.eject_pipe: deque[tuple[int, Flit]] = deque()
        self.injection_backlog = [0] * topo.num_nodes
        self._nonzero_backlogs: dict[int, int] = {}
        self._backlog_current = 0
        self._backlog_dirty = False
        self._live_packets: set[int] = set()
        self._pending_replies: list[tuple[int, int, int]] = []

    # ------------------------------------------------------------------
    # QueueOracle (UGAL feedback)
    # ------------------------------------------------------------------

    def output_queue(self, router: int, neighbor: int) -> int:
        """Live congestion on the ``router -> neighbor`` channel.

        ``_occupancy`` increments when a flit wins arbitration onto the
        link and decrements when its credit returns (credit-flow links)
        or when it drains into the staging buffer (elastic links) — so
        for credit links this is exactly the downstream credit deficit
        (flits in flight plus flits still buffered at the neighbor), and
        for elastic links the flits occupying the link pipeline.  This
        is the state adaptive algorithms read at injection time; it is
        maintained unconditionally (cheap array bumps), so attaching an
        adaptive routing never changes static-routing results.
        """
        ordinal = self._occ_ordinal.get((router, neighbor))
        return 0 if ordinal is None else self._occupancy[ordinal]

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
        src_router = self.topology.node_router(src_node)
        dst_router = self.topology.node_router(dst_node)
        route = self.routing.route(src_router, dst_router)
        packet = Packet(
            src=src_node,
            dst=dst_node,
            route=route,
            size=size,
            created=self.now,
            kind=kind,
            wants_reply=wants_reply,
            reply_size=reply_size,
        )
        unit = self._inj_units[src_node]
        buffer = unit.buffer
        router = self.routers[src_router]
        if not buffer:
            router.occupied.add(unit.index)
        for flit in packet.make_flits():
            flit.arrival = self.now
            buffer.append(flit)
        router.buffered += size
        self._active_routers.add(src_router)
        self._set_backlog(src_node, len(buffer))
        self._live_packets.add(packet.pid)
        return packet

    def _set_backlog(self, node: int, value: int) -> None:
        self.injection_backlog[node] = value
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
        active = self._active_routers
        if active:
            routers = self.routers
            for index in sorted(active):
                router = routers[index]
                self._arbitrate(router)
                if not router.buffered and not router.cb_flits:
                    active.discard(index)
        return delivered

    def _deliver_credit_links(self) -> None:
        """Pop this cycle's link events and drain the matching FIFOs.

        One event code is scheduled per sent flit/credit; a FIFO drain
        triggered by an earlier event may leave later same-cycle events
        pointing at an already-empty queue, which is a harmless no-op.
        Cross-link delivery order is immaterial (each link feeds its own
        per-(port, VC) staging buffers and credit counters), so wheel
        order and the lockstep core's dict order produce identical state.
        """
        now = self.now
        entries = self._event_wheel.pop(now, None)
        if entries is None:
            return
        occupancy = self._occupancy
        active = self._active_routers
        flit_handlers = self._flit_handlers
        credit_handlers = self._credit_handlers
        track = self._track_inflight
        for entry in entries:
            code = entry[0]
            if code & 1:
                router_credits, base, ordinal = credit_handlers[code]
                router_credits[base + entry[1]] += 1
                occupancy[ordinal] -= 1
            else:
                router, units = flit_handlers[code]
                flit = entry[1]
                flit.arrival = now
                unit = units[entry[2]]
                buffer = unit.buffer
                if not buffer:
                    router.occupied.add(unit.index)
                buffer.append(flit)
                router.buffered += 1
                active.add(router.index)
                if track:
                    self._credit_inflight[code >> 1] -= 1

    def _advance_elastic_links(self) -> None:
        """One cycle of elastic pipeline motion for every in-flight link.

        This open-codes :meth:`ElasticLink.advance` (which remains the
        standalone model) and fuses last-stage delivery into the walk:
        per active link per cycle there are no method or closure calls,
        and a delivered flit lands in its staging buffer directly.
        """
        now = self.now
        occupancy = self._occupancy
        info = self._elastic_info
        active = self._active_elastic_links
        active_routers = self._active_routers
        for key in list(active):
            link, units, router, ordinal = info[key]
            stages = link.stages
            rr = link._rr
            num_vcs = link.num_vcs
            last = link.latency - 1
            for stage_index in range(last, -1, -1):
                stage = stages[stage_index]
                if not stage:
                    continue
                next_stage = stages[stage_index + 1] if stage_index != last else None
                start = rr[stage_index]
                for offset in range(num_vcs):
                    vc = (start + offset) % num_vcs
                    if vc not in stage:
                        continue
                    if next_stage is None:
                        unit = units[vc]
                        buffer = unit.buffer
                        if len(buffer) >= unit.capacity:
                            continue  # staging full: this VC stalls
                        rr[stage_index] = (vc + 1) % num_vcs
                        flit = stage.pop(vc)
                        flit.arrival = now
                        if not buffer:
                            router.occupied.add(unit.index)
                        buffer.append(flit)
                        router.buffered += 1
                        occupancy[ordinal] -= 1
                        link._in_flight -= 1
                        active_routers.add(router.index)
                        break
                    if vc not in next_stage:
                        rr[stage_index] = (vc + 1) % num_vcs
                        next_stage[vc] = stage.pop(vc)
                        break
            if not link._in_flight:
                active.discard(key)

    def _drain_ejection(self) -> list[Packet]:
        """Flits reaching NICs this cycle; NICs drain one flit per cycle."""
        finished: list[Packet] = []
        pipe = self.eject_pipe
        if not pipe or pipe[0][0] > self.now:
            return finished
        now = self.now
        eject_credits = self.eject_credits
        while pipe and pipe[0][0] <= now:
            _, flit = pipe.popleft()
            packet = flit.packet
            eject_credits[packet.dst] += 1  # NIC consumes immediately
            if flit.is_tail:
                packet.ejected = now
                self._live_packets.discard(packet.pid)
                finished.append(packet)
                if packet.wants_reply:
                    self._pending_replies.append(
                        (packet.dst, packet.src, packet.reply_size)
                    )
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

    def _arbitrate(self, router: _Router) -> None:
        """Switch allocation for one router-cycle, fully inlined.

        This is the single hottest function in the repository, so the
        viability test (the old ``_can_traverse``), round-robin pick, and
        winner traversal are spelled out inline: per-``out_key`` state
        (owner/credit base index, outbound link, ejection credit) is
        resolved once instead of once per candidate, and no per-candidate
        function calls remain.  Request-table insertion order, round-robin
        pointer updates, and grant side effects replicate the lockstep
        core operation for operation.
        """
        now = self.now
        eligible_at = self._eligible_at
        occupied = router.occupied
        requests = None

        # Fast paths for the by-far most common sub-saturation shapes.
        # One occupied unit and nothing in the CB: a single candidate with
        # no possible output conflict — grant (or CB-spill) directly, with
        # no request table, viable list, or loop.  The side effects (round
        # robin advance on viability, pop/credit/owner/wheel updates)
        # mirror the general path below operation for operation.
        n_occupied = len(occupied)
        if not router.cb_flits and n_occupied == 1:
            unit = router.in_units[next(iter(occupied))]
            flit: Flit = unit.buffer[0]
            hop = flit.hop
            packet = flit.packet
            if flit.is_head:
                if now < flit.arrival + eligible_at:
                    return
            cb_committed = router.cb_committed
            if hop == packet.last_hop:  # ejection port
                dst = packet.dst
                if self.eject_credits[dst] <= 0 or (
                    cb_committed and packet.pid in cb_committed
                ):
                    return
                self._ej_rr[dst] += 1
                buffer = unit.buffer
                buffer.popleft()
                if not buffer:
                    occupied.discard(unit.index)
                router.buffered -= 1
                node = unit.node
                if node is not None:
                    value = len(buffer)
                    self.injection_backlog[node] = value
                    if value:
                        self._nonzero_backlogs[node] = value
                    else:
                        self._nonzero_backlogs.pop(node, None)
                    self._backlog_dirty = True
                elif unit.credit_code >= 0:
                    when = now + unit.credit_latency
                    wheel = self._event_wheel
                    try:
                        wheel[when].append((unit.credit_code, unit.vc))
                    except KeyError:
                        wheel[when] = [(unit.credit_code, unit.vc)]
                self.eject_credits[dst] -= 1
                self.eject_pipe.append((now + 1, flit))
                if flit.is_head and packet.injected < 0:
                    packet.injected = now
                return
            out_key = packet.path[hop + 1]
            base, link, latency, out_code, ordinal, rr_slot = (
                router.out_info[out_key]
            )
            vc = packet.vcs[hop]
            index = base + vc
            owner_list = router.owner
            owner = owner_list[index]
            if owner is None:
                viable_one = flit.is_head
            else:
                viable_one = owner == packet.pid
            if viable_one:
                if self._elastic:
                    viable_one = vc not in link.stages[0]
                else:
                    viable_one = router.credits[index] > 0
                if viable_one and cb_committed and packet.pid in cb_committed:
                    viable_one = False
            if not viable_one:
                if self.config.uses_central_buffer:
                    self._try_central_buffer(router, out_key, [(unit, flit, True)])
                return
            router.rr[rr_slot] += 1
            buffer = unit.buffer
            buffer.popleft()
            if not buffer:
                occupied.discard(unit.index)
            router.buffered -= 1
            node = unit.node
            if node is not None:
                value = len(buffer)
                self.injection_backlog[node] = value
                if value:
                    self._nonzero_backlogs[node] = value
                else:
                    self._nonzero_backlogs.pop(node, None)
                self._backlog_dirty = True
            elif unit.credit_code >= 0:
                when = now + unit.credit_latency
                wheel = self._event_wheel
                try:
                    wheel[when].append((unit.credit_code, unit.vc))
                except KeyError:
                    wheel[when] = [(unit.credit_code, unit.vc)]
            if flit.is_head:
                owner_list[index] = packet.pid
                if packet.injected < 0:
                    packet.injected = now
            if flit.is_tail:
                owner_list[index] = None
            flit.hop = hop + 1
            if self._elastic:
                link.push(flit, vc)
                self._active_elastic_links.add((router.index, out_key))
            else:
                router.credits[index] -= 1
                when = now + latency
                wheel = self._event_wheel
                try:
                    wheel[when].append((out_code, flit, vc))
                except KeyError:
                    wheel[when] = [(out_code, flit, vc)]
                if self._track_inflight:
                    self._credit_inflight[ordinal] += 1
            self._occupancy[ordinal] += 1
            return

        # Two occupied units, CB empty: the potential conflict (same
        # out_key) is one direct comparison; the request table degenerates
        # to literal tuples feeding the general grant loop.
        if not router.cb_flits and n_occupied == 2:
            units = router.in_units
            first, second = occupied
            if first > second:
                first, second = second, first
            unit = units[first]
            flit = unit.buffer[0]
            cand1 = cand2 = None
            if not (flit.is_head and now < flit.arrival + eligible_at):
                packet = flit.packet
                if flit.hop == packet.last_hop:
                    out_key: object = packet.ej_key
                else:
                    out_key = packet.path[flit.hop + 1]
                cand1 = (unit, flit, True)
            unit = units[second]
            flit = unit.buffer[0]
            if not (flit.is_head and now < flit.arrival + eligible_at):
                packet = flit.packet
                if flit.hop == packet.last_hop:
                    out_key2: object = packet.ej_key
                else:
                    out_key2 = packet.path[flit.hop + 1]
                cand2 = (unit, flit, True)
            if cand1 is None:
                if cand2 is None:
                    return
                grants = ((out_key2, (cand2,)),)
            elif cand2 is None:
                grants = ((out_key, (cand1,)),)
            elif out_key == out_key2:
                grants = ((out_key, (cand1, cand2)),)
            else:
                grants = ((out_key, (cand1,)), (out_key2, (cand2,)))
        else:
            requests = self._requests  # hoisted: cleared after use
            if router.buffered:
                units = router.in_units
                # Ascending index order == build order == the order the
                # lockstep core walked the full (port, VC) dict, which
                # fixes the requests ordering the CB spill path depends on.
                for index in sorted(occupied):
                    unit = units[index]
                    flit = unit.buffer[0]
                    # Head flits pay the pipeline (route computation +
                    # allocation); body flits inherit the head's state and
                    # stream at link rate.
                    if flit.is_head and now < flit.arrival + eligible_at:
                        continue
                    packet = flit.packet
                    if flit.hop == packet.last_hop:
                        out_key = packet.ej_key
                    else:
                        out_key = packet.path[flit.hop + 1]
                    candidates = requests.get(out_key)
                    if candidates is None:
                        requests[out_key] = [(unit, flit, True)]
                    else:
                        candidates.append((unit, flit, True))

            # CB queues re-arbitrate alongside staged flits.  The CB is
            # modeled as per-output FIFOs: each output port can drain one
            # CB flit per cycle (the mux/demux sharing of Figure 8), while
            # CB *writes* stay limited to one per cycle.
            if router.cb_flits:
                for (out_port, _vc), queue in router.cb_queues.items():
                    if not queue:
                        continue
                    flit = queue[0]
                    if now < flit.arrival:
                        continue
                    candidates = requests.get(out_port)
                    if candidates is None:
                        requests[out_port] = [(queue, flit, False)]
                    else:
                        candidates.append((queue, flit, False))

            if not requests:
                return
            grants = requests.items()

        elastic = self._elastic
        uses_cb = self.config.uses_central_buffer
        cb_committed = router.cb_committed
        viable = self._viable  # hoisted: cleared before each use
        router_index = router.index
        wheel = self._event_wheel
        track_inflight = self._track_inflight
        for out_key, candidates in grants:
            winner = None
            if type(out_key) is int:
                base, link, latency, out_code, ordinal, rr_slot = (
                    router.out_info[out_key]
                )
                owner_list = router.owner
                credits_list = router.credits
                viable.clear()
                for candidate in candidates:
                    flit = candidate[1]
                    packet = flit.packet
                    vc = packet.vcs[flit.hop]
                    owner = owner_list[base + vc]
                    if owner is not None:
                        if owner != packet.pid:
                            continue
                    elif not flit.is_head:
                        continue  # body flits only follow their own head
                    if elastic:
                        if vc in link.stages[0]:  # inline can_accept
                            continue
                    elif credits_list[base + vc] <= 0:
                        continue
                    if candidate[2] and cb_committed and packet.pid in cb_committed:
                        continue  # committed packets re-arbitrate from the CB
                    viable.append(candidate)
                if viable:
                    rr = router.rr
                    pointer = rr[rr_slot]
                    rr[rr_slot] = pointer + 1
                    if len(viable) == 1:
                        winner = viable[0]
                    else:
                        winner = viable[pointer % len(viable)]
                    container, flit, from_input = winner
                    packet = flit.packet
                    vc = packet.vcs[flit.hop]
                    index = base + vc
                    if from_input:  # inline input-unit pop
                        unit_buffer = container.buffer
                        unit_buffer.popleft()
                        if not unit_buffer:
                            occupied.discard(container.index)
                        router.buffered -= 1
                        node = container.node
                        if node is not None:
                            value = len(unit_buffer)
                            self.injection_backlog[node] = value
                            if value:
                                self._nonzero_backlogs[node] = value
                            else:
                                self._nonzero_backlogs.pop(node, None)
                            self._backlog_dirty = True
                        elif container.credit_code >= 0:
                            when = now + container.credit_latency
                            try:
                                wheel[when].append(
                                    (container.credit_code, container.vc)
                                )
                            except KeyError:
                                wheel[when] = [(container.credit_code, container.vc)]
                    else:  # CB queue pop
                        container.popleft()
                        router.cb_free += 1
                        router.cb_flits -= 1
                        if flit.is_tail:
                            router.cb_stream_owner.pop((out_key, vc), None)
                    if flit.is_head:
                        owner_list[index] = packet.pid
                        if packet.injected < 0:
                            packet.injected = now
                    if flit.is_tail:
                        owner_list[index] = None
                    flit.hop += 1
                    if elastic:
                        link.push(flit, vc)
                        self._active_elastic_links.add((router_index, out_key))
                    else:
                        credits_list[index] -= 1
                        when = now + latency
                        try:
                            wheel[when].append((out_code, flit, vc))
                        except KeyError:
                            wheel[when] = [(out_code, flit, vc)]
                        if track_inflight:
                            self._credit_inflight[ordinal] += 1
                    self._occupancy[ordinal] += 1
                # CBR: losing head flits (and flits of CB-committed
                # packets) fall into the central buffer when a
                # whole-packet reservation fits.  Writes are
                # per-input-port (banked SRAM / demux sharing): each
                # blocked staging buffer may spill at most one flit/cycle.
                if winner is None and uses_cb:
                    self._try_central_buffer(router, out_key, candidates)
            else:
                # ("ej", node) ejection port: one shared viability test.
                dst = out_key[1]
                if self.eject_credits[dst] > 0:
                    viable.clear()
                    for candidate in candidates:
                        flit = candidate[1]
                        if (
                            candidate[2]
                            and cb_committed
                            and flit.packet.pid in cb_committed
                        ):
                            continue
                        viable.append(candidate)
                    if viable:
                        ej_rr = self._ej_rr
                        pointer = ej_rr[dst]
                        ej_rr[dst] = pointer + 1
                        if len(viable) == 1:
                            container, flit, from_input = viable[0]
                        else:
                            container, flit, from_input = viable[pointer % len(viable)]
                        packet = flit.packet
                        # Ejecting candidates always come from input units
                        # (the CB only fronts router-to-router ports), so
                        # the inline pop handles just that shape.
                        unit_buffer = container.buffer
                        unit_buffer.popleft()
                        if not unit_buffer:
                            occupied.discard(container.index)
                        router.buffered -= 1
                        node = container.node
                        if node is not None:
                            value = len(unit_buffer)
                            self.injection_backlog[node] = value
                            if value:
                                self._nonzero_backlogs[node] = value
                            else:
                                self._nonzero_backlogs.pop(node, None)
                            self._backlog_dirty = True
                        elif container.credit_code >= 0:
                            when = now + container.credit_latency
                            try:
                                wheel[when].append(
                                    (container.credit_code, container.vc)
                                )
                            except KeyError:
                                wheel[when] = [(container.credit_code, container.vc)]
                        self.eject_credits[dst] -= 1
                        self.eject_pipe.append((now + 1, flit))
                        if flit.is_head and packet.injected < 0:
                            packet.injected = now
        if requests is not None:
            requests.clear()

    def _pop_input(self, router: _Router, unit: _InputUnit) -> None:
        """Dequeue the head flit of an input unit (CB spill path; the
        arbitration grant paths inline this same bookkeeping)."""
        unit.buffer.popleft()
        if not unit.buffer:
            router.occupied.discard(unit.index)
        router.buffered -= 1
        if unit.node is not None:
            self._set_backlog(unit.node, len(unit.buffer))
        elif unit.credit_code >= 0:
            when = self.now + unit.credit_latency
            wheel = self._event_wheel
            slot = wheel.get(when)
            if slot is None:
                wheel[when] = [(unit.credit_code, unit.vc)]
            else:
                slot.append((unit.credit_code, unit.vc))

    def _upstream_pressure(self, router: _Router, flit: Flit) -> bool:
        """Is a flit stuck in the incoming link right behind this one?"""
        if flit.hop == 0:
            return False  # injection conflicts wait in the (deep) NIC queue
        upstream = flit.packet.path[flit.hop - 1]
        vc = flit.packet.vcs[flit.hop - 1]
        link = self.links[(upstream, router.index)]
        if isinstance(link, ElasticLink):
            return vc in link.stages[-1]
        # Credit-mode flits ride the event wheel; the per-wire counter is
        # maintained exactly for this query (CBR + credit links only).
        return self._credit_inflight[self._occ_ordinal[(upstream, router.index)]] > 0

    def _try_central_buffer(self, router: _Router, out_key, candidates: list[tuple]) -> bool:
        """Move one losing staged flit into the CB (atomic per packet).

        A packet only *opens* a CB reservation when its blocked head is
        holding up traffic — a flit is waiting in the link's final stage
        behind it — so the CB acts as a conflict overflow (its single
        R/W port would otherwise serialise the whole router).
        """
        for unit, flit, from_input in candidates:
            if not from_input:
                continue
            packet = flit.packet
            pid = packet.pid
            vc = packet.vcs[flit.hop]
            committed = router.cb_committed.get(pid)
            if committed is None:
                if not flit.is_head:
                    continue  # only heads open a CB reservation
                if router.cb_stream_owner.get((out_key, vc)) is not None:
                    continue  # another packet streams through this CB queue
                if self.now - flit.arrival < self.config.cbr_patience:
                    continue  # transient conflict: keep retrying the bypass
                if not self._upstream_pressure(router, flit):
                    continue  # nothing waiting behind: stay on the bypass path
                if router.cb_free < packet.size:
                    continue  # atomic allocation: all-or-nothing
                router.cb_free -= packet.size
                router.cb_committed[pid] = packet.size
                router.cb_stream_owner[(out_key, vc)] = pid
            self._pop_input(router, unit)
            flit.arrival = self.now + self.config.cbr_penalty
            queue = router.cb_queues.get((out_key, vc))
            if queue is None:
                queue = router.cb_queues[(out_key, vc)] = deque()
            queue.append(flit)
            router.cb_flits += 1
            router.cb_committed[pid] -= 1
            if router.cb_committed[pid] == 0 or flit.is_tail:
                del router.cb_committed[pid]
            return True
        return False

    # ------------------------------------------------------------------
    # Fast-forward support
    # ------------------------------------------------------------------

    def _next_event_time(self) -> int | None:
        """Earliest future ``now`` at which network state can change.

        Returns ``self.now + 1`` whenever anything could act next cycle
        (eligible or blocked flits, elastic pipelines, pending replies);
        a later cycle when everything buffered is waiting out a pipeline
        or CB delay and all link/ejection events are scheduled beyond the
        next cycle; ``None`` when the network holds no state at all.
        Conservative by construction — fast-forwarding to the returned
        cycle is exact, never an approximation.
        """
        floor = self.now + 1
        best: int | None = None
        if self._pending_replies:
            return floor
        if self.eject_pipe:
            t = self.eject_pipe[0][0]
            if t <= floor:
                return floor
            best = t
        if self._active_elastic_links:
            return floor  # elastic stages advance every cycle
        if self._event_wheel:
            t = min(self._event_wheel)
            if t <= floor:
                return floor
            if best is None or t < best:
                best = t
        eligible_at = self._eligible_at
        for index in self._active_routers:
            router = self.routers[index]
            if router.buffered:
                units = router.in_units
                for unit_index in router.occupied:
                    flit = units[unit_index].buffer[0]
                    if not flit.is_head:
                        return floor  # a body flit can stream immediately
                    t = flit.arrival + eligible_at
                    if t <= floor:
                        return floor  # eligible (possibly blocked): retry
                    if best is None or t < best:
                        best = t
            if router.cb_flits:
                for queue in router.cb_queues.values():
                    if not queue:
                        continue
                    t = queue[0].arrival
                    if t <= floor:
                        return floor
                    if best is None or t < best:
                        best = t
        return best

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

        When the network cannot act before the next scheduled event, the
        loop fast-forwards ``now`` to it instead of idling cycle by cycle.
        Skipped injection cycles still consume ``packets_at`` in order (a
        cycle that turns out to inject becomes the jump target), so the
        RNG stream — and therefore the result — is identical to the
        lockstep loop's.  Disable via ``SimConfig(fast_forward=False)``.
        """
        tracked: dict[int, Packet] = {}
        latencies: list[int] = []
        delivered_flits = 0
        created = 0
        max_backlog = 0
        measure_end = warmup + measure
        end_now = self.now + warmup + measure + drain
        fast_forward = self.config.fast_forward
        pending: tuple[int, list] | None = None  # pre-drawn injection cycle
        next_draw = self.now  # first cycle whose packets_at is unconsumed
        while self.now < end_now:
            cycle = self.now  # packets for the upcoming cycle
            if cycle < measure_end:
                if pending is not None and pending[0] == cycle:
                    specs = pending[1]
                    pending = None
                elif cycle >= next_draw:
                    specs = source.packets_at(cycle, self.rng)
                    next_draw = cycle + 1
                else:
                    specs = ()  # drawn empty during a fast-forward scan
                for spec in specs:
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
            if not fast_forward:
                continue
            next_event = self._next_event_time()
            if next_event == self.now + 1:
                continue
            limit = end_now
            if not tracked and measure_end < limit:
                # The lockstep loop would break the moment ``now`` reaches
                # the end of the measurement window with nothing tracked.
                limit = measure_end
            target = next_event if next_event is not None else limit
            if target > limit:
                target = limit
            jump = target - 1  # pre-step cycle of the next event
            # The jump would skip every injection cycle in [now, jump - 1]
            # (the *current* ``now`` is itself the next unprocessed
            # injection cycle), so their ``packets_at`` draws must still
            # be consumed, in order.  A cycle that turns out to inject
            # becomes the jump target instead.
            scan = self.now
            while scan <= jump and scan < measure_end:
                if scan >= next_draw:
                    specs = list(source.packets_at(scan, self.rng))
                    next_draw = scan + 1
                    if specs:
                        pending = (scan, specs)
                        jump = scan  # injection is the earlier event
                        break
                scan += 1
            if jump > self.now:
                self.now = jump
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
            saturation_delivery_fraction=self.config.saturation_delivery_fraction,
            saturation_backlog=self.config.saturation_backlog,
        )
