"""Tests for the cycle-accurate simulator: delivery, ordering, flow control."""

import dataclasses
import gc
import weakref

import pytest

from repro.engine import ROUTING_BUILDERS, build_routing
from repro.routing import RoutingAlgorithm, StaticMinimalRouting, UGALRouting
from repro.routing.algorithms import Route
from repro.sim import NoCSimulator, SimConfig, cbr, eb_var, el_links, link_latency
from repro.topos import make_network
from repro.topos.base import Topology
from repro.traffic import SyntheticSource
from oracles import ElasticLinkModel
from sim_state import channel_occupancy, flits_in_network


def drain(sim, max_cycles=2000):
    """Step until every injected flit is delivered; returns the packets."""
    delivered = []
    for _ in range(max_cycles):
        delivered += sim.step()
        sim.issue_replies()
        if not flits_in_network(sim):
            return delivered
    raise AssertionError(
        f"{flits_in_network(sim)} flits stuck after {max_cycles} cycles"
    )


class TestLinkModels:
    def test_link_latency_formula(self):
        assert link_latency(0) == 1
        assert link_latency(1) == 1
        assert link_latency(5) == 5
        assert link_latency(5, hops_per_cycle=9) == 1
        assert link_latency(10, hops_per_cycle=9) == 2

    def test_elastic_link_advances_one_per_stage(self):
        link = ElasticLinkModel(latency=2, num_vcs=2)
        link.push("x", 0)
        assert not link.can_accept(0)
        assert link.can_accept(1)
        out = link.advance(lambda vc: True)
        assert out == []  # stage 0 -> stage 1
        out = link.advance(lambda vc: True)
        assert out == [("x", 0)]

    def test_elastic_link_blocks_on_downstream(self):
        link = ElasticLinkModel(latency=1, num_vcs=1)
        link.push("x", 0)
        assert link.advance(lambda vc: False) == []
        assert link.in_flight == 1
        assert link.advance(lambda vc: True) == [("x", 0)]

    def test_elastic_double_push_rejected(self):
        link = ElasticLinkModel(latency=2, num_vcs=1)
        link.push("x", 0)
        with pytest.raises(RuntimeError):
            link.push("y", 0)


class _Line(Topology):
    """Two routers four grid hops apart: one latency-4 link each way."""

    name = "line2"

    def _build_adjacency(self):
        return [(1,), (0,)]

    def _build_coordinates(self):
        return {0: (1, 1), 1: (5, 1)}


class _AlternatingVCs(RoutingAlgorithm):
    """Minimal routes whose one link hop alternates VC 0 / VC 1 per packet."""

    name = "alternating"

    def __init__(self, topology):
        super().__init__(topology, num_vcs=2)
        self._calls = 0

    def route(self, src, dst, packet_id=0):
        if src == dst:
            return self._route_for((src,))
        self._calls += 1
        return Route((src, dst), (self._calls % 2,))


class TestElasticDifferential:
    """The simulator open-codes ``ElasticLinkModel.advance`` over the link's
    own state; both must move every flit identically.

    The core drives a congested 2-router line: two sources behind router 0
    send to one node behind router 1, on alternating VCs, so the latency-4
    link backs up from the 1-flit staging buffers and stages hold flits of
    both VCs (the round-robin path).  A standalone ``ElasticLinkModel``
    replays the core's pushes and staging-buffer drains cycle by cycle and
    must deliver each flit in the same cycle, with equal stage contents
    and round-robin pointers after every cycle.
    """

    def test_core_walk_matches_standalone_advance(self):
        topo = _Line(concentration=2)
        sim = NoCSimulator(topo, el_links(), routing=_AlternatingVCs(topo))
        core_link = sim.links[(0, 1)]
        assert core_link.latency >= 4 and core_link.num_vcs == 2
        for _ in range(6):
            for src in (0, 1):
                sim.inject_packet(src, 2, size=4)
        staging = [sim.routers[1].in_index[(0, vc)] for vc in range(2)]

        shadow = ElasticLinkModel(core_link.latency, core_link.num_vcs)
        shadow_staging: list[list] = [[], []]
        seen_pushed: dict[int, object] = {}  # id -> flit, held alive
        core_delivered: dict[int, int] = {}
        shadow_delivered: dict[int, int] = {}
        mixed_stages = 0
        for _ in range(400):
            sim.step()
            now = sim.now
            # The same cycle on the standalone link: advance first...
            for flit, vc in shadow.advance(lambda vc: not shadow_staging[vc]):
                shadow_staging[vc].append(flit)
                shadow_delivered[id(flit)] = now
            # ...then the downstream router drains, the upstream one pushes.
            on_link = {id(f) for stage in core_link.stages for f in stage.values()}
            for flit_id in seen_pushed.keys() - on_link - core_delivered.keys():
                core_delivered[flit_id] = now
            staged = {id(f) for unit in staging for f in unit.buffer}
            for queue in shadow_staging:
                queue[:] = [f for f in queue if id(f) in staged]
            for vc, flit in core_link.stages[0].items():
                if id(flit) not in seen_pushed:
                    seen_pushed[id(flit)] = flit
                    shadow.push(flit, vc)
            assert shadow_delivered == core_delivered, f"cycle {now}"
            assert shadow.rr == core_link.rr, f"cycle {now}"
            assert shadow.busy == core_link.busy, f"cycle {now}"
            assert [dict(s) for s in shadow.stages] == [
                dict(s) for s in core_link.stages
            ], f"cycle {now}"
            mixed_stages += sum(len(s) > 1 for s in core_link.stages)
            if not flits_in_network(sim):
                break
        assert not flits_in_network(sim)
        assert len(core_delivered) == 12 * 4
        assert mixed_stages > 0, "no stage ever held two VCs"


class TestSinglePacket:
    def test_packet_reaches_destination(self):
        topo = make_network("sn200")
        sim = NoCSimulator(topo)
        packet = sim.inject_packet(0, 100, size=6)
        delivered = drain(sim)
        assert delivered == [packet]
        assert packet.ejected > packet.created

    def test_same_router_delivery(self):
        topo = make_network("sn200")  # p=4: nodes 0..3 share router 0
        sim = NoCSimulator(topo)
        packet = sim.inject_packet(0, 1, size=6)
        drain(sim)
        assert packet.ejected > 0
        assert packet.route.hops == 0

    def test_latency_accounts_serialization(self):
        """A 6-flit packet's tail trails its head by at least 5 cycles."""
        topo = make_network("sn200")
        sim = NoCSimulator(topo)
        p1 = sim.inject_packet(0, 100, size=1)
        drain(sim)
        sim2 = NoCSimulator(topo)
        p6 = sim2.inject_packet(0, 100, size=6)
        drain(sim2)
        assert p6.latency >= p1.latency + 5

    def test_zero_load_latency_scales_with_distance(self):
        topo = make_network("sn200")
        routing = StaticMinimalRouting(topo, num_vcs=2)
        one_hop = next(
            n for n in range(4, topo.num_nodes) if routing.route(0, topo.node_router(n)).hops == 1
        )
        two_hop = next(
            n for n in range(4, topo.num_nodes) if routing.route(0, topo.node_router(n)).hops == 2
        )
        sim1 = NoCSimulator(topo)
        pa = sim1.inject_packet(0, one_hop, 6)
        drain(sim1)
        sim2 = NoCSimulator(topo)
        pb = sim2.inject_packet(0, two_hop, 6)
        drain(sim2)
        assert pb.latency > pa.latency

    def test_smart_reduces_latency(self):
        topo = make_network("sn200")
        lat = {}
        for smart in (False, True):
            sim = NoCSimulator(topo, SimConfig().with_smart(smart))
            packet = sim.inject_packet(0, 196, 6)
            drain(sim)
            lat[smart] = packet.latency
        assert lat[True] < lat[False]


class TestFlitOrdering:
    @pytest.mark.parametrize("make_config", [SimConfig, eb_var, el_links, lambda: cbr(12)])
    def test_all_flits_arrive_in_order(self, make_config):
        """Wormhole + VC ownership must preserve per-packet flit order."""
        topo = make_network("sn54")
        sim = NoCSimulator(topo, make_config())
        rng_pairs = [(i, (i * 17 + 5) % topo.num_nodes) for i in range(0, 54, 2)]
        for src, dst in rng_pairs:
            if src != dst:
                sim.inject_packet(src, dst, 6)
        # Track ejection order via the eject pipe: each step hands last
        # cycle's grants to the NICs and empties it.
        seen: dict[int, list[int]] = {}
        for _ in range(3000):
            before = list(sim.eject_pipe)
            sim.step()
            for flit in before:
                seen.setdefault(flit.packet.pid, []).append(flit.index)
            assert not set(map(id, before)) & set(map(id, sim.eject_pipe))
            if not flits_in_network(sim):
                break
        assert not flits_in_network(sim)
        assert sum(map(len, seen.values())) == 6 * sum(s != d for s, d in rng_pairs)
        for pid, indices in seen.items():
            assert indices == sorted(indices), f"packet {pid} flits out of order"

    def test_many_packets_all_delivered(self):
        topo = make_network("sn200")
        sim = NoCSimulator(topo)
        packets = []
        for i in range(100):
            src, dst = (i * 3) % 200, (i * 7 + 50) % 200
            if src != dst:
                packets.append(sim.inject_packet(src, dst, 6))
        delivered = drain(sim, 4000)
        assert len(delivered) == len(packets)


class TestDeadlockFreedom:
    """Sustained high load must never wedge the network."""

    @pytest.mark.parametrize("symbol", ["sn200", "fbf3", "pfbf3", "t2d4", "cm4", "sn54"])
    def test_high_load_drains(self, symbol):
        topo = make_network(symbol)
        sim = NoCSimulator(topo, seed=7)
        source = SyntheticSource(topo, "RND", rate=0.5)
        for _ in range(400):
            for spec in source.packets_at(sim.now, sim.rng):
                sim.inject_packet(*spec)
            sim.step()
        drain(sim, max_cycles=30000)

    @pytest.mark.parametrize("make_config", [eb_var, el_links, lambda: cbr(6), lambda: cbr(40)])
    def test_high_load_drains_all_buffering(self, make_config):
        topo = make_network("sn200")
        sim = NoCSimulator(topo, make_config(), seed=3)
        source = SyntheticSource(topo, "ADV1", rate=0.4)
        for _ in range(400):
            for spec in source.packets_at(sim.now, sim.rng):
                sim.inject_packet(*spec)
            sim.step()
        drain(sim, max_cycles=30000)

    def test_ugal_high_load_drains(self):
        topo = make_network("sn200")
        routing = UGALRouting(topo, num_vcs=4, seed=1)
        sim = NoCSimulator(topo, SimConfig(num_vcs=4), routing=routing, seed=2)
        source = SyntheticSource(topo, "ASYM", rate=0.4)
        for _ in range(300):
            for spec in source.packets_at(sim.now, sim.rng):
                sim.inject_packet(*spec)
            sim.step()
        drain(sim, max_cycles=30000)


class TestConservation:
    def test_flits_neither_created_nor_lost(self):
        topo = make_network("sn54")
        sim = NoCSimulator(topo, seed=11)
        source = SyntheticSource(topo, "RND", rate=0.2)
        injected_flits = 0
        for _ in range(300):
            for spec in source.packets_at(sim.now, sim.rng):
                packet = sim.inject_packet(*spec)
                injected_flits += packet.size
            sim.step()
        delivered = drain(sim)
        assert sum(p.size for p in delivered) <= injected_flits
        # Everything injected eventually ejects.
        total_delivered = sum(p.size for p in delivered)
        in_first_phase = injected_flits - total_delivered
        assert in_first_phase >= 0

    def test_throughput_matches_offered_below_saturation(self):
        topo = make_network("sn200")
        sim = NoCSimulator(topo, seed=5)
        res = sim.run(SyntheticSource(topo, "RND", 0.08), warmup=200, measure=600, drain=1200)
        assert res.throughput == pytest.approx(0.08, rel=0.15)
        assert not res.saturated


class TestCentralBuffer:
    def test_cb_reservation_is_atomic(self):
        topo = make_network("sn200")
        sim = NoCSimulator(topo, cbr(8), seed=1)
        source = SyntheticSource(topo, "ADV1", rate=0.35)
        for _ in range(300):
            for spec in source.packets_at(sim.now, sim.rng):
                sim.inject_packet(*spec)
            sim.step()
            for router in sim.routers:
                assert 0 <= router.cb_free <= 8
        drain(sim, 20000)
        for router in sim.routers:
            assert router.cb_free == 8  # all reservations returned
            assert not router.cb_committed
            assert not router.cb_stream_owner

    def test_bypass_at_low_load_matches_edge_latency(self):
        """At zero load the CBR bypass path costs the same as an edge router."""
        topo = make_network("sn200")
        sim_eb = NoCSimulator(topo, SimConfig())
        p_eb = sim_eb.inject_packet(0, 100, 6)
        drain(sim_eb)
        sim_cb = NoCSimulator(topo, cbr(20))
        p_cb = sim_cb.inject_packet(0, 100, 6)
        drain(sim_cb)
        assert abs(p_cb.latency - p_eb.latency) <= 2

    def test_cb_never_used_without_config(self):
        topo = make_network("sn200")
        sim = NoCSimulator(topo, SimConfig(), seed=2)
        source = SyntheticSource(topo, "RND", rate=0.3)
        for _ in range(200):
            for spec in source.packets_at(sim.now, sim.rng):
                sim.inject_packet(*spec)
            sim.step()
        assert all(not r.cb_queues for r in sim.routers)


class TestReplies:
    def test_read_generates_reply(self):
        topo = make_network("sn200")
        sim = NoCSimulator(topo)
        sim.inject_packet(0, 100, 2, kind="read", wants_reply=True, reply_size=6)
        replies = []
        for _ in range(500):
            sim.step()
            replies += sim.issue_replies()
            if replies and not flits_in_network(sim):
                break
        assert len(replies) == 1
        reply = replies[0]
        assert reply.src == 100 and reply.dst == 0
        assert reply.size == 6
        assert reply.ejected > 0


class TestSimResult:
    def test_empty_latency_is_nan(self):
        from repro.sim.network import SimResult

        res = SimResult(0.1, 100, 0, 0, 0, [], 200, 100, 0)
        assert res.avg_latency != res.avg_latency  # NaN
        assert not res.saturated

    def test_p99(self):
        from repro.sim.network import SimResult

        res = SimResult(0.1, 100, 100, 100, 600, list(range(100)), 200, 100, 0)
        assert res.p99_latency >= 98

    def test_repeated_percentile_access_does_not_resort(self):
        """p99 sorts once; further accesses reuse the cached order."""
        from repro.sim.network import SimResult

        res = SimResult(0.1, 100, 100, 100, 600, [5, 1, 9, 3] * 30, 200, 100, 0)
        first = res.sorted_latencies
        assert first == sorted(res.latencies)
        assert res.sorted_latencies is first  # identity: no second sort
        p99 = res.p99_latency
        assert res.p99_latency == p99
        # The latency list is treated as immutable once the result exists:
        # a later mutation must not trigger a re-sort on access.
        res.latencies.append(10**6)
        assert res.sorted_latencies is first

    def test_routing_topology_mismatch_rejected(self):
        sn = make_network("sn200")
        other = make_network("sn54")
        routing = StaticMinimalRouting(other, num_vcs=2)
        with pytest.raises(ValueError):
            NoCSimulator(sn, routing=routing)


class TestIncrementalCounters:
    """Counters that replaced per-call scans must track the scanned truth."""

    def test_elastic_in_flight_matches_stage_scan(self):
        link = ElasticLinkModel(latency=3, num_vcs=2)
        link.push("a", 0)
        link.push("b", 1)
        for blocked in (False, True, False, True, False, False, False):
            assert link.in_flight == sum(len(s) for s in link.stages)
            link.advance(lambda vc: not blocked)
        assert link.in_flight == 0

    def test_injection_backlog_max_matches_list_scan(self):
        topo = make_network("sn54")
        sim = NoCSimulator(topo, seed=9)
        source = SyntheticSource(topo, "RND", rate=0.25)
        for _ in range(120):
            for spec in source.packets_at(sim.now, sim.rng):
                sim.inject_packet(*spec)
            sim.step()
            backlog = max(len(unit.buffer) for unit in sim._inj_units)
            assert sim._current_backlog() == backlog

    def test_router_occupancy_counters_consistent(self):
        topo = make_network("sn54")
        sim = NoCSimulator(topo, seed=4)
        source = SyntheticSource(topo, "RND", rate=0.3)
        for _ in range(150):
            for spec in source.packets_at(sim.now, sim.rng):
                sim.inject_packet(*spec)
            sim.step()
            for router in sim.routers:
                occupied = {u.index for u in router.in_units if u.buffer}
                assert router.occupied == occupied
                assert router.cb_flits == sum(map(len, router.cb_queues.values()))
                if occupied or router.cb_flits:
                    assert router.index in sim._active_routers


class TestOccupancyView:
    """The adaptive routings' occupancy view equals a physical recount of
    every channel (:func:`sim_state.channel_occupancy`) at every cycle."""

    @pytest.mark.parametrize("make_config", [SimConfig, el_links], ids=["EB", "EL-Links"])
    @pytest.mark.parametrize("name", ["ugal-l", "ugal-g", "deflect"])
    def test_view_matches_recount(self, name, make_config):
        topo = make_network("sn54")
        routing = build_routing(name, topo)
        sim = NoCSimulator(topo, make_config(), routing=routing, seed=5)
        assert routing.oracle is sim.queues
        source = SyntheticSource(topo, "ADV1", rate=0.4)
        busiest = 0
        for cycle in range(250):
            if cycle < 150:
                for spec in source.packets_at(sim.now, sim.rng):
                    sim.inject_packet(*spec)
            sim.step()
            recount = channel_occupancy(sim)
            view = {(a, b): sim.queues.output_queue(a, b) for a, b in recount}
            assert view == recount, f"cycle {sim.now}"
            busiest = max(busiest, *view.values())
        assert busiest > 1  # the traffic really queued on some channel
        assert sim.queues.output_queue(0, 0) == 0  # not a channel


class TestSimConfigBounds:
    """A config the core cannot build or run fails at construction."""

    BAD = [
        ("num_vcs", 0),
        ("edge_buffer_flits", 0),
        ("hops_per_cycle", 0),
        ("central_buffer_flits", -1),
    ]

    @pytest.mark.parametrize("field, value", BAD)
    def test_out_of_range_field_raises(self, field, value):
        message = f"config.{field} must be >= {value + 1}, got {value}"
        with pytest.raises(ValueError, match=message):
            SimConfig(**{field: value})
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(SimConfig(), **{field: value})

    @pytest.mark.parametrize("field, value", [(f, v + 1) for f, v in BAD])
    def test_least_value_runs(self, field, value):
        """Each field at its bound still delivers a packet."""
        topo = make_network("sn54")
        sim = NoCSimulator(topo, SimConfig(**{field: value}))
        packet = sim.inject_packet(0, 40, 6)
        assert drain(sim) == [packet]


class TestRefcountFree:
    """A finished run must be freed by reference counting alone.

    Adaptive routings read live occupancy through the simulator's
    ``queues`` view; if anything the routing keeps (or anything inside
    the simulator) pointed back at the simulator, the whole run —
    routers, buffered flits, event wheel — would survive until a
    generation-2 collection.  With the collector off, dropping the
    simulator must kill it even while the routing lives on.
    """

    #: Grid-only schemes need a grid; everything else runs on sn54.
    SYMBOLS = {"dor": "t2d54", "xy-adapt": "fbf54"}

    @pytest.mark.parametrize("make_config", [SimConfig, el_links], ids=["credit", "elastic"])
    @pytest.mark.parametrize("name", sorted(ROUTING_BUILDERS))
    def test_finished_run_is_freed_without_gc(self, name, make_config):
        topo = make_network(self.SYMBOLS.get(name, "sn54"))
        routing = build_routing(name, topo)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sim = NoCSimulator(topo, make_config(), routing=routing, seed=3)
            result = sim.run(
                SyntheticSource(topo, "ADV1", 0.3), warmup=50, measure=150, drain=100
            )
            assert result.created_packets
            alive = weakref.ref(sim)
            del sim
            assert alive() is None, "simulator outlived its last reference"
        finally:
            if was_enabled:
                gc.enable()
        oracle = getattr(routing, "oracle", None)
        assert oracle is None or not isinstance(oracle, NoCSimulator)
