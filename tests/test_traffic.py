"""Tests for synthetic traffic patterns and PARSEC/SPLASH workload models."""

import random

import pytest

from repro.topos import make_network
from repro.traffic import (
    PATTERNS,
    BurstSource,
    HotspotSource,
    SyntheticSource,
    TransientSource,
    WORKLOADS,
    WorkloadSource,
    make_pattern,
    workload_names,
)


class TestPatterns:
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_destinations_in_range(self, name):
        topo = make_network("sn200")
        pattern = make_pattern(name, topo)
        rng = random.Random(0)
        for src in range(0, 200, 7):
            dst = pattern(src, rng)
            assert 0 <= dst < 200

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            make_pattern("TRANSPOSE", make_network("sn200"))

    def test_shuffle_is_rotation(self):
        topo = make_network("sn1024")  # power-of-two N: exact bit ops
        pattern = make_pattern("SHF", topo)
        rng = random.Random(0)
        assert pattern(1, rng) == 2
        assert pattern(512, rng) == 1  # msb wraps to lsb

    def test_reversal_is_involution(self):
        topo = make_network("sn1024")
        pattern = make_pattern("REV", topo)
        rng = random.Random(0)
        for src in (1, 5, 100, 511):
            assert pattern(pattern(src, rng), rng) == src

    def test_rnd_covers_many_destinations(self):
        topo = make_network("sn200")
        pattern = make_pattern("RND", topo)
        rng = random.Random(1)
        destinations = {pattern(0, rng) for _ in range(500)}
        assert len(destinations) > 100
        assert 0 not in destinations  # never self

    def test_adv1_is_quarter_shift_permutation(self):
        topo = make_network("sn200")
        pattern = make_pattern("ADV1", topo)
        rng = random.Random(0)
        destinations = {pattern(src, rng) for src in range(200)}
        assert len(destinations) == 200  # a permutation
        assert pattern(0, rng) == 50

    def test_adv2_is_tornado(self):
        topo = make_network("sn200")
        pattern = make_pattern("ADV2", topo)
        rng = random.Random(0)
        assert pattern(0, rng) == 100
        assert pattern(150, rng) == 50

    def test_adversarial_loads_exceed_uniform(self):
        """ADV patterns concentrate channel load above RND's (their point)."""
        from repro.routing import MinimalPaths

        topo = make_network("sn200")
        paths = MinimalPaths(topo)
        adv = SyntheticSource(topo, "ADV1", 0.1).flows()
        rnd = SyntheticSource(topo, "RND", 0.1).flows()
        assert paths.max_channel_load(adv) > paths.max_channel_load(rnd)

    def test_adversarial_works_on_grid_networks(self):
        topo = make_network("fbf3")
        pattern = make_pattern("ADV1", topo)
        rng = random.Random(0)
        for src in range(0, 192, 13):
            assert 0 <= pattern(src, rng) < 192

    def test_asym_halves(self):
        topo = make_network("sn200")
        pattern = make_pattern("ASYM", topo)
        rng = random.Random(3)
        for src in range(0, 200, 7):
            dst = pattern(src, rng)
            assert dst % 100 == src % 100 or dst != src

    def test_patterns_never_return_self(self):
        topo = make_network("sn200")
        rng = random.Random(5)
        for name in PATTERNS:
            pattern = make_pattern(name, topo)
            for src in range(0, 200, 17):
                for _ in range(5):
                    if name in ("SHF", "REV"):
                        continue  # fixed permutations may map src->src
                    assert pattern(src, rng) != src


class TestSyntheticSource:
    def test_rate_controls_volume(self):
        topo = make_network("sn200")
        rng = random.Random(0)
        low = SyntheticSource(topo, "RND", 0.02)
        high = SyntheticSource(topo, "RND", 0.3)
        count_low = sum(len(list(low.packets_at(c, rng))) for c in range(200))
        count_high = sum(len(list(high.packets_at(c, rng))) for c in range(200))
        assert count_high > 5 * count_low

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSource(make_network("sn200"), "RND", -0.1)

    def test_packet_spec_shape(self):
        topo = make_network("sn200")
        source = SyntheticSource(topo, "RND", 0.5)
        rng = random.Random(0)
        for spec in source.packets_at(0, rng):
            src, dst, size, kind, wants_reply, reply_size = spec
            assert size == 6
            assert kind == "data"
            assert not wants_reply

    def test_flows_scale_with_rate(self):
        topo = make_network("sn54")
        flows = SyntheticSource(topo, "ADV1", 0.2).flows()
        assert sum(flows.values()) == pytest.approx(0.2 * 54, rel=0.01)


def reference_synthetic(source, cycle, rng):
    """Per-kind Bernoulli loops as each source kind once wrote its own.

    The sources now share one loop in ``SyntheticSource.packets_at``;
    these copies pin that every kind still draws exactly as before.
    """
    for src in range(source.topology.num_nodes):
        if rng.random() < source._packet_probability:
            dst = source.pattern(src, rng)
            if dst != src:
                yield (src, dst, source.packet_flits, "data", False, 0)


def reference_burst(source, cycle, rng):
    probability = (
        source._on_probability if source.in_burst(cycle) else source._off_probability
    )
    for src in range(source.topology.num_nodes):
        if rng.random() < probability:
            dst = source.pattern(src, rng)
            if dst != src:
                yield (src, dst, source.packet_flits, "data", False, 0)


def reference_hotspot(source, cycle, rng):
    for src in range(source.topology.num_nodes):
        if rng.random() < source._packet_probability:
            if rng.random() < source.fraction:
                dst = source.hotspots[rng.randrange(len(source.hotspots))]
            else:
                dst = source.pattern(src, rng)
            if dst != src:
                yield (src, dst, source.packet_flits, "data", False, 0)


def reference_transient(source, cycle, rng):
    pattern = make_pattern(
        source.patterns[source.active_index(cycle)], source.topology
    )
    for src in range(source.topology.num_nodes):
        if rng.random() < source._packet_probability:
            dst = pattern(src, rng)
            if dst != src:
                yield (src, dst, source.packet_flits, "data", False, 0)


#: kind -> (source factory over (topology, load), reference loop, the
#: kind's load ceiling: one packet per node per cycle, for a burst in
#: its on-phase).
SOURCE_KINDS = {
    "synthetic": (
        lambda topo, load: SyntheticSource(topo, "RND", load),
        reference_synthetic,
        6.0,
    ),
    "burst": (
        lambda topo, load: BurstSource(
            topo, "ADV1", load, on_cycles=16, off_cycles=48
        ),
        reference_burst,
        6.0 * 16 / 64,
    ),
    "hotspot": (
        lambda topo, load: HotspotSource(
            topo, "RND", load, hotspots=(0, 18, 36), fraction=0.3
        ),
        reference_hotspot,
        6.0,
    ),
    "transient": (
        lambda topo, load: TransientSource(topo, ("ADV1", "RND"), load, period=64),
        reference_transient,
        6.0,
    ),
}


@pytest.mark.parametrize("kind", sorted(SOURCE_KINDS))
@pytest.mark.parametrize("load", [0.0, 0.008, 0.16, "ceiling"])
def test_sources_draw_like_their_reference_loops(kind, load):
    """Same packets and the same RNG state after 2,000 cycles."""
    factory, reference, ceiling = SOURCE_KINDS[kind]
    topo = make_network("sn54")
    source = factory(topo, ceiling if load == "ceiling" else load)
    rng, expected_rng = random.Random(7), random.Random(7)
    for cycle in range(2000):
        got = list(source.packets_at(cycle, rng))
        assert got == list(reference(source, cycle, expected_rng)), cycle
    assert rng.getstate() == expected_rng.getstate()


class TestWorkloads:
    def test_all_fourteen_benchmarks(self):
        assert len(workload_names()) == 14
        assert "barnes" in WORKLOADS and "water-s" in WORKLOADS

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSource(make_network("sn200"), "doom")

    def test_message_mechanics(self):
        """Reads are 2 flits with 6-flit replies; writes are 6 flits."""
        topo = make_network("sn200")
        source = WorkloadSource(topo, "ocean-c", seed=1)
        rng = random.Random(1)
        reads = writes = 0
        for cycle in range(300):
            for src, dst, size, kind, wants_reply, reply_size in source.packets_at(cycle, rng):
                if kind == "read":
                    assert size == 2 and wants_reply and reply_size == 6
                    reads += 1
                else:
                    assert size == 6 and not wants_reply
                    writes += 1
        assert reads > writes > 0  # read-dominated mixes

    def test_intensity_ordering(self):
        """Memory-bound benchmarks inject more than compute-bound ones."""
        assert WORKLOADS["ocean-c"].intensity > WORKLOADS["water-s"].intensity
        assert WORKLOADS["radix"].intensity > WORKLOADS["volrend"].intensity

    def test_rate_property_reflects_intensity(self):
        topo = make_network("sn200")
        heavy = WorkloadSource(topo, "ocean-c")
        light = WorkloadSource(topo, "water-s")
        assert heavy.rate > light.rate

    def test_deterministic_given_seed(self):
        topo = make_network("sn200")
        a = WorkloadSource(topo, "fft", seed=7)
        b = WorkloadSource(topo, "fft", seed=7)
        rng_a, rng_b = random.Random(7), random.Random(7)
        for cycle in range(100):
            assert list(a.packets_at(cycle, rng_a)) == list(b.packets_at(cycle, rng_b))

    def test_locality_biases_destinations(self):
        topo = make_network("sn1296")
        local = WorkloadSource(topo, "volrend", seed=0)  # locality 0.5
        rng = random.Random(0)
        near = far = 0
        window = topo.num_nodes // 16
        for cycle in range(400):
            for src, dst, *_ in local.packets_at(cycle, rng):
                if 0 < (dst - src) % topo.num_nodes <= window:
                    near += 1
                else:
                    far += 1
        assert near > far * 0.5  # strong local bias

    def test_intensity_scale(self):
        topo = make_network("sn200")
        base = WorkloadSource(topo, "fft", seed=0)
        double = WorkloadSource(topo, "fft", seed=0, intensity_scale=2.0)
        assert double.rate == pytest.approx(2 * base.rate)
