"""Tests for fixed-size construction (section 3.5.3) and resilience."""

import pytest

from repro.analysis import degrade, resilience_curve
from repro.analysis.resilience import ResilienceReport, failed_links
from repro.core.slimnoc import design_for_nodes
from repro.topos import make_network
from oracles import hop_distances


class TestDesignForNodes:
    def test_exact_sizes(self):
        """Paper examples: 200, 1024, and 1296 nodes have exact designs."""
        assert (design_for_nodes(200).q, design_for_nodes(200).concentration) == (5, 4)
        assert (design_for_nodes(1024).q, design_for_nodes(1024).concentration) == (8, 8)
        assert (design_for_nodes(1296).q, design_for_nodes(1296).concentration) == (9, 8)

    def test_inexact_size_rounds_up(self):
        """N != Nr*p is feasible by underpopulating tiles (section 3.5.3)."""
        config = design_for_nodes(1000)
        assert config.num_nodes >= 1000
        assert config.num_nodes - 1000 < config.num_routers  # tightest fit

    def test_kappa_constraint_respected(self):
        config = design_for_nodes(1296, max_kappa=2)
        assert abs(config.kappa) <= 2

    def test_kappa_too_tight_rejected(self):
        with pytest.raises(ValueError):
            design_for_nodes(3, max_kappa=0, allow_underpopulated=False)

    def test_strict_mode_requires_exact_factorization(self):
        with pytest.raises(ValueError):
            design_for_nodes(1001, allow_underpopulated=False)
        config = design_for_nodes(200, allow_underpopulated=False)
        assert config.num_nodes == 200

    def test_tiny_target_rejected(self):
        with pytest.raises(ValueError):
            design_for_nodes(1)

    def test_small_targets_supported(self):
        config = design_for_nodes(16)
        assert config.num_nodes == 16 and config.q == 2


class TestResilience:
    def test_no_failures_is_baseline(self):
        sn = make_network("sn200")
        report = degrade(sn, 0.0)
        assert report.connected
        assert report.diameter == 2
        assert report.failed_links == 0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            degrade(make_network("sn200"), 1.0)
        with pytest.raises(ValueError):
            degrade(make_network("sn200"), -0.1)

    def test_expander_degrades_gracefully(self):
        """Paper section 2.1: MMS graphs are good expanders — 10% link
        failures leave SN connected with diameter still close to 2."""
        sn = make_network("sn200")
        report = degrade(sn, 0.10, seed=1)
        assert report.connected
        assert report.diameter <= 4
        assert report.average_path < 2.5

    def test_sn_beats_torus_under_failures(self):
        """At the same failure rate, SN's path stretch is far smaller."""
        sn = make_network("sn200")
        torus = make_network("t2d4")
        sn_reports = resilience_curve(sn, [0.15], seeds=(0, 1, 2))[0.15]
        torus_reports = resilience_curve(torus, [0.15], seeds=(0, 1, 2))[0.15]
        sn_stretch = [
            r.average_path / sn.average_hop_distance() for r in sn_reports if r.connected
        ]
        torus_stretch = [
            r.average_path / torus.average_hop_distance()
            for r in torus_reports
            if r.connected
        ]
        # Torus may even partition; when both survive SN stretches less.
        assert sn_stretch, "SN disconnected at 15% failures"
        if torus_stretch:
            assert min(sn_stretch) < max(torus_stretch) + 0.5
        assert max(sn_stretch) < 1.6

    def test_failure_fraction_accounting(self):
        sn = make_network("sn200")
        report = degrade(sn, 0.2, seed=3)
        assert report.failed_links == int(0.2 * len(sn.edges()))
        assert report.total_links == len(sn.edges())

    def test_seeds_vary_patterns(self):
        sn = make_network("sn54")
        a = degrade(sn, 0.3, seed=0)
        b = degrade(sn, 0.3, seed=1)
        # Same failure count, (almost certainly) different damage.
        assert a.failed_links == b.failed_links


def reference_degrade(topology, fail_fraction, seed):
    """The per-source BFS loop that :func:`degrade` replaced."""
    failures = failed_links(topology, fail_fraction, seed)
    edges = topology.edges()
    adjacency = [[] for _ in range(topology.num_routers)]
    for i, j in edges:
        if (i, j) not in failures:
            adjacency[i].append(j)
            adjacency[j].append(i)
    total = worst = pairs = 0
    for source in range(topology.num_routers):
        dist = hop_distances(adjacency, source)
        if -1 in dist:
            return ResilienceReport(len(failures), len(edges), False, None, None)
        worst = max(worst, max(dist))
        total += sum(dist)
        pairs += topology.num_routers - 1
    return ResilienceReport(len(failures), len(edges), True, worst, total / pairs)


class TestResilienceReference:
    """The all-pairs hop kernel against the per-source BFS loop."""

    @pytest.mark.parametrize("symbol", ["sn200", "t2d4", "fbf4", "cm3", "sn54"])
    def test_equal_reports(self, symbol):
        topo = make_network(symbol)
        fractions = [0.05, 0.10, 0.20, 0.40, 0.80]
        curve = resilience_curve(topo, fractions, seeds=(0, 1, 2))
        for fraction in fractions:
            expected = [reference_degrade(topo, fraction, seed) for seed in (0, 1, 2)]
            assert curve[fraction] == expected
        assert not any(report.connected for report in curve[0.80])
