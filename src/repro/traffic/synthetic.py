"""Synthetic traffic patterns (paper section 5.1 "Synthetic Traffic").

Five patterns plus the adaptive-routing study's asymmetric pattern:

* ``RND``  — uniform random destinations.
* ``SHF``  — bit shuffle: destination id is the source id's bits rotated
  left by one position.
* ``REV``  — bit reversal of the source id.
* ``ADV1`` — adversarial, maximising load on *single-link* paths: a
  quarter-die node shift, funnelling all traffic between group-sized
  node bands across the same few links.
* ``ADV2`` — adversarial for *multi-link* paths: a half-die (tornado)
  shift, the classic worst-case permutation for minimal routing.
* ``ASYM`` — section 6 (Figure 20): destination is ``(s mod N/2) + N/2``
  or ``(s mod N/2)`` with probability 1/2 each.

Patterns are functions from a source node to a destination node (plus an
RNG for the randomized ones).  :class:`SyntheticSource` turns a pattern
and an injection rate (flits/node/cycle) into the simulator's packet feed
with Bernoulli injection.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable

from ..topos.base import Topology

PatternFn = Callable[[int, random.Random], int]


def _bits_needed(n: int) -> int:
    return max(1, (n - 1).bit_length())


def uniform_random(topology: Topology) -> PatternFn:
    """RND: destination drawn uniformly from all other nodes."""
    n = topology.num_nodes

    def pattern(src: int, rng: random.Random) -> int:
        dst = rng.randrange(n - 1)
        return dst if dst < src else dst + 1

    return pattern


def bit_shuffle(topology: Topology) -> PatternFn:
    """SHF: rotate the source id's bits left by one."""
    n = topology.num_nodes
    bits = _bits_needed(n)

    def pattern(src: int, rng: random.Random) -> int:
        rotated = ((src << 1) | (src >> (bits - 1))) & ((1 << bits) - 1)
        return rotated % n

    return pattern


def bit_reversal(topology: Topology) -> PatternFn:
    """REV: reverse the source id's bits."""
    n = topology.num_nodes
    bits = _bits_needed(n)

    def pattern(src: int, rng: random.Random) -> int:
        value = 0
        for b in range(bits):
            if src >> b & 1:
                value |= 1 << (bits - 1 - b)
        return value % n

    return pattern


def _shift_pattern(topology: Topology, shift: int) -> PatternFn:
    n = topology.num_nodes

    def pattern(src: int, rng: random.Random) -> int:
        dst = (src + shift) % n
        return dst if dst != src else (dst + 1) % n

    return pattern


def adversarial_neighbor(topology: Topology) -> PatternFn:
    """ADV1: quarter-die shift — a deterministic permutation that funnels
    every flow across the same few inter-group (or inter-quadrant) links,
    stressing single-link paths.  Identical node-level mapping for every
    topology of the same size, so comparisons are apples-to-apples.
    """
    return _shift_pattern(topology, max(1, topology.num_nodes // 4))


def adversarial_far(topology: Topology) -> PatternFn:
    """ADV2: half-die (tornado) shift — maximises load on multi-link
    paths; the classic worst case for minimally-routed direct networks."""
    return _shift_pattern(topology, max(1, topology.num_nodes // 2))


def asymmetric(topology: Topology) -> PatternFn:
    """Figure 20's pattern: d = (s mod N/2) + N/2 or (s mod N/2), p=1/2."""
    n = topology.num_nodes
    half = n // 2

    def pattern(src: int, rng: random.Random) -> int:
        base = src % half
        dst = base + half if rng.random() < 0.5 else base
        if dst == src:
            dst = (base + half) if dst < half else base
        return dst % n

    return pattern


#: Pattern registry keyed by the paper's acronyms.
PATTERNS: dict[str, Callable[[Topology], PatternFn]] = {
    "RND": uniform_random,
    "SHF": bit_shuffle,
    "REV": bit_reversal,
    "ADV1": adversarial_neighbor,
    "ADV2": adversarial_far,
    "ASYM": asymmetric,
}


def make_pattern(name: str, topology: Topology) -> PatternFn:
    if name not in PATTERNS:
        raise ValueError(f"unknown pattern {name!r}; options: {sorted(PATTERNS)}")
    return PATTERNS[name](topology)


#: Patterns whose destination draw is randomized (everything else is a
#: fixed permutation and needs exactly one flow sample per source).
RANDOMIZED_PATTERNS = ("RND", "ASYM")


class SyntheticSource:
    """Open-loop Bernoulli injection of fixed-size packets.

    Args:
        topology: Target network (node count, groups).
        pattern: Pattern name from :data:`PATTERNS`.
        rate: Offered load in flits/node/cycle.
        packet_flits: Packet size (paper default 6).
        seed: RNG seed for the :meth:`flows` estimate of randomized
            patterns (packet injection uses the simulator's own RNG).
    """

    def __init__(
        self,
        topology: Topology,
        pattern: str,
        rate: float,
        packet_flits: int = 6,
        seed: int = 0,
    ):
        if rate < 0:
            raise ValueError("rate must be non-negative")
        self.topology = topology
        self.pattern_name = pattern
        self.pattern = make_pattern(pattern, topology)
        self.rate = rate
        self.packet_flits = packet_flits
        self.seed = seed
        self._packet_probability = rate / packet_flits

    def _probability_at(self, cycle: int) -> float:
        """Per-node packet probability at ``cycle`` (a per-cycle hook)."""
        return self._packet_probability

    def _destination_at(self, cycle: int) -> PatternFn:
        """Destination function at ``cycle`` (a per-cycle hook)."""
        return self.pattern

    def packets_at(self, cycle: int, rng: random.Random):
        """Packet specs for this cycle: (src, dst, size, kind, reply?, reply_size).

        The one Bernoulli loop of the synthetic family: a variant changes
        the injection probability or the destination function per cycle
        through the two hooks above, never the loop.  Called once per
        simulated cycle, so the per-node loop is hot: the hooks and
        attribute lookups run before it, and the draw sequence is one
        ``rng.random()`` per node, in node order, with extra draws only
        inside the injection branch.
        """
        probability = self._probability_at(cycle)
        pattern = self._destination_at(cycle)
        size = self.packet_flits
        draw = rng.random
        for src in range(self.topology.num_nodes):
            if draw() < probability:
                dst = pattern(src, rng)
                if dst != src:
                    yield (src, dst, size, "data", False, 0)

    def default_flow_samples(self) -> int:
        """Per-source destination samples for :meth:`flows`.

        Deterministic permutations need exactly one sample.  Randomized
        patterns scale with network size: larger networks spread the same
        per-source sample budget over many more channels, so the busiest
        channel's estimate gets noisier unless the budget grows too.
        """
        if self.pattern_name not in RANDOMIZED_PATTERNS:
            return 1
        return max(200, 16 * math.isqrt(self.topology.num_nodes))

    def flows(self, samples: int | None = None) -> dict[tuple[int, int], float]:
        """Expected router-to-router flow matrix (flits/cycle), for the
        analytical saturation model.  Randomized patterns are averaged
        over ``samples`` draws per source (default: size-scaled, seeded
        by ``self.seed``)."""
        topo = self.topology
        flows: dict[tuple[int, int], float] = {}
        rng = random.Random(self.seed)
        samples = samples if samples is not None else self.default_flow_samples()
        for src in range(topo.num_nodes):
            src_router = topo.node_router(src)
            for _ in range(samples):
                dst = self.pattern(src, rng)
                if dst == src:
                    continue
                key = (src_router, topo.node_router(dst))
                flows[key] = flows.get(key, 0.0) + self.rate / samples
        return flows
