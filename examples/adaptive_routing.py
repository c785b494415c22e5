#!/usr/bin/env python3
"""Adaptive routing study (paper Figure 20): UGAL-L / UGAL-G / minimal
routing on Slim NoC vs Flattened Butterfly, uniform and asymmetric
traffic.

Every point runs through the cached experiment engine, so a second run
is read back from ``.repro_cache/`` without simulating.

Run:  python examples/adaptive_routing.py
"""

from repro import SimConfig, default_engine, format_table
from repro.analysis import adaptive_study

NETWORKS = ("sn200", "fbf4")
#: Printed scheme label -> engine routing name.
SCHEMES = {"MIN": "default", "UGAL-L": "ugal-l", "UGAL-G": "ugal-g"}
CONFIG = SimConfig(num_vcs=4, edge_buffer_flits=8)


def main():
    study = adaptive_study(
        default_engine(),
        networks=NETWORKS,
        routings=tuple(SCHEMES.values()),
        traffic=("RND", "ASYM"),
        loads=(0.05, 0.2, 0.35),
        config=CONFIG,
        seed=2,
        warmup=200,
        measure=500,
        drain=1200,
        stop_after_saturation=False,
    )
    for pattern in study.traffic:
        rows = [
            [f"{symbol}_{scheme}", f"{p.load:.2f}", f"{p.latency:.1f}",
             f"{p.throughput:.3f}", "sat" if p.saturated else ""]
            for symbol in NETWORKS
            for scheme, routing in SCHEMES.items()
            for p in study.curve(symbol, routing, pattern).points
        ]
        print()
        print(format_table(
            ["network_routing", "load", "latency [cyc]", "throughput", ""],
            rows, title=f"Figure 20 — {pattern} traffic, N=200",
        ))


if __name__ == "__main__":
    main()
