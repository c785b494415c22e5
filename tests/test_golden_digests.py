"""Golden-digest regression tests for the simulator core.

The activity-tracked scheduler (active router/link sets + fast-forward,
see :mod:`repro.sim.network`) is a pure performance optimization: for any
(topology, pattern, flow control, seed) it must produce **bit-identical**
``SimResult``\\ s to the naive lockstep core it replaced.  These tests pin
that contract: every case in :data:`MATRIX` is simulated and its
``SimResult.to_dict()`` is hashed; the digests were recorded *before* the
refactor (``tests/golden/sim_digests.json``) and any drift — one cycle,
one latency sample, one reordered packet — fails the suite.

Regenerate (only after an intentional, spec-version-bumping semantic
change to the simulator)::

    PYTHONPATH=src python tests/test_golden_digests.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.engine.campaign import traffic_for_token
from repro.engine.spec import ExperimentSpec, SyntheticTraffic, WorkloadTraffic
from repro.sim import NoCSimulator, SimConfig, cbr, eb_var, el_links
from repro.topos import make_network
from repro.traffic import SyntheticSource

GOLDEN_PATH = Path(__file__).parent / "golden" / "sim_digests.json"
ADAPTIVE_GOLDEN_PATH = Path(__file__).parent / "golden" / "adaptive_digests.json"
WORKLOAD_GOLDEN_PATH = Path(__file__).parent / "golden" / "workload_digests.json"
SPEC_HASH_PATH = Path(__file__).parent / "golden" / "spec_hashes.json"

CONFIGS = {
    "eb": SimConfig,
    "ebvar": eb_var,
    "el": el_links,
    "cbr12": lambda: cbr(12),
}

#: (topology, pattern, config key, load, seed, warmup, measure, drain).
#: Covers both flow controls and the CBR across a low-diameter SN, a
#: flattened butterfly, and a torus (dateline VCs), under a randomized and
#: an adversarial pattern, at a sub-saturation and a contended load.  The
#: very-low-load rows matter specifically for the fast-forward path: only
#: when the network drains empty *inside* the measurement window do
#: ``now`` jumps overlap live injection, which is where a skipped or
#: double-consumed ``packets_at`` draw would desynchronize the RNG.
MATRIX: list[tuple[str, str, str, float, int, int, int, int]] = [
    (topo, pattern, cfg, 0.08, 1, 80, 200, 600)
    for topo in ("sn54", "fbf3", "t2d4")
    for pattern in ("RND", "ADV1")
    for cfg in ("eb", "el", "cbr12")
] + [
    ("sn54", "RND", cfg, 0.30, 2, 80, 200, 600)
    for cfg in ("eb", "ebvar", "el", "cbr12")
] + [
    ("sn54", "RND", cfg, 0.02, 1, 100, 250, 600)
    for cfg in ("eb", "ebvar", "el", "cbr12")
] + [
    ("sn200", "RND", "eb", 0.008, 1, 200, 500, 1200),
    ("sn200", "ADV2", "el", 0.01, 3, 200, 500, 1200),
]


#: (topology, traffic token, routing, config key, load, seed, warmup,
#: measure, drain).  The adaptive/non-stationary corpus: every routing
#: name and traffic kind added in SPEC_VERSION 4, run through the exact
#: spec path the engine uses (``ExperimentSpec.execute``), so a drift in
#: the live-occupancy oracle, the deflection chooser, or any variant's
#: injection schedule moves a digest here.
ADAPTIVE_MATRIX: list[tuple[str, str, str, str, float, int, int, int, int]] = [
    ("sn54", "ADV1", "ugal-l", "eb", 0.12, 1, 80, 200, 600),
    ("sn54", "ADV2", "ugal-g", "eb", 0.12, 1, 80, 200, 600),
    ("sn54", "ADV1", "deflect", "eb", 0.12, 1, 80, 200, 600),
    ("sn54", "ADV1", "valiant", "el", 0.10, 1, 80, 200, 600),
    ("fbf3", "ADV1", "xy-adapt", "eb", 0.10, 1, 80, 200, 600),
    ("sn54", "burst:RND:16+48", "default", "eb", 0.10, 1, 80, 200, 600),
    ("sn54", "burst:ADV1:32+96:0.02", "ugal-l", "el", 0.10, 2, 80, 200, 600),
    ("sn72", "burst:ADV2:64+64", "deflect", "eb", 0.12, 1, 80, 200, 600),
    ("sn54", "hotspot:RND:0.3:3", "default", "eb", 0.08, 1, 80, 200, 600),
    ("sn54", "hotspot:RND:0.25:4", "deflect", "cbr12", 0.08, 1, 80, 200, 600),
    ("fbf3", "hotspot:SHF:0.4:2", "xy-adapt", "el", 0.08, 1, 80, 200, 600),
    ("sn54", "transient:ADV1+ADV2:64", "default", "eb", 0.10, 1, 80, 200, 600),
    ("sn72", "transient:ADV1+ADV2:64", "ugal-l", "eb", 0.10, 1, 80, 200, 600),
]


#: (topology, benchmark, intensity scale, config key, seed, warmup,
#: measure, drain).  Request/reply traffic through ``ExperimentSpec.execute``:
#: reads inject replies at their destination, so these rows pin reply
#: injection and the ejection order of two packet kinds.  Every row tracks
#: at most ``LATENCY_HISTOGRAM_THRESHOLD`` packets, so the raw latency list
#: (ejection-FIFO order, not a histogram) is what gets hashed, and the
#: scaled intensities make the CBR rows spill into the central buffer.
WORKLOAD_MATRIX: list[tuple[str, str, float, str, int, int, int, int]] = [
    (topo, bench, scale, cfg, 1, 80, 200, 600)
    for topo, bench, scale in (("sn54", "radix", 4.0), ("fbf3", "radix", 1.3))
    for cfg in ("eb", "el", "cbr12")
]


def case_id(case: tuple) -> str:
    topo, pattern, cfg, load, seed, warmup, measure, drain = case
    return f"{topo}/{pattern}/{cfg}/load={load:g}/seed={seed}/{warmup}+{measure}+{drain}"


def adaptive_case_id(case: tuple) -> str:
    topo, token, routing, cfg, load, seed, warmup, measure, drain = case
    return (
        f"{topo}/{token}/{routing}/{cfg}/load={load:g}/seed={seed}/"
        f"{warmup}+{measure}+{drain}"
    )


def adaptive_spec(case: tuple) -> ExperimentSpec:
    topo_sym, token, routing, cfg, load, seed, warmup, measure, drain = case
    topology = make_network(topo_sym)
    return ExperimentSpec(
        topology=topo_sym,
        source=traffic_for_token(token, load, topology.num_nodes),
        config=CONFIGS[cfg](),
        routing=routing,
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain=drain,
    )


def workload_case_id(case: tuple) -> str:
    topo, bench, scale, cfg, seed, warmup, measure, drain = case
    return f"{topo}/{bench}:x{scale:g}/{cfg}/seed={seed}/{warmup}+{measure}+{drain}"


def workload_spec(case: tuple) -> ExperimentSpec:
    topo, bench, scale, cfg, seed, warmup, measure, drain = case
    return ExperimentSpec(
        topology=topo,
        source=WorkloadTraffic(bench, scale),
        config=CONFIGS[cfg](),
        routing="default",
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain=drain,
    )


def run_workload_case(case: tuple) -> dict:
    return workload_spec(case).execute().to_dict()


def run_adaptive_case(case: tuple) -> dict:
    return adaptive_spec(case).execute().to_dict()


def run_case(case: tuple) -> dict:
    topo_sym, pattern, cfg, load, seed, warmup, measure, drain = case
    topology = make_network(topo_sym)
    sim = NoCSimulator(topology, CONFIGS[cfg](), seed=seed)
    source = SyntheticSource(topology, pattern, load)
    result = sim.run(source, warmup=warmup, measure=measure, drain=drain)
    return result.to_dict()


def digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


@pytest.mark.parametrize("case", MATRIX, ids=case_id)
def test_simresult_matches_golden_digest(case):
    golden = load_golden()
    assert case_id(case) in golden, "regenerate tests/golden/sim_digests.json"
    assert digest(run_case(case)) == golden[case_id(case)]


def test_matrix_and_golden_file_agree():
    """Every matrix case is pinned and no stale digests linger."""
    golden = load_golden()
    assert sorted(golden) == sorted(case_id(c) for c in MATRIX)


def test_repeated_runs_are_deterministic():
    """Two fresh simulators over the same case agree exactly (no hidden
    global state beyond the packet-id counter, which to_dict excludes)."""
    case = MATRIX[0]
    assert run_case(case) == run_case(case)


def load_adaptive_golden() -> dict[str, str]:
    return json.loads(ADAPTIVE_GOLDEN_PATH.read_text())["digests"]


@pytest.mark.parametrize("case", ADAPTIVE_MATRIX, ids=adaptive_case_id)
def test_adaptive_case_matches_golden_digest(case):
    golden = load_adaptive_golden()
    cid = adaptive_case_id(case)
    assert cid in golden, "regenerate tests/golden/adaptive_digests.json"
    assert digest(run_adaptive_case(case)) == golden[cid]


def test_adaptive_matrix_and_golden_file_agree():
    golden = load_adaptive_golden()
    assert sorted(golden) == sorted(adaptive_case_id(c) for c in ADAPTIVE_MATRIX)


def load_workload_golden() -> dict[str, str]:
    return json.loads(WORKLOAD_GOLDEN_PATH.read_text())["digests"]


@pytest.mark.parametrize("case", WORKLOAD_MATRIX, ids=workload_case_id)
def test_workload_case_matches_golden_digest(case):
    golden = load_workload_golden()
    cid = workload_case_id(case)
    assert cid in golden, "regenerate tests/golden/workload_digests.json"
    payload = run_workload_case(case)
    assert "latencies" in payload, "row must hash the raw latency order"
    assert digest(payload) == golden[cid]


def test_workload_matrix_and_golden_file_agree():
    golden = load_workload_golden()
    assert sorted(golden) == sorted(workload_case_id(c) for c in WORKLOAD_MATRIX)


def test_adaptive_specs_serialize_as_version_4():
    """Every adaptive/non-stationary case needs — and declares — spec
    version 4 (new routing name, new traffic kind, or both)."""
    for case in ADAPTIVE_MATRIX:
        spec = adaptive_spec(case)
        payload = spec.to_dict()
        source = payload["source"]
        legacy = source["kind"] == "synthetic" and payload["routing"] in {
            "default",
            "minimal",
            "dor",
            "valiant",
            "ugal-l",
            "ugal-g",
        }
        assert payload["spec_version"] == (3 if legacy else 4), adaptive_case_id(case)


def test_legacy_spec_hashes_unchanged_by_version_bump():
    """The SPEC_VERSION 3 -> 4 bump must not move any pre-existing key.

    ``tests/golden/spec_hashes.json`` holds the ``content_hash()`` of all
    28 golden-matrix specs *recorded under the version-3 code*, before
    the version-4 traffic/routing additions existed.  Minimum-required-
    version serialization keeps those specs emitting ``spec_version: 3``
    byte-for-byte, so every cached result stays addressable.
    """
    golden = json.loads(SPEC_HASH_PATH.read_text())["hashes"]
    assert sorted(golden) == sorted(case_id(c) for c in MATRIX)
    for case in MATRIX:
        topo, pattern, cfg, load, seed, warmup, measure, drain = case
        spec = ExperimentSpec(
            topology=topo,
            source=SyntheticTraffic(pattern, load),
            config=CONFIGS[cfg](),
            routing="default",
            seed=seed,
            warmup=warmup,
            measure=measure,
            drain=drain,
        )
        assert spec.to_dict()["spec_version"] == 3, case_id(case)
        assert spec.content_hash() == golden[case_id(case)], case_id(case)


def test_adaptive_and_workload_spec_hashes_unchanged():
    """The cache keys of every adaptive and workload case are pinned too.

    ``tests/golden/spec_hashes.json`` also holds the ``content_hash()`` of
    the 13 adaptive and 6 workload cases, so a change to the traffic
    codec cannot silently move a burst, hotspot, transient or workload
    cache key.
    """
    golden = json.loads(SPEC_HASH_PATH.read_text())
    adaptive = {adaptive_case_id(c): adaptive_spec(c) for c in ADAPTIVE_MATRIX}
    workload = {workload_case_id(c): workload_spec(c) for c in WORKLOAD_MATRIX}
    for section, specs in (("adaptive", adaptive), ("workload", workload)):
        assert sorted(golden[section]) == sorted(specs)
        for cid, spec in specs.items():
            assert spec.content_hash() == golden[section][cid], cid


def regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    digests = {}
    for case in MATRIX:
        payload = run_case(case)
        digests[case_id(case)] = digest(payload)
        print(f"{case_id(case)}  cycles={payload['cycles']}"
              f" delivered={payload['delivered_packets']}")
    GOLDEN_PATH.write_text(json.dumps(
        {"note": "sha256 over canonical SimResult.to_dict() JSON; "
                 "regenerate only on intentional semantic changes "
                 "(bump repro.engine.spec.SPEC_VERSION alongside)",
         "digests": digests},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")


def regenerate_adaptive() -> None:
    ADAPTIVE_GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    digests = {}
    for case in ADAPTIVE_MATRIX:
        payload = run_adaptive_case(case)
        digests[adaptive_case_id(case)] = digest(payload)
        print(f"{adaptive_case_id(case)}  cycles={payload['cycles']}"
              f" delivered={payload['delivered_packets']}")
    ADAPTIVE_GOLDEN_PATH.write_text(json.dumps(
        {"note": "sha256 over canonical SimResult.to_dict() JSON for the "
                 "adaptive-routing / non-stationary-traffic corpus (run "
                 "via ExperimentSpec.execute); regenerate only on "
                 "intentional semantic changes (bump "
                 "repro.engine.spec.SPEC_VERSION alongside)",
         "digests": digests},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {ADAPTIVE_GOLDEN_PATH}")


def regenerate_workload() -> None:
    digests = {}
    for case in WORKLOAD_MATRIX:
        payload = run_workload_case(case)
        digests[workload_case_id(case)] = digest(payload)
        print(f"{workload_case_id(case)}  cycles={payload['cycles']}"
              f" delivered={payload['delivered_packets']}")
    WORKLOAD_GOLDEN_PATH.write_text(json.dumps(
        {"note": "sha256 over canonical SimResult.to_dict() JSON for "
                 "request/reply workload traffic (run via "
                 "ExperimentSpec.execute, raw latency order); regenerate "
                 "only on intentional semantic changes",
         "digests": digests},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {WORKLOAD_GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen-workload" in sys.argv:
        # New rows only: the classic and adaptive files stay as recorded.
        regenerate_workload()
    elif "--regen-adaptive" in sys.argv:
        # The adaptive corpus alone — the classic 28-case file is append-
        # only history and must stay byte-identical across spec versions.
        regenerate_adaptive()
    elif "--regen" in sys.argv:
        regenerate()
        regenerate_adaptive()
        regenerate_workload()
    else:
        raise SystemExit(
            "refusing to run without --regen / --regen-adaptive / --regen-workload"
        )
