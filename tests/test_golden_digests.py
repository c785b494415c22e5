"""Golden-digest regression tests for the simulator core.

The activity-tracked step (active router/link sets inside the lockstep
loop, see :mod:`repro.sim.network`) is a pure performance optimization:
for any (topology, pattern, flow control, seed) it must produce
**bit-identical** ``SimResult``\\ s to the naive lockstep core it
replaced.  These tests pin that contract: every case in :data:`MATRIX`
is simulated and its ``SimResult.to_dict()`` is hashed; the digests
were recorded *before* the refactor (``tests/golden/sim_digests.json``)
and any drift — one cycle, one latency sample, one reordered packet —
fails the suite.

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
#: very-low-load rows guard the idle path of the lockstep loop: the
#: network drains empty *inside* the measurement window, so routers and
#: links leave and rejoin the active sets while injection continues, and
#: every idle cycle must still draw its ``packets_at`` injections.
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


def classic_spec(case: tuple) -> ExperimentSpec:
    """The engine's spec for a :data:`MATRIX` case (for its cache key)."""
    topo, pattern, cfg, load, seed, warmup, measure, drain = case
    return ExperimentSpec(
        topology=topo,
        source=SyntheticTraffic(pattern, load),
        config=CONFIGS[cfg](),
        routing="default",
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain=drain,
    )


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


def spec_sections() -> dict[str, dict[str, ExperimentSpec]]:
    """Every pinned spec by ``spec_hashes.json`` section and case id."""
    return {
        "hashes": {case_id(c): classic_spec(c) for c in MATRIX},
        "adaptive": {adaptive_case_id(c): adaptive_spec(c) for c in ADAPTIVE_MATRIX},
        "workload": {workload_case_id(c): workload_spec(c) for c in WORKLOAD_MATRIX},
    }


def assert_spec_hashes_pinned(*sections: str) -> None:
    golden = json.loads(SPEC_HASH_PATH.read_text())
    specs_by_section = spec_sections()
    for section in sections:
        specs = specs_by_section[section]
        assert sorted(golden[section]) == sorted(specs)
        for cid, spec in specs.items():
            assert spec.content_hash() == golden[section][cid], cid


def test_classic_spec_hashes_unchanged():
    """``tests/golden/spec_hashes.json`` pins the ``content_hash()`` of
    all 28 golden-matrix specs, so a codec change cannot silently move a
    classic cache key."""
    assert_spec_hashes_pinned("hashes")


def test_adaptive_and_workload_spec_hashes_unchanged():
    """The cache keys of every adaptive and workload case are pinned too,
    so a change to the traffic codec cannot silently move a burst,
    hotspot, transient or workload cache key."""
    assert_spec_hashes_pinned("adaptive", "workload")


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


def regenerate_spec_hashes() -> None:
    hashes = {
        section: {cid: spec.content_hash() for cid, spec in specs.items()}
        for section, specs in spec_sections().items()
    }
    count = sum(map(len, hashes.values()))
    hashes["note"] = (
        "ExperimentSpec.content_hash() of the 28 classic ('hashes'), 13 "
        "adaptive and 6 workload golden cases; regenerate only with a "
        "repro.engine.spec.SPEC_VERSION bump"
    )
    SPEC_HASH_PATH.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {count} spec hashes to {SPEC_HASH_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit("refusing to run without --regen")
    regenerate()
    regenerate_adaptive()
    regenerate_workload()
    regenerate_spec_hashes()
