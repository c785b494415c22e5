"""Figure-campaign benchmark: wall time to reproduce the paper, cold and warm.

Usage (from the repository root)::

    python3 perfbench/run.py --workload synthetic-cold --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``synthetic-cold`` — Figs 10a/11/12/14/19 latency-load grids into an
  empty store;
* ``parsec-adaptive-cold`` — Fig 18's workload/EDP table and a Fig 20
  adaptive-routing grid into an empty store;
* ``paper-warm`` — every figure and table of ``benchmarks/test_*.py``
  against a store snapshot populated by this checkout's own code.

The load is a closed loop with one client: each campaign is one serial
call sequence through ``default_engine()``, in a fresh interpreter whose
environment has every ``REPRO_*`` variable removed and ``REPRO_CACHE_DIR``
/ ``REPRO_CALIBRATION`` pointed at fresh paths under
``.bench_build/perfbench/``.  What is measured is therefore what a user
gets by default: one worker, the default executor, the default store.

``--trace 0`` runs whole campaigns until ``--seconds`` of campaign wall
time are measured (at least one) and reports the medians of ``setup_s``,
``wall_s``, ``cpu_s`` and ``peak_rss_mb``; set-up is sampled at least
three times, by extra set-up-only interpreters.  Times are reported in
reference seconds (see ``hostspeed.py``); the raw ones are printed too.
``--trace 1`` runs one
untraced and one traced campaign and reports the per-layer metrics of
the traced one (spans are written to ``.bench_build/perfbench/``) plus
the tracing overhead.  ``--seed`` seeds the cold campaigns' simulations;
``paper-warm`` ignores it because the figure modules pin their own seeds.

The last stdout line is the JSON result; the lines before it print every
metric with its unit, the output digest and the exact counts.  A run
whose preconditions fail (a cold store that is not empty, a warm run
that simulates) is reported as invalid: exit code 3 and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
RECORDS = json.loads((HERE / "records.json").read_text())

WORKLOADS = ("synthetic-cold", "parsec-adaptive-cold", "paper-warm")
E2E = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
#: Set-up is short and noisy, so every run samples it at least this often.
SETUP_SAMPLES = 3
#: Every run must end within 180 s; the one that builds the paper-warm
#: snapshot (the first in a checkout) may take 900 s.
RUN_BUDGET_S = 165.0
BUILD_BUDGET_S = 840.0


class BenchError(RuntimeError):
    """The benchmark could not produce a valid result."""


class Invalid(BenchError):
    """A run broke a precondition; it is reported, not timed."""


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def clean_env(tmp: Path, store: Path) -> dict[str, str]:
    """The user's environment minus every ``REPRO_*`` knob, with the
    store and calibration table at fresh paths inside ``tmp``."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["REPRO_CACHE_DIR"] = str(store)
    env["REPRO_CALIBRATION"] = str(tmp / "calibration.json")
    env["TMPDIR"] = str(tmp)
    return env


def launch(workload, seed, mode, tmp: Path, store: Path, deadline, spans=None) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its record."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the next campaign")
    result = Path(tempfile.mkstemp(prefix=f"{mode}-", suffix=".json", dir=tmp)[1])
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--root", str(ROOT), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--result", str(result),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--launched", repr(time.time())]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=clean_env(tmp, store), stdout=sys.stderr, stderr=sys.stderr
    )
    try:
        code = proc.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} campaign overran the run's time budget")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    text = result.read_text()
    if code != 0 or not text:
        raise BenchError(f"{workload} {mode} child exited with code {code}")
    record = json.loads(text)
    if "invalid" in record:
        raise Invalid(f"{workload}: {record['invalid']}")
    return record


def code_hash() -> str:
    """Identity of the code under test, which populates the warm snapshot."""
    digest = hashlib.sha256()
    for base in ("src", "benchmarks"):
        for path in sorted((ROOT / base).rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def snapshot_dir() -> Path:
    return WORK / f"paper-warm-{code_hash()}"


def ensure_snapshot(deadline) -> dict:
    """Populate the paper-warm store once per checkout and code version by
    running the figure set cold; later runs copy it.  Returns its meta."""
    snap = snapshot_dir()
    meta = snap / "meta.json"
    if not meta.exists():
        for stale in WORK.glob("paper-warm-*"):
            shutil.rmtree(stale, ignore_errors=True)
        tmp = Path(tempfile.mkdtemp(prefix="building-", dir=WORK))
        try:
            record = launch("paper-warm", 0, "populate", tmp, tmp / "store", deadline)
            if record["snapshot_entries"] == 0:
                raise BenchError("the cold figure set left an empty store")
            (tmp / "meta.json").write_text(
                json.dumps(
                    {
                        "entries": record["snapshot_entries"],
                        "store_bytes": record["snapshot_bytes"],
                        "cold_wall_s": record["wall_s"],
                        "figures_failed": record["failures"],
                    }
                )
            )
            os.replace(tmp, snap)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return json.loads(meta.read_text())


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def fresh_store(workload: str) -> tuple[Path, Path, int]:
    """A run directory and store path: empty for cold workloads, a fresh
    copy of the snapshot for paper-warm.  Returns the copied bytes."""
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    store = tmp / "store"
    copied = 0
    if workload == "paper-warm":
        source = snapshot_dir() / "store"
        if source.is_dir():
            shutil.copytree(source, store)
        else:
            shutil.copy2(source, store)
        copied = _tree_bytes(store)
    return tmp, store, copied


def campaign(workload, seed, mode, deadline, meta, spans=None) -> dict:
    tmp, store, copied = fresh_store(workload)
    try:
        record = launch(workload, seed, mode, tmp, store, deadline, spans)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["store_bytes_copied"] = copied
    if workload == "paper-warm" and record["store_entries_at_start"] != meta["entries"]:
        raise Invalid(
            f"paper-warm store held {record['store_entries_at_start']} entries, "
            f"the snapshot {meta['entries']}"
        )
    return record


def setup_samples(workload, seed, records, deadline) -> list[float]:
    samples = [r["setup_s"] for r in records]
    if len(samples) >= SETUP_SAMPLES:
        return samples
    tmp, store, _ = fresh_store(workload)
    try:
        while len(samples) < SETUP_SAMPLES:
            record = launch(workload, seed, "setup", tmp, store, deadline)
            samples.append(record["setup_s"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return samples


def check_outputs(workload, seed, records) -> list[str]:
    """Campaigns of one run and the pinned default-seed output must agree."""
    problems = []
    digests = {r["digest"] for r in records}
    counts = {json.dumps(r["counts"], sort_keys=True) for r in records}
    if len(digests) > 1 or len(counts) > 1:
        problems.append(
            "campaigns of one run disagree (digests "
            f"{sorted(digests)}, counts {sorted(counts)}): the simulator is not "
            "deterministic"
        )
    pin = RECORDS["pins"].get(workload, {})
    if workload == "paper-warm" or seed == RECORDS["default_seed"]:
        digest = records[0]["digest"]
        if pin.get("digest") and digest != pin["digest"]:
            problems.append(
                f"output digest {digest} differs from the pinned {pin['digest']}"
            )
    return problems


def count_changes(workload, seed, counts) -> list[str]:
    """Exact counts that moved against the pinned ones (reported, not
    failed: a changed workload or changed simulator behaviour, not noise)."""
    if workload != "paper-warm" and seed != RECORDS["default_seed"]:
        return []
    pin = RECORDS["pins"].get(workload, {})
    return [
        f"  count changed: {name} {counts[name]} (pinned {pin[name]})"
        for name in counts
        if name in pin and counts[name] != pin[name]
    ]


def metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers


def emit(lines, correct, attempted, failed, metrics) -> None:
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def measure(args, deadline, meta) -> None:
    e2e_units, _ = metric_specs()
    records = []
    measured = 0.0
    while True:
        record = campaign(args.workload, args.seed, "measure", deadline, meta)
        records.append(record)
        measured += record["wall_raw_s"]
        spent = record["wall_raw_s"] + record["setup_raw_s"] + 5
        if measured >= args.seconds or deadline - time.monotonic() < 2 * spent:
            break
    setups = setup_samples(args.workload, args.seed, records, deadline)
    values = {
        "setup_s": statistics.median(setups),
        **{name: statistics.median(r[name] for r in records) for name in E2E[1:]},
    }
    problems = check_outputs(args.workload, args.seed, records)
    attempted = records[0]["attempted"]
    failed = attempted if problems else max(r["failed"] for r in records)
    lines = header(args, records, meta)
    lines += count_changes(args.workload, args.seed, records[0]["counts"])
    lines.append(
        f"  set-up samples: {len(setups)}; raw medians: "
        + ", ".join(
            f"{name} {statistics.median(r[name] for r in records):.4f} s"
            for name in ("wall_raw_s", "cpu_raw_s")
        )
        + f"; host slowdown {statistics.median(r['slowdown'] for r in records):.3f}"
    )
    lines += [f"  {p}" for p in problems]
    for name, unit in e2e_units.items():
        lines.append(f"  {name:<12} {values[name]:>12.4f} {unit}")
    frac = failed / attempted
    lines.append(f"  {'failed_frac':<12} {frac:>12.4f} ({failed}/{attempted})")
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in e2e_units.items()
    }
    emit(lines, failed == 0, attempted, failed, metrics)


def trace(args, deadline, meta) -> None:
    _, layer_units = metric_specs()
    plain = campaign(args.workload, args.seed, "measure", deadline, meta)
    spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    traced = campaign(args.workload, args.seed, "trace", deadline, meta, spans)
    layers = dict(traced["layers"])
    for case_id, seconds in traced["figures"].items():
        layers[f"fig.{case_id}_s"] = seconds
    overhead = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    layers["trace.overhead_frac"] = overhead
    problems = check_outputs(args.workload, args.seed, [plain])
    if traced["digest"] != plain["digest"] or traced["failed"] != plain["failed"]:
        problems.append("tracing changed the campaign's outputs")
    attempted = traced["attempted"]
    failed = attempted if problems else traced["failed"]
    lines = header(args, [plain, traced], meta)
    lines += [f"  {p}" for p in problems]
    lines += count_changes(args.workload, args.seed, traced["counts"])
    lines.append(f"  spans: {spans.relative_to(ROOT)}")
    unlisted = sorted(set(layers) - set(layer_units))
    if unlisted:
        lines.append(f"  not in BENCHMARK.json: {', '.join(unlisted)}")
    for name, unit in layer_units.items():
        lines.append(f"  {name:<36} {layers.get(name, 0.0):>16.6g} {unit}")
    metrics = {
        name: {"value": layers.get(name, 0.0), "unit": unit}
        for name, unit in layer_units.items()
    }
    emit(lines, failed == 0, attempted, failed, metrics)


def header(args, records, meta) -> list[str]:
    first = records[0]
    counts = " ".join(f"{k}={v}" for k, v in first["counts"].items())
    lines = [
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(records)} campaign(s); closed loop, 1 client, serial default engine",
        f"  attempted {first['attempted']}, digest {first['digest']}",
        f"  counts {counts}",
    ]
    if args.workload == "paper-warm":
        lines.append(
            f"  snapshot: {meta['entries']} entries, "
            f"{first['store_bytes_copied']} bytes copied before each campaign"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=RECORDS["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "benchmarks"
    ).is_dir():
        print(f"perfbench: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    WORK.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    building = not (snapshot_dir() / "meta.json").exists()
    deadline = start + (BUILD_BUDGET_S if building else RUN_BUDGET_S)
    try:
        meta = ensure_snapshot(deadline)
        (trace if args.trace else measure)(args, deadline, meta)
    except Invalid as exc:
        print(f"perfbench: invalid run, not timed: {exc}", file=sys.stderr)
        return 3
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
