"""The campaign commands of the CLI: printed tables, the ``  engine:``
line, the ``--json`` envelope and parse-time option checks.

Every table ``info``, ``sweep``, ``compare``, ``adaptive`` and
``workloads`` print is pinned byte for byte in
``tests/golden/cli_stdout.json``.  The ``  stages:`` lines (wall-clock
timings) and the ``  engine:`` lines (cache/simulation counts, checked
separately below) are dropped before the comparison.

Regenerate (only after an intentional change to a printed table)::

    PYTHONPATH=src python tests/test_cli.py --regen
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden" / "cli_stdout.json"

WINDOWS = ["--warmup", "100", "--measure", "200", "--drain", "300"]
CAMPAIGN = ["--workers", "1", "--no-cache", "--quiet", *WINDOWS]
LOADS = ["--loads", "0.02,0.3,0.6"]

#: name -> argv.  ``info`` takes no engine options; its probe reads the
#: environment (``REPRO_NO_CACHE``/``REPRO_WORKERS``), set in :func:`run`.
CASES: dict[str, list[str]] = {
    "info-sn54": ["info", "sn54"],
    "info-t2d3": ["info", "t2d3"],
    "sweep-one": ["sweep", "sn54", "--patterns", "RND", *LOADS, *CAMPAIGN],
    "sweep-two": ["sweep", "sn54", "--patterns", "RND,ADV2", *LOADS, *CAMPAIGN],
    "compare": ["compare", "sn54", "cm54", *LOADS, *CAMPAIGN],
    "adaptive": [
        "adaptive", "sn54", "--routings", "default,ugal-l", *LOADS, *CAMPAIGN,
    ],
    "workloads": [
        "workloads", "sn54", "cm54", "--benches", "barnes,fft", *CAMPAIGN,
    ],
}


def strip_counts(out: str) -> str:
    """``out`` without its ``  stages:`` and ``  engine:`` lines."""
    return "".join(
        line
        for line in out.splitlines(keepends=True)
        if not line.startswith(("  stages:", "  engine:"))
    )


def run(argv: list[str], capture) -> str:
    """Run the CLI in-process; ``capture()`` returns what it printed."""
    from repro.__main__ import main

    saved = {key: os.environ.get(key) for key in ("REPRO_NO_CACHE", "REPRO_WORKERS")}
    os.environ.update(REPRO_NO_CACHE="1", REPRO_WORKERS="1")
    try:
        assert main(argv) == 0
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return capture()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    golden = json.loads(GOLDEN_PATH.read_text())
    capsys.readouterr()
    out = run(CASES[name], lambda: capsys.readouterr().out)
    assert strip_counts(out) == golden[name]


#: Each campaign command with small windows on one worker, and the keys
#: its ``--json`` envelope adds to ``command`` and ``engine``.
COMMANDS = {
    "sweep": (
        ["sweep", "sn54", "--patterns", "RND,ADV2", *LOADS],
        {"network", "curves"},
    ),
    "compare": (["compare", "sn54", "cm54", *LOADS], {"curves"}),
    "adaptive": (
        ["adaptive", "sn54", "--routings", "default,ugal-l", *LOADS],
        {"study"},
    ),
    "workloads": (
        ["workloads", "sn54", "cm54", "--benches", "barnes,fft"],
        {"baseline", "rows", "edp_normalized"},
    ),
}


def run_json(command, tmp_path, capsys) -> tuple[str, dict]:
    """Run ``command`` against a store in ``tmp_path``: ``(stdout, envelope)``."""
    from repro.__main__ import main

    argv, _keys = COMMANDS[command]
    out = tmp_path / f"{command}.json"
    capsys.readouterr()
    code = main(
        argv
        + ["--workers", "1", "--quiet", *WINDOWS]
        + ["--cache-dir", str(tmp_path / "store"), "--json", str(out)]
    )
    assert code == 0
    return capsys.readouterr().out, json.loads(out.read_text())


def points(envelope: dict) -> int:
    """Simulated points in an envelope's results."""
    if "rows" in envelope:
        return len(envelope["rows"])
    curves = envelope.get("curves") or envelope["study"]["curves"]
    return sum(len(curve["points"]) for curve in curves.values())


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_json_envelope(command, tmp_path, capsys):
    from repro.engine import RunStats

    _out, envelope = run_json(command, tmp_path, capsys)
    assert set(envelope) == {"command", "engine"} | COMMANDS[command][1]
    assert envelope["command"] == command
    assert set(envelope["engine"]) == set(RunStats().to_dict())


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_one_engine_line_counts_the_run(command, tmp_path, capsys):
    """One ``  engine:`` line per run.  On one worker a campaign
    simulates exactly the points it reports (no post-saturation
    overshoot), and a rerun serves all of them from the store."""
    out, envelope = run_json(command, tmp_path, capsys)
    total = points(envelope)
    engine_lines = [line for line in out.splitlines() if line.startswith("  engine:")]
    assert engine_lines == [f"  engine: 0 cached, {total} simulated, 1 workers"]
    out, _envelope = run_json(command, tmp_path, capsys)
    engine_lines = [line for line in out.splitlines() if line.startswith("  engine:")]
    assert engine_lines == [f"  engine: {total} cached, 0 simulated, 1 workers"]


def test_info_probe_goes_through_the_store(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main
    from repro.engine import ResultCache

    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_WORKERS", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    assert main(["info", "sn54"]) == 0
    first = capsys.readouterr().out
    assert ResultCache(tmp_path / "store").stats().entries == 1
    assert main(["info", "sn54"]) == 0
    assert capsys.readouterr().out == first


def test_compare_model_takes_the_packet_size(tmp_path, capsys):
    """``compare --model`` hands ``--packet-flits`` to the analytic
    model: serialization is ``packet_flits - 1`` cycles, so 6-flit
    packets reach the load-0 latency 2 cycles after 4-flit ones."""
    from repro.__main__ import main

    zero_load = {}
    for flits in (6, 4):
        out = tmp_path / f"model-{flits}.json"
        argv = ["compare", "sn54", "--model", "--loads", "0,0.05", "--no-cache"]
        argv += ["--packet-flits", str(flits), "--quiet", "--json", str(out)]
        assert main(argv) == 0
        curve = json.loads(out.read_text())["curves"]["sn54"]
        assert [point["load"] for point in curve["points"]] == [0.0, 0.05]
        zero_load[flits] = curve["points"][0]["latency"]
    capsys.readouterr()
    assert zero_load[6] - zero_load[4] == pytest.approx(2.0, abs=1e-9)


#: (option, bad value, the commands that take the option).
BAD_OPTIONS = [
    ("--packet-flits", "0", ("sweep", "compare")),
    ("--measure", "0", tuple(COMMANDS)),
    ("--warmup", "-5", tuple(COMMANDS)),
    ("--drain", "-1", tuple(COMMANDS)),
    ("--loads", "nan", ("sweep", "compare", "adaptive")),
    ("--loads", "inf", ("sweep", "compare", "adaptive")),
    ("--loads", "-0.1", ("sweep", "compare", "adaptive")),
    ("--loads", "0.1:inf:0.1", ("sweep", "compare", "adaptive")),
    ("--intensity-scale", "nan", ("workloads",)),
    ("--intensity-scale", "inf", ("workloads",)),
    ("--intensity-scale", "-1", ("workloads",)),
]


@pytest.mark.parametrize(
    "command, option, value",
    [
        (command, option, value)
        for option, value, commands in BAD_OPTIONS
        for command in commands
    ],
)
def test_bad_simulation_option_exits_2_before_any_run(
    command, option, value, tmp_path, monkeypatch, capsys
):
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)
    argv, _keys = COMMANDS[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cache-dir", str(tmp_path / "store"), option, value])
    assert exc.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _regen() -> None:
    import contextlib
    import io

    golden = {}
    for name, argv in CASES.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            run(argv, lambda: None)
        golden[name] = strip_counts(buffer.getvalue())
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")


if __name__ == "__main__" and "--regen" in sys.argv:
    _regen()
