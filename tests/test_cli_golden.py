"""Byte-exact CLI reports: a digest of stdout and the exit code per command.

Covers ``analyze`` of the bundled scenarios, every one- and two-member
``check``/``extend`` on them, the README's commands and three seeded
``verify --sim-batch`` runs.  ``cli_golden.json`` holds the expected
``[sha256 of stdout, exit code]`` per command line.  When a report is meant
to change, regenerate it from a checkout with

    PYTHONPATH=src python3 tests/test_cli_golden.py > tests/cli_golden.json

and review the commands whose digests moved.  Four larger seeded traces are
pinned apart, in ``TRACES``: the sha256 of the trace file and of its
``simulate`` and ``verify`` reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from txckpt.cli import main
from txckpt.scenario import builtin_scenario

GOLDEN = Path(__file__).with_name("cli_golden.json")
SCENARIOS = ("fig1a", "fig1b", "fig3")
SIMULATE = (
    "simulate --objects 4 --txns 20 --protocol B --z 4 --seed 7 "
    "--timer 8 --jitter 2 --out trace.json"
)
README = (
    "analyze fig3",
    "check fig3 u:0 x:1",
    "check fig1a x:0 y:0 z:0",
    "extend fig3 x:1",
    SIMULATE,
    "verify trace.json",
    "verify --sim-batch 50 --objects 4 --txns 20 --protocol A --timer 6",
    "verify --theorem-batch 200 --objects 4 --txns 6",
)
SIM_BATCHES = (
    "verify --sim-batch 10 --protocol A",
    "verify --sim-batch 10 --protocol B --z 2",
    "verify --sim-batch 10 --protocol A --z 3",
)


def member_commands() -> list[str]:
    """Every one- and two-member check/extend on the bundled scenarios."""
    out = []
    for name in SCENARIOS:
        scenario = builtin_scenario(name)
        pattern = scenario.pattern
        members = [
            (obj, f"{scenario.object_names[obj]}:{rank}")
            for obj in range(pattern.num_objects)
            for rank in pattern.ranks(obj)
        ]
        sets = [[m] for _, m in members] + [
            [a, b] for (oa, a), (ob, b) in itertools.combinations(members, 2) if oa != ob
        ]
        out += [" ".join((command, name, *s)) for command in ("check", "extend") for s in sets]
    return out


# In order (the README's simulate precedes its verify), without repeats.
COMMANDS = list(dict.fromkeys(
    [f"analyze {name}" for name in SCENARIOS] + member_commands() + list(README) + list(SIM_BATCHES)
))


def report_digest(command: str) -> list:
    """[sha256 of stdout, exit code] of one in-process CLI run."""
    if command == "verify trace.json" and not Path("trace.json").exists():
        report_digest(SIMULATE)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    return [hashlib.sha256(out.getvalue().encode()).hexdigest(), code]


# Per trace: its simulate arguments and the sha256 of the trace file, of the
# simulate report and of the verify report.  With no message delay, most
# events share a tick with the next one, so tz and tf pin the simulator's
# (time, seq) order, which decides those ties.  tz has timer jitter 5, so it
# pins the path that keeps timers in a heap of their own; tf has none, so it
# pins the path that keeps them in a FIFO.
TRACES = {
    "t": (
        "--objects 64 --txns 2000 --ops 1 4 --wseed 1 --seed 1 --timer 20",
        "f39a19dd2a2835f3e3db1be41b15623f79fa4a0bd1c6ddf2c9be82b780783511",
        "c7848ac3d50b826f61312bdb4894a6447bd7e4eb4c7e814574d8a603c30efe1f",
        "a5cf75d539ad65ef014dedb0696c12f22a7533f79f18d9afd5670b66d5d3d1b0",
    ),
    "tb": (
        "--objects 64 --txns 2000 --ops 1 4 --wseed 1 --seed 1 --timer 20 --protocol B --z 3 --jitter 3",
        "d11fd9f7ee8bfb7298fcf3e3244c28ae010baa8a7806a24b025939405394cbdb",
        "b5b848ac39b2856b13f22815e56a61e9828e5ae811e5861359ae44b643abf6e3",
        "430c23300505266efdfbf10c1421a5b540b69067f9f2c85c9822fa0ee863b521",
    ),
    "tz": (
        "--objects 16 --txns 400 --ops 1 4 --wseed 2 --seed 2 --timer 7 --jitter 5 --delay 0 0 --protocol B --z 2",
        "c4d46715464c083dddf9973a28795a09789e01bbb89566b66a081bc12809798a",
        "127324f87e4d0a4eaf153a0457ff45cc71832a1f8eb0fb475f58cc9c7684e68c",
        "66962b61c2695dccb783f75fd30f0e221a991590ff2c3eacd3bb62c089f1c086",
    ),
    "tf": (
        "--objects 16 --txns 400 --ops 1 4 --wseed 2 --seed 2 --timer 7 --delay 0 0 --protocol B --z 2",
        "500e861e60631b7862e2e83fe5ffc40596508bd9e29ff8b7fb0b39179d807754",
        "32e370dae1fb40f17875ccd51d600499953efd5261fdcfc372e63ea84edd1bc7",
        "1560eafc1682e73b4df56d04c45f4ed98a87f58c175bb6927fab81a5395acb57",
    ),
}


@pytest.mark.parametrize("name", TRACES)
def test_trace_bytes_unchanged(name, tmp_path, monkeypatch):
    """A simulated trace, its simulate report and its verify report are
    byte-exact.  A trace must equal the re-run of its config and workload,
    each value an int where the re-run's is: a copy whose first committed
    transaction is written as a float, and one edited checkpoint index, are
    input errors (exit 2)."""
    monkeypatch.chdir(tmp_path)
    args, trace_sha, simulate_sha, verify_sha = TRACES[name]
    path = Path(f"{name}.json")
    assert report_digest(f"simulate {args} --out {path}") == [simulate_sha, 0]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == trace_sha
    assert report_digest(f"verify {path}") == [verify_sha, 0]
    floated, reindexed = json.loads(path.read_text()), json.loads(path.read_text())
    floated["execution"]["commit_order"][0] *= 1.0
    reindexed["checkpoint_log"][-1]["index"] += 1
    for edit, data in (("float", floated), ("index", reindexed)):
        edited = Path(f"{name}-{edit}.json")
        edited.write_text(json.dumps(data))
        assert report_digest(f"verify {edited}")[1] == 2


def test_golden_covers_every_command():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_report_bytes_unchanged(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert report_digest(command) == json.loads(GOLDEN.read_text())[command]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        golden = {command: report_digest(command) for command in COMMANDS}
    json.dump(golden, sys.stdout, indent=1, sort_keys=True)
    print()
