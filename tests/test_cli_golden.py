"""Byte-exact CLI reports: a digest of stdout and the exit code per command.

Covers ``analyze`` of the bundled scenarios, every one- and two-member
``check``/``extend`` on them, the README's commands and three seeded
``verify --sim-batch`` runs.  ``cli_golden.json`` holds the expected
``[sha256 of stdout, exit code]`` per command line.  When a report is meant
to change, regenerate it from a checkout with

    PYTHONPATH=src python3 tests/test_cli_golden.py > tests/cli_golden.json

and review the commands whose digests moved.
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
from txckpt.model import assign_versions
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
    """Every one- and two-member check/extend on the bundled scenarios.

    Ranks run over the pattern the analysis uses, closed with each object's
    final state.
    """
    out = []
    for name in SCENARIOS:
        scenario = builtin_scenario(name)
        closed = scenario.pattern.with_final_states(assign_versions(scenario.execution))
        members = [
            (obj, f"{scenario.object_names[obj]}:{rank}")
            for obj in range(closed.num_objects)
            for rank in closed.ranks(obj)
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
