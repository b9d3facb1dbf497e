"""The benchmark's own tests: tiny smoke runs through the one command.

Run from the repository root:  python3 -m pytest -q benchmark/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def bench(tmp_path: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--out", str(tmp_path), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def smoke(tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
    """Tiny inputs and the minimum number of operations."""
    return bench(tmp_path, "--tiny", "--seconds", "0", *args)


def details(stdout: str) -> dict:
    line = next(l for l in stdout.splitlines() if l.startswith("details: "))
    return json.loads(line.removeprefix("details: "))


def test_spec_matches_the_runner():
    import run
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert any(m["name"] == "setup_s" and m["bound"] == max(n["bound"] for n in SPEC["end_to_end"])
               for m in SPEC["end_to_end"])


def test_metric_names_are_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_every_workload(tmp_path, trace):
    proc = smoke(tmp_path, "--workload", "all", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    expected = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert list(results) == [w["name"] for w in SPEC["workloads"]]
    for name, result in results.items():
        assert list(result) == ["correct", "attempted", "failed", "metrics"], name
        assert result["correct"] and result["failed"] == 0, (name, proc.stderr)
        assert {m: v["unit"] for m, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in expected
        }
        for metric, value in result["metrics"].items():
            assert isinstance(value["value"], (int, float)), (name, metric)
            if trace == "0":
                assert value["value"] > 0, (name, metric)
        if trace == "1":
            assert result["metrics"]["tracing.missing_layers"]["value"] == 0
            assert result["metrics"]["cli.verify_trace_s"]["value"] > 0
            for metric in ("sim.trace_from_json_s", "scenario.generate_random_s",
                           "theory.enumerate_consistent_globals_s", "theory.consistent_frac"):
                assert result["metrics"][metric]["value"] > 0, (name, metric)
    if trace == "1":
        assert len(list((tmp_path / "spans").glob("*.jsonl"))) == len(results)


def test_same_seed_same_answers_other_seed_other_inputs(tmp_path):
    runs = {}
    for label, seed, trace in (("a", "5", "0"), ("b", "5", "0"), ("traced", "5", "1"),
                               ("c", "6", "0"), ("d", "7", "0")):
        proc = smoke(tmp_path, "--workload", "query_mix", "--seed", seed, "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1])["correct"]
        runs[label] = details(proc.stdout)
        assert runs[label]["store_mismatches"] == 0, label
        if trace == "0":
            assert runs[label]["rounds"] >= 2 and runs[label]["distinct_ops"] == 100, label
    assert runs["a"]["answer_digest"] == runs["b"]["answer_digest"]
    assert runs["a"]["input_digest"] == runs["b"]["input_digest"]
    assert runs["a"]["input_digest"] != runs["c"]["input_digest"]
    assert len(list((tmp_path / "answers").glob("query_mix-tiny-*.txt"))) == 3


def test_store_flags_an_answer_that_changed(tmp_path):
    assert smoke(tmp_path, "--workload", "verify_batch").returncode == 0
    (store,) = (tmp_path / "answers").glob("verify_batch-tiny-1-*.txt")
    store.write_text("0" * 64)
    proc = smoke(tmp_path, "--workload", "verify_batch")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"]
    assert details(proc.stdout)["store_mismatches"] == 1


def test_edge_count_arithmetic_matches_the_edge_set():
    from txckpt import protocol, sim
    from workloads import analysis_counters, sim_inputs

    trace = sim.run_simulation(*sim_inputs(6, 40, 3, protocol="A", timer_period=20))
    base, analysis = protocol.trace_pattern(trace)
    if not hasattr(base, "edges"):
        pytest.skip("the analysis no longer materialises its edge set")
    counts = analysis_counters({"dependence.execution_analysis": base,
                                "dependence.checkpoint_analysis": analysis})
    assert counts["dependence.edges"] == len(base.edges)
    assert counts["dependence.interval_nodes"] == sum(len(v) for v in analysis.pattern.versions)


def test_missing_layer_is_reported_not_fatal(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "INTERNAL_TARGETS",
                        tracing.INTERNAL_TARGETS + (("gone", "txckpt.dependence", "no_such_fn"),))
    tracer = tracing.Tracer()
    from txckpt import dependence, sim

    original = dependence.build_serialization_graph
    from_json = vars(sim.Trace)["from_json"]
    with tracing.instrument(tracer):
        assert dependence.build_serialization_graph is not original
        assert isinstance(vars(sim.Trace)["from_json"], staticmethod)
    assert dependence.build_serialization_graph is original
    assert vars(sim.Trace)["from_json"] is from_json
    assert tracer.missing == ["txckpt.dependence.no_such_fn"]


def test_self_time_excludes_children():
    import tracing

    spans = [["op", None, 0.0, 10.0], ["a", 0, 1.0, 6.0], ["b", 1, 2.0, 4.0], ["b", 0, 7.0, 8.0]]
    ((name, duration, layers),) = tracing.roots(spans)
    assert (name, duration) == ("op", 10.0)
    assert layers == {"a": (3.0, 1), "b": (3.0, 2)}


def test_ladder_records_a_capped_rung(tmp_path):
    import ladder

    rungs = ladder.run_ladder(RUN, tmp_path, rungs=("3x10", "16x400"), cap_s=1.5)
    assert [r["status"] for r in rungs][0] == "done"
    assert rungs[1]["status"].startswith("capped: time")
    assert [s["step"] for s in rungs[0]["steps"]] == [
        "simulate", "execution_analysis", "trace_pattern", "verify"]
    assert rungs[0]["steps"][-1]["counters"]["ok"] is True


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "verify_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
