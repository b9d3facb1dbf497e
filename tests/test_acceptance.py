"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The random-instance corpus and the simulation batches are shared
session fixtures so the suite stays within its time budget.
"""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest

from txckpt.cli import main
from txckpt.dependence import BLACK, CheckpointAnalysis, ExecutionAnalysis
from txckpt.model import LocalState
from txckpt.protocol import verify_protocol_guarantees
from txckpt.scenario import (
    WorkloadSpec,
    builtin_scenario,
    generate_random,
    resolve_object,
)
from txckpt.sim import SimConfig, run_simulation
from txckpt.theory import (
    enumerate_consistent_globals,
    extend_to_global,
    is_consistent_global_state,
    theorem_condition,
)

from conftest import (
    fig3_reconstruction_facts,
    recovery_line_check,
    scenario_analysis,
    state_intervals,
    version_vector,
)


def _instance(i: int):
    rng = random.Random(i * 7919 + 13)
    spec = WorkloadSpec(
        num_objects=rng.randint(2, 5),
        num_txns=rng.randint(1, 8),
        ops_per_txn=(1, rng.randint(1, 3)),
        write_probability=0.3 + 0.5 * rng.random(),
        access_skew=rng.random(),
        seed=i,
    )
    execution, pattern = generate_random(spec, max_checkpoints_per_object=3)
    return CheckpointAnalysis(ExecutionAnalysis(execution), pattern)


def _candidate_sets(analysis, max_size=3):
    num_objects = analysis.pattern.num_objects
    rank_lists = {obj: list(analysis.pattern.ranks(obj)) for obj in range(num_objects)}
    for size in range(1, min(max_size, num_objects) + 1):
        for objs in itertools.combinations(range(num_objects), size):
            for ranks in itertools.product(*(rank_lists[o] for o in objs)):
                yield dict(zip(objs, ranks))


@pytest.fixture(scope="session")
def corpus_results():
    """One pass over 1000 random instances, shared by several criteria."""
    started = time.monotonic()
    stats = {
        "instances": 0,
        "sets_checked": 0,
        "disagreements": 0,
        "extendable": 0,
        "extension_failures": 0,
        "alpha_sq_failures": 0,
    }
    for i in range(1000):
        analysis = _instance(i)
        base = analysis.base
        stats["instances"] += 1

        per_txn = {t.id: 0 for t in base.execution.transactions}
        for e in base.edges:
            if e.kind == BLACK:
                per_txn[e.via[0]] += 1
        for t in base.execution.transactions:
            if per_txn[t.id] != len(t.write_set) ** 2:
                stats["alpha_sq_failures"] += 1

        globals_ = enumerate_consistent_globals(analysis)
        num_objects = analysis.pattern.num_objects
        singles, pairs, triples = set(), set(), set()
        for gc in globals_:
            ranks = gc.rank_vector()
            entries = list(enumerate(ranks))
            singles.update(entries)
            pairs.update(itertools.combinations(entries, 2))
            triples.update(itertools.combinations(entries, 3))
        by_size = {1: singles, 2: pairs, 3: triples}

        for candidate in _candidate_sets(analysis):
            stats["sets_checked"] += 1
            key = tuple(sorted(candidate.items()))
            extendable = (key[0] if len(key) == 1 else key) in by_size[len(key)]
            holds = theorem_condition(candidate, analysis)
            if holds != extendable:
                stats["disagreements"] += 1
                continue
            if holds:
                stats["extendable"] += 1
                result = extend_to_global(candidate, analysis)
                gc = result.global_checkpoint
                if not gc.contains(candidate) or not is_consistent_global_state(
                    gc.states(), base
                ):
                    stats["extension_failures"] += 1
    stats["elapsed"] = time.monotonic() - started
    return stats


def _batch_workload(i: int):
    rng = random.Random(i * 104729 + 7)
    return WorkloadSpec(
        num_objects=rng.randint(2, 6),
        num_txns=rng.randint(10, 40),
        ops_per_txn=(1, rng.randint(2, 3)),
        write_probability=0.4 + 0.4 * rng.random(),
        access_skew=rng.random(),
        seed=i,
    )


def _batch_config(i: int, num_objects: int, protocol: str, z: int):
    rng = random.Random(i * 31337 + z)
    return SimConfig(
        seed=i * 613 + z,
        num_objects=num_objects,
        protocol=protocol,
        z_param=z,
        message_delay_range=(1, rng.randint(3, 15)),
        timer_period=rng.randint(3, 20),
        timer_jitter=rng.randint(0, 4),
    )


@pytest.fixture(scope="session")
def protocol_a_batch():
    started = time.monotonic()
    violations = []
    for i in range(200):
        workload = _batch_workload(i)
        config = _batch_config(i, workload.num_objects, "A", 1)
        report = verify_protocol_guarantees(run_simulation(workload, config))
        violations.extend(f"run {i}: {v}" for v in report.violations)
    return {"violations": violations, "elapsed": time.monotonic() - started}


@pytest.fixture(scope="session")
def protocol_b_batch():
    violations = []
    forced: dict[int, list[int]] = {1: [], 2: [], 4: [], 8: []}
    for i in range(200):
        workload = _batch_workload(i)
        for z in (1, 2, 4, 8):
            config = _batch_config(i, workload.num_objects, "B", z)
            trace = run_simulation(workload, config)
            report = verify_protocol_guarantees(trace)
            violations.extend(f"run {i} z={z}: {v}" for v in report.violations)
            forced[z].append(sum(1 for r in trace.checkpoint_log if r.kind == "forced"))
    return {"violations": violations, "forced": forced}


def test_criterion_01_fig1a_golden_enumeration():
    started = time.monotonic()
    analysis = scenario_analysis(builtin_scenario("fig1a"))
    got = [version_vector(gc) for gc in enumerate_consistent_globals(analysis)]
    assert got == [(0, 0, 0), (0, 1, 1), (1, 1, 1)]
    assert (1, 0, 1) not in got
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - fig1a enumeration returns exactly the 3 consistent "
          f"global states in {elapsed:.3f}s")


def test_criterion_02_black_edge_counts(corpus_results):
    analysis = scenario_analysis(builtin_scenario("fig1a"))
    t1_black = [e for e in analysis.base.edges if e.kind == BLACK and e.via == (1, 1)]
    assert len(t1_black) == 4
    assert corpus_results["alpha_sq_failures"] == 0
    print(f"\nACCEPTANCE 2: PASS - 4 black edges for the two-object writer; "
          f"write-set-squared counts hold on {corpus_results['instances']} random instances")


def test_criterion_03_fig3_hidden_dependence():
    started = time.monotonic()
    scenario = builtin_scenario("fig3")
    facts = fig3_reconstruction_facts(scenario)
    assert all(facts.values()), f"scenario reconstruction facts failed: {facts}"
    analysis = scenario_analysis(scenario)
    base = analysis.base
    u, z, y, x = (resolve_object(n, scenario.object_names) for n in "uzyx")
    assert not base.happened_before(LocalState(u, 0), LocalState(x, 2))
    assert not base.happened_before(LocalState(x, 2), LocalState(u, 0))
    assert base.happened_before(LocalState(u, 0), LocalState(y, 2))
    assert analysis.dp_reachable(analysis.checkpoint(u, 0), analysis.checkpoint(x, 1))
    first_z = [s for s, iv in state_intervals(analysis).items() if s.obj == z and iv.rank == 0]
    assert len(first_z) == 4
    for gc in enumerate_consistent_globals(analysis):
        assert not (
            gc.members[u].version == 0 and gc.members[x].version == 2
        )
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 3: PASS - hidden dependence found, no joint global checkpoint, "
          f"in {elapsed:.3f}s")


def test_criterion_04_theorem_equivalence(corpus_results):
    assert corpus_results["instances"] == 1000
    assert corpus_results["disagreements"] == 0
    assert corpus_results["elapsed"] < 300
    print(f"\nACCEPTANCE 4: PASS - condition/oracle agreement on "
          f"{corpus_results['sets_checked']} candidate sets across 1000 instances "
          f"in {corpus_results['elapsed']:.1f}s")


def test_criterion_05_construction_validity(corpus_results):
    assert corpus_results["extendable"] > 0
    assert corpus_results["extension_failures"] == 0
    print(f"\nACCEPTANCE 5: PASS - {corpus_results['extendable']} extendable sets all "
          f"extended to consistent global checkpoints containing them")


def test_criterion_06_recovery_line_equivalence():
    checked = 0
    for i in range(100):
        analysis = _instance(i + 5000)
        base = analysis.base
        rank_ranges = [analysis.pattern.ranks(o) for o in range(analysis.pattern.num_objects)]
        for ranks in itertools.product(*rank_ranges):
            line = {o: analysis.pattern.versions[o][r] for o, r in enumerate(ranks)}
            assert recovery_line_check(line, base) == is_consistent_global_state(line, base)
            checked += 1
    print(f"\nACCEPTANCE 6: PASS - line-crossing check agrees with the consistency "
          f"oracle on {checked} complete global checkpoints over 100 instances")


def test_criterion_07_protocol_a_guarantees(protocol_a_batch):
    assert protocol_a_batch["violations"] == []
    assert protocol_a_batch["elapsed"] < 300
    print(f"\nACCEPTANCE 7: PASS - 200 protocol-A runs, zero violations "
          f"in {protocol_a_batch['elapsed']:.1f}s")


def test_criterion_08_protocol_b_guarantees(protocol_b_batch):
    assert protocol_b_batch["violations"] == []
    print("\nACCEPTANCE 8: PASS - 200 runs x z in {1,2,4,8}, zero violations of the "
          "multiple-of-z guarantees")


def test_criterion_09_z_tradeoff(protocol_b_batch):
    forced = protocol_b_batch["forced"]
    means = {z: sum(v) / len(v) for z, v in forced.items()}
    assert len(forced[1]) >= 100
    assert means[1] >= means[2] >= means[4] >= means[8]
    print(f"\nACCEPTANCE 9: PASS - mean forced checkpoints non-increasing in z: "
          f"{ {z: round(m, 2) for z, m in means.items()} }")


def test_criterion_10_determinism(tmp_path, capsys):
    trace1, trace2 = tmp_path / "t1.json", tmp_path / "t2.json"
    commands = [
        ["analyze", "fig3"],
        ["check", "fig3", "u:0", "x:1"],
        ["extend", "fig3", "x:1"],
        ["verify", "--theorem-batch", "5", "--objects", "3", "--txns", "5"],
    ]
    for cmd in commands:
        main(cmd)
        first = capsys.readouterr().out
        main(cmd)
        second = capsys.readouterr().out
        assert first == second, f"report not byte-stable for {cmd}"
        json.loads(first)
    sim = ["simulate", "--objects", "4", "--txns", "12", "--protocol", "B", "--z", "2",
           "--seed", "3", "--timer", "5", "--jitter", "2"]
    main(sim + ["--out", str(trace1)])
    out1 = capsys.readouterr().out
    main(sim + ["--out", str(trace2)])
    out2 = capsys.readouterr().out
    assert trace1.read_text() == trace2.read_text()
    assert out1.replace(str(trace1), "X") == out2.replace(str(trace2), "X")
    print("\nACCEPTANCE 10: PASS - repeated commands produce byte-identical reports "
          "and traces")
