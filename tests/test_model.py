from __future__ import annotations

import pytest
from hypothesis import given, settings

from txckpt.model import (
    Execution,
    ExecutionError,
    Transaction,
    assign_versions,
    build_serialization_graph,
    validate_execution,
)

from txckpt.scenario import WorkloadSpec, resolve_object
from txckpt.sim import SimConfig, run_simulation

from conftest import executions, file_error, make_execution, serialization_closure_oracle, version_oracle


def test_validate_fig1a_shape(fig1a):
    # already validated on load; re-validate the raw structure
    raw = Execution(3, fig1a.execution.transactions, fig1a.execution.commit_order)
    assert validate_execution(raw).commit_order == (1, 2)


def test_validate_empty_execution_is_valid():
    assert validate_execution(Execution(0, (), ())).transactions == ()


def test_validate_rejects_duplicate_commit_order():
    t = Transaction.make(1, [0], [])
    with pytest.raises(ExecutionError, match="duplicate"):
        validate_execution(Execution(1, (t,), (1, 1)))


def test_validate_rejects_unknown_txn_in_order():
    t = Transaction.make(1, [0], [])
    with pytest.raises(ExecutionError, match="unknown transaction"):
        validate_execution(Execution(1, (t,), (1, 2)))


def test_validate_rejects_missing_txn_from_order():
    t = Transaction.make(1, [0], [])
    with pytest.raises(ExecutionError, match="missing from commit order"):
        validate_execution(Execution(1, (t,), ()))


def test_validate_rejects_empty_access_set():
    with pytest.raises(ExecutionError, match="empty read and write"):
        validate_execution(Execution(1, (Transaction.make(0, [], []),), (0,)))


def test_validate_rejects_object_out_of_range():
    with pytest.raises(ExecutionError, match="outside"):
        validate_execution(Execution(1, (Transaction.make(0, [1], []),), (0,)))


def test_serialization_fig1a(fig1a):
    graph = build_serialization_graph(fig1a.execution)
    assert graph.direct_edges == frozenset({(1, 2)})


def test_serialization_fig1b(fig1b):
    graph = build_serialization_graph(fig1b.execution)
    assert graph.direct_edges == frozenset({(2, 1)})


def test_serialization_single_transaction():
    execution = make_execution(2, [(0, [0], [1])])
    assert build_serialization_graph(execution).direct_edges == frozenset()


def test_serialization_read_read_not_a_conflict():
    execution = make_execution(1, [(0, [0], []), (1, [0], [])])
    assert build_serialization_graph(execution).direct_edges == frozenset()


def test_versions_fig1a(fig1a):
    timeline = assign_versions(fig1a.execution)
    x, y, z = (resolve_object(n, fig1a.object_names) for n in "xyz")
    assert timeline.writers[x] == (2,)
    assert timeline.writers[y] == (1,)
    assert timeline.writers[z] == (1,)


def test_versions_fig3_z_written_four_times(fig3):
    timeline = assign_versions(fig3.execution)
    z = resolve_object("z", fig3.object_names)
    assert timeline.writers[z] == (2, 3, 4, 5)
    assert timeline.max_version(z) == 4


def test_versions_no_writes():
    execution = make_execution(3, [(0, [0, 1, 2], [])])
    timeline = assign_versions(execution)
    assert all(timeline.max_version(obj) == 0 for obj in range(3))


@settings(max_examples=120)
@given(executions())
def test_commit_order_is_linear_extension(execution):
    graph = build_serialization_graph(execution)
    position = {t: i for i, t in enumerate(execution.commit_order)}
    for i, j in graph.direct_edges:
        assert position[i] < position[j]
    # closure is consistent with the direct edges
    for i, j in graph.direct_edges:
        assert graph.reaches(i, j)


@settings(max_examples=120)
@given(executions())
def test_versions_contiguous_and_write_increments(execution):
    timeline = assign_versions(execution)
    pre, post = version_oracle(execution)
    for txn in execution.transactions:
        for obj in txn.write_set:
            assert post[(txn.id, obj)] == pre[(txn.id, obj)] + 1
            # A write's versions are read off its position among the writers.
            assert timeline.writers[obj].index(txn.id) == pre[(txn.id, obj)]
            assert timeline.writers[obj][post[(txn.id, obj)] - 1] == txn.id
    for obj in range(execution.num_objects):
        writes = sum(1 for t in execution.transactions if obj in t.write_set)
        assert timeline.max_version(obj) == writes


@settings(max_examples=60)
@given(executions())
def test_serialization_graph_deterministic(execution):
    assert build_serialization_graph(execution).direct_edges == build_serialization_graph(
        execution
    ).direct_edges


def assert_reaches_matches_oracle(execution):
    graph = build_serialization_graph(execution)
    closure = serialization_closure_oracle(execution)
    for a in execution.commit_order:
        for b in execution.commit_order:
            assert graph.reaches(a, b) == (b in closure[a])
            # The closure bitsets are reflexive: each position holds its own bit.
            reached = graph.closure[graph.position[a]] >> graph.position[b] & 1 == 1
            assert reached == (a == b or b in closure[a])
    # Chain steps are conflicting pairs, so they sit among the direct edges.
    assert {(a, b) for a, nxt in graph.successors.items() for b in nxt} <= graph.direct_edges


@settings(max_examples=150)
@given(executions(max_objects=4, max_txns=8))
def test_reaches_matches_all_pairs_closure(execution):
    assert_reaches_matches_oracle(execution)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reaches_matches_all_pairs_closure_on_simulated_traces(seed):
    spec = WorkloadSpec(6, 80, ops_per_txn=(1, 4), write_probability=0.5, seed=seed)
    trace = run_simulation(spec, SimConfig(seed=seed, num_objects=6))
    assert_reaches_matches_oracle(trace.execution)


def test_direct_edges_built_on_first_use(fig3):
    graph = build_serialization_graph(fig3.execution)
    assert "direct_edges" not in graph.__dict__
    assert graph.direct_edges and "direct_edges" in graph.__dict__


@pytest.mark.parametrize("scenario, error", [
    ({"objects": -1}, "num_objects must be non-negative"),
    ({"objects": 1, "transactions": [{"id": -1, "reads": [0]}], "commit_order": [-1]},
     "transaction id -1 is negative"),
    ({"objects": 1, "transactions": [{"id": 1, "reads": [0]}, {"id": 1, "writes": [0]}], "commit_order": [1]},
     "duplicate transaction id 1"),
], ids=["negative-objects", "negative-id", "duplicate-id"])
def test_model_input_checks(capsys, tmp_path, scenario, error):
    # validate_execution's checks, reached through a scenario file.
    assert file_error(capsys, tmp_path, scenario, "analyze", "{file}") == f"in: {error}"
