from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txckpt.dependence import ExecutionAnalysis
from txckpt.model import assign_versions, build_serialization_graph
from txckpt.scenario import (
    BUILTIN_SCENARIOS,
    ScenarioError,
    WorkloadSpec,
    builtin_scenario,
    generate_random,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    workload_transactions,
)

from conftest import fig3_reconstruction_facts


class TestBuiltins:
    def test_fig1a_contents(self, fig1a):
        assert fig1a.execution.num_objects == 3
        t1 = next(t for t in fig1a.execution.transactions if t.id == 1)
        assert t1.read_set == {fig1a.object_index("x")}
        assert t1.write_set == {fig1a.object_index("y"), fig1a.object_index("z")}
        assert fig1a.execution.commit_order == (1, 2)

    def test_fig1b_reverses_order(self, fig1b):
        assert fig1b.execution.commit_order == (2, 1)

    def test_fig3_contents(self, fig3):
        assert fig3.execution.commit_order == (1, 2, 3, 7, 4, 5, 6)
        z = fig3.object_index("z")
        assert fig3.pattern.versions[z] == (0, 4)

    def test_fig3_reconstruction_facts(self, fig3):
        facts = fig3_reconstruction_facts(fig3)
        assert facts == {
            "t1_precedes_t6": True,
            "t1_t7_unrelated": True,
            "first_z_interval_has_4_states": True,
        }

    def test_all_builtins_load(self):
        for name in BUILTIN_SCENARIOS:
            scenario = builtin_scenario(name)
            build_serialization_graph(scenario.execution)

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioError, match="unknown builtin"):
            builtin_scenario("fig9")


class TestScenarioFiles:
    def test_round_trip(self, fig3, tmp_path):
        path = tmp_path / "s.json"
        save_scenario(fig3, path)
        loaded = load_scenario(path)
        assert scenario_to_dict(loaded) == scenario_to_dict(fig3)

    def test_load_by_builtin_name(self):
        assert load_scenario("fig1a").execution.commit_order == (1, 2)
        assert load_scenario("builtin:fig3").execution.num_objects == 4

    def test_version_zero_added_when_omitted(self):
        data = {
            "objects": 1,
            "transactions": [{"id": 0, "reads": [], "writes": [0]}],
            "commit_order": [0],
            "checkpoints": {"0": [1]},
        }
        scenario = scenario_from_dict(data)
        assert scenario.pattern.versions[0] == (0, 1)

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown fields"):
            scenario_from_dict({"objects": 1, "color": "red"})

    def test_unknown_txn_field_rejected(self):
        data = {
            "objects": 1,
            "transactions": [{"id": 0, "reads": [0], "writes": [], "cost": 3}],
            "commit_order": [0],
        }
        with pytest.raises(ScenarioError, match=r"transactions\[0\]"):
            scenario_from_dict(data)

    def test_checkpoint_beyond_last_version_rejected(self):
        data = {
            "objects": 1,
            "transactions": [{"id": 0, "reads": [], "writes": [0]}],
            "commit_order": [0],
            "checkpoints": {"0": [2]},
        }
        with pytest.raises(ScenarioError, match="beyond last version"):
            scenario_from_dict(data)

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="parse error"):
            load_scenario(path)

    def test_object_names_resolve(self, fig3):
        assert fig3.object_index("u") == 0
        assert fig3.object_index("3") == 3
        with pytest.raises(ScenarioError, match="unknown object"):
            fig3.object_index("w")


class TestWorkloads:
    def test_spec_validation(self):
        with pytest.raises(ScenarioError):
            WorkloadSpec(num_objects=0, num_txns=1)
        with pytest.raises(ScenarioError):
            WorkloadSpec(num_objects=1, num_txns=1, ops_per_txn=(3, 2))
        with pytest.raises(ScenarioError):
            WorkloadSpec(num_objects=1, num_txns=1, write_probability=1.5)

    def test_generator_deterministic(self):
        spec = WorkloadSpec(num_objects=5, num_txns=8, seed=42)
        assert generate_random(spec) == generate_random(spec)

    def test_write_probability_zero_keeps_initial_versions(self):
        spec = WorkloadSpec(num_objects=4, num_txns=10, write_probability=0.0, seed=3)
        execution, pattern = generate_random(spec)
        timeline = assign_versions(execution)
        assert all(timeline.max_version(obj) == 0 for obj in range(4))
        assert all(vs == (0,) for vs in pattern.versions)

    def test_generated_instances_are_valid(self):
        spec = WorkloadSpec(num_objects=5, num_txns=8, seed=42)
        execution, pattern = generate_random(spec)
        position = {t: i for i, t in enumerate(execution.commit_order)}
        graph = build_serialization_graph(execution)
        for i, j in graph.direct_edges:
            assert position[i] < position[j]
        analysis = ExecutionAnalysis(execution)
        for obj, versions in enumerate(pattern.versions):
            assert versions[0] == 0
            assert versions[-1] <= analysis.timeline.max_version(obj)

    @settings(max_examples=40)
    @given(st.integers(0, 10**6))
    def test_access_sets_within_bounds(self, seed):
        spec = WorkloadSpec(
            num_objects=4, num_txns=6, ops_per_txn=(1, 3), access_skew=1.0, seed=seed
        )
        for txn in workload_transactions(spec):
            assert txn.access_set
            assert len(txn.access_set) <= 3
            assert all(0 <= obj < 4 for obj in txn.access_set)
