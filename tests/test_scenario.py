from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txckpt.dependence import ExecutionAnalysis
from txckpt.model import assign_versions, build_serialization_graph
from txckpt import scenario
from txckpt.scenario import (
    BUILTIN_SCENARIOS,
    ScenarioError,
    WorkloadSpec,
    _uniform_distinct,
    _weighted_distinct,
    builtin_scenario,
    generate_random,
    load_scenario,
    randint_draws,
    resolve_object,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    workload_transactions,
)

from conftest import cli_error, file_error, fig3_reconstruction_facts, workload_transactions_oracle


class TestBuiltins:
    def test_fig1a_contents(self, fig1a):
        assert fig1a.execution.num_objects == 3
        t1 = next(t for t in fig1a.execution.transactions if t.id == 1)
        assert t1.read_set == {resolve_object("x", fig1a.object_names)}
        assert t1.write_set == {resolve_object("y", fig1a.object_names), resolve_object("z", fig1a.object_names)}
        assert fig1a.execution.commit_order == (1, 2)

    def test_fig1b_reverses_order(self, fig1b):
        assert fig1b.execution.commit_order == (2, 1)

    def test_fig3_contents(self, fig3):
        assert fig3.execution.commit_order == (1, 2, 3, 7, 4, 5, 6)
        z = resolve_object("z", fig3.object_names)
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
        assert resolve_object("u", fig3.object_names) == 0
        assert resolve_object("3", fig3.object_names) == 3
        with pytest.raises(ScenarioError, match="unknown object"):
            resolve_object("w", fig3.object_names)


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


class _Draws:
    """A stand-in for random.Random whose random() returns the given values."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


class TestFastDraws:
    """randint_draws and _uniform_distinct must draw what random.randint and
    the unit-weight scan draw, word for word, or every trace changes."""

    # Widths 1 (lo == hi still draws), powers of two and others.
    @pytest.mark.parametrize("lo, hi", [(0, 0), (7, 7), (0, 1), (1, 4), (0, 7), (3, 18), (1, 10), (0, 255),
                                        (0, 256), (0, 1000), (5, 2**40)])
    def test_draws_equal_randint(self, lo, hi):
        for seed in range(40):
            rng, ref = random.Random(seed), random.Random(seed)
            draw = randint_draws(rng, lo, hi)
            assert [draw() for _ in range(150)] == [ref.randint(lo, hi) for _ in range(150)], seed
            assert rng.getstate() == ref.getstate(), seed

    def test_draws_interleave_with_other_draws_as_randint_does(self):
        rng, ref = random.Random(11), random.Random(11)
        small, large = randint_draws(rng, 0, 3), randint_draws(rng, 1, 1000)
        got = [(small(), rng.random(), large()) for _ in range(500)]
        assert got == [(ref.randint(0, 3), ref.random(), ref.randint(1, 1000)) for _ in range(500)]

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 64, 256])
    def test_uniform_pick_equals_the_unit_weight_scan(self, m):
        for seed in range(2000 // m + 20):
            for k in {1, 2, m // 2, m, m + 1}:
                rng, ref = random.Random(seed * 1000 + k), random.Random(seed * 1000 + k)
                assert _uniform_distinct(rng, m, k) == _weighted_distinct(ref, [1.0] * m, k), (seed, k)
                assert rng.getstate() == ref.getstate(), (seed, k)

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 64, 256])
    def test_uniform_pick_at_the_edges_of_each_step(self, m):
        # r = random() * len(pool) at 0, on a step between two picks, just
        # above one, and at the largest value random() returns.
        top = 1 - 2.0**-53
        for u in (u for u in (0.0, 0.5, 1 / m, 1 / m + 2.0**-52, (m - 1) / m, top) if u < 1):
            values = [u] * m
            assert _uniform_distinct(_Draws(values), m, m) == _weighted_distinct(_Draws(values), [1.0] * m, m), u

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 40), st.integers(0, 60), st.integers(1, 6), st.integers(0, 4),
        st.floats(0.0, 1.0), st.integers(0, 2**32),
    )
    def test_workload_equals_the_scan_path(self, objects, txns, lo, extra, write_probability, seed):
        spec = WorkloadSpec(objects, txns, (lo, lo + extra), write_probability, 0.0, seed)
        fast = workload_transactions(spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenario, "randint_draws", lambda rng, lo, hi: lambda: rng.randint(lo, hi))
            mp.setattr(scenario, "_uniform_distinct", lambda rng, m, k: _weighted_distinct(rng, [1.0] * m, k))
            assert fast == workload_transactions(spec)


@st.composite
def workload_specs(draw):
    """WorkloadSpecs with and without skew, access sets up to m + 1 objects
    (more than there are) and write probabilities 0 and 1 among others."""
    m = draw(st.integers(1, 12))
    lo = draw(st.integers(1, m + 1))
    hi = draw(st.integers(lo, m + 1))
    write_probability = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    skew = draw(st.one_of(st.just(0.0), st.floats(0.1, 3.0)))
    return WorkloadSpec(m, draw(st.integers(0, 40)), (lo, hi), write_probability, skew, draw(st.integers(0, 2**32)))


class TestGeneratorOracle:
    """workload_transactions must give what its first form (conftest's
    workload_transactions_oracle) gave, transaction for transaction."""

    @settings(max_examples=150, deadline=None)
    @given(workload_specs())
    def test_workload_equals_the_oracle(self, spec):
        assert workload_transactions(spec) == workload_transactions_oracle(spec)


@pytest.mark.parametrize("case, error", [
    (lambda c, t: cli_error(c, "check", "fig3", "9:0"), "object index 9 out of range"),
    (lambda c, t: cli_error(c, "check", "fig3", "w:0"), "unknown object 'w'"),
    (lambda c, t: file_error(c, t, {"objects": 2, "object_names": ["a", "a"]}, "analyze", "{file}"),
     "in.object_names: names must be unique"),
    (lambda c, t: file_error(c, t, {"objects": 1, "checkpoints": {"3": [0]}}, "analyze", "{file}"),
     "in.checkpoints: object index 3 out of range"),
    (lambda c, t: file_error(c, t, {"objects": 1, "checkpoints": {"w": [0]}}, "analyze", "{file}"),
     "in.checkpoints: unknown object 'w'"),
    *((lambda c, t, key=key: file_error(c, t, {"objects": 2, "checkpoints": {key: [0]}}, "analyze", "{file}"),
       f"in.checkpoints: unknown object {key!r}") for key in ("+1", " 1", "\u0663", "0_1")),
    (lambda c, t: file_error(c, t, {"objects": 2, "checkpoints": {"-1": [0]}}, "analyze", "{file}"),
     "in.checkpoints: object index -1 out of range"),
    (lambda c, t: file_error(c, t, {"objects": 2, "object_names": ["x", "y"],
                                    "checkpoints": {"y": [1, 2], "1": [0]}}, "analyze", "{file}"),
     "in.checkpoints: object '1' appears twice"),
    (lambda c, t: file_error(c, t, {"objects": 1, "checkpoints": [0]}, "analyze", "{file}"),
     "in.checkpoints: expected a mapping"),
    (lambda c, t: file_error(c, t, [1], "analyze", "{file}"), "{file}: expected a JSON object"),
    (lambda c, t: cli_error(c, "simulate", "--txns", "-1"), "num_txns must be non-negative"),
    (lambda c, t: file_error(c, t, [1], "simulate", "--workload", "{file}"), "in: expected an object"),
    (lambda c, t: file_error(c, t, {"num_objects": 2, "num_txns": 1, "access_skew": 10**400},
                             "simulate", "--workload", "{file}"),
     "in.access_skew: out of the float range"),
    (lambda c, t: file_error(c, t, {"num_objects": 2, "num_txns": 1, "ops_per_txn": [1, 2, 3]},
                             "simulate", "--workload", "{file}"),
     "in.ops_per_txn: expected [lo, hi]"),
], ids=["object-index", "object-name", "duplicate-names", "checkpoint-key", "checkpoint-name",
        "key-plus", "key-space", "key-arabic-indic", "key-underscore", "key-negative",
        "checkpoint-key-twice", "checkpoints-not-a-mapping", "scenario-not-an-object",
        "negative-txns", "workload-not-an-object", "float-overflow", "ops-not-a-pair"])
def test_scenario_input_checks(capsys, tmp_path, case, error):
    assert case(capsys, tmp_path) == error.format(file=tmp_path / "in.json")
