from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txckpt.dependence import AnalysisError, Checkpoint, ExecutionAnalysis
from txckpt.model import LocalState
from txckpt.protocol import CheckpointRecord, verify_protocol_guarantees
from txckpt.theory import (
    ConditionViolated,
    OracleBoundExceeded,
    assemble_indexed_gc,
    enumerate_consistent_globals,
    extend_to_global,
    is_consistent_global_state,
    theorem_condition,
)

from txckpt.protocol import trace_pattern
from txckpt.scenario import WorkloadSpec
from txckpt.sim import SimConfig, run_simulation

from conftest import (
    analyses,
    analysis_for,
    consistent_oracle,
    executions,
    make_execution,
    recovery_line_check,
    recovery_line_violations,
    scenario_analysis,
    version_vector,
)


class TestConsistency:
    def test_fig1a_consistent_states(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        x, y, z = (fig1a.object_index(n) for n in "xyz")
        for states in ({x: 0, y: 0, z: 0}, {x: 0, y: 1, z: 1}, {x: 1, y: 1, z: 1}):
            assert is_consistent_global_state(states, base)

    def test_fig1a_inconsistent_state(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        x, y, z = (fig1a.object_index(n) for n in "xyz")
        assert not is_consistent_global_state({x: 1, y: 0, z: 1}, base)

    def test_all_initials_always_consistent(self, fig3):
        base = ExecutionAnalysis(fig3.execution)
        assert is_consistent_global_state({o: 0 for o in range(4)}, base)

    def test_incomplete_state_rejected(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        with pytest.raises(AnalysisError, match="every object"):
            is_consistent_global_state({0: 0}, base)

    def test_unknown_state_rejected(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        with pytest.raises(AnalysisError, match=r"unknown state s\(1,5\)"):
            is_consistent_global_state({0: 0, 1: 5, 2: -1}, base)
        single = ExecutionAnalysis(make_execution(1, [(0, [], [0])]))
        with pytest.raises(AnalysisError, match="unknown state"):
            is_consistent_global_state({0: 2}, single)

    @settings(max_examples=150)
    @given(executions(max_objects=4, max_txns=8), st.randoms(use_true_random=False))
    def test_matches_pairwise_oracle(self, execution, rng):
        base = ExecutionAnalysis(execution)
        top = [base.timeline.max_version(o) for o in range(execution.num_objects)]
        for _ in range(10):
            states = {o: rng.randint(0, t) for o, t in enumerate(top)}
            assert is_consistent_global_state(states, base) == consistent_oracle(states, base)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_pairwise_oracle_on_simulated_traces(self, seed):
        spec = WorkloadSpec(6, 80, ops_per_txn=(1, 4), write_probability=0.6, seed=seed)
        trace = run_simulation(spec, SimConfig(seed=seed, num_objects=6, timer_period=8))
        base, analysis = trace_pattern(trace)
        rng = random.Random(seed)
        outcomes = []
        for n in range(max(r.index for r in trace.checkpoint_log) + 1):
            # Each assembly verify checks, then the same with one member moved.
            gc = assemble_indexed_gc(n, trace.checkpoint_log, analysis)
            if gc is None:
                continue
            moved = dict(gc.states())
            obj = rng.randrange(len(moved))
            moved[obj] = rng.randint(0, base.timeline.max_version(obj))
            for states in (gc.states(), moved):
                outcomes.append(is_consistent_global_state(states, base))
                assert outcomes[-1] == consistent_oracle(states, base)
        assert len(outcomes) > 20 and any(outcomes) and not all(outcomes)


class TestTheoremCondition:
    def test_fig3_hidden_pair_rejected(self, fig3):
        analysis = scenario_analysis(fig3)
        u, x = fig3.object_index("u"), fig3.object_index("x")
        assert not theorem_condition({u: 0, x: 1}, analysis)

    def test_fig3_single_member_accepted(self, fig3):
        analysis = scenario_analysis(fig3)
        assert theorem_condition({fig3.object_index("u"): 0}, analysis)

    def test_initial_singleton_accepted(self, fig1a):
        analysis = scenario_analysis(fig1a)
        for obj in range(3):
            assert theorem_condition({obj: 0}, analysis)

    def test_empty_candidate_rejected(self, fig1a):
        with pytest.raises(AnalysisError, match="at least one"):
            theorem_condition({}, scenario_analysis(fig1a))

    def test_unknown_rank_rejected(self, fig1a):
        with pytest.raises(AnalysisError):
            theorem_condition({0: 7}, scenario_analysis(fig1a))


class TestExtension:
    def test_fig3_causal_pair_violation_carries_witness(self, fig3):
        analysis = scenario_analysis(fig3)
        u, y = fig3.object_index("u"), fig3.object_index("y")
        with pytest.raises(ConditionViolated) as exc:
            extend_to_global({u: 0, y: 1}, analysis)
        witness = exc.value.witness
        assert witness
        assert witness[0].source.obj == u
        assert witness[-1].target.obj == y

    def test_fig3_extends_late_checkpoint(self, fig3):
        analysis = scenario_analysis(fig3)
        u, z, y, x = (fig3.object_index(n) for n in "uzyx")
        result = extend_to_global({x: 1}, analysis)
        gc = result.global_checkpoint
        assert gc.members[x].state.version == 2
        assert gc.members[z].rank == 1 and gc.members[z].state.version == 4
        assert is_consistent_global_state(gc.states(), analysis.base)
        assert result.min_safe_ranks[z][x] == 1

    def test_all_initials_extend_to_themselves(self, fig3):
        analysis = scenario_analysis(fig3)
        result = extend_to_global({obj: 0 for obj in range(4)}, analysis)
        assert result.global_checkpoint.rank_vector() == (0, 0, 0, 0)

    @settings(max_examples=100, deadline=None)
    @given(analyses())
    def test_agreement_with_enumeration_and_valid_construction(self, analysis):
        globals_ = enumerate_consistent_globals(analysis)
        num_objects = analysis.pattern.num_objects
        singles = [
            (obj, rank) for obj in range(num_objects) for rank in analysis.pattern.ranks(obj)
        ]
        candidates = [dict([s]) for s in singles]
        candidates += [
            {a[0]: a[1], b[0]: b[1]}
            for a, b in itertools.combinations(singles, 2)
            if a[0] != b[0]
        ]
        for candidate in candidates:
            holds = theorem_condition(candidate, analysis)
            extendable = any(gc.contains(candidate) for gc in globals_)
            assert holds == extendable
            if holds:
                result = extend_to_global(candidate, analysis)
                assert result.global_checkpoint.contains(candidate)
                assert is_consistent_global_state(result.global_checkpoint.states(), analysis.base)


class TestEnumeration:
    def test_fig1a_golden(self, fig1a):
        analysis = scenario_analysis(fig1a)
        got = [version_vector(gc) for gc in enumerate_consistent_globals(analysis)]
        assert got == [(0, 0, 0), (0, 1, 1), (1, 1, 1)]

    def test_fig1b_golden(self, fig1b):
        analysis = scenario_analysis(fig1b)
        got = [version_vector(gc) for gc in enumerate_consistent_globals(analysis)]
        assert got == [(0, 0, 0), (1, 0, 0), (1, 1, 1)]

    def test_no_transactions_single_initial(self):
        analysis = analysis_for(make_execution(2, []))
        got = enumerate_consistent_globals(analysis)
        assert len(got) == 1 and version_vector(got[0]) == (0, 0)

    def test_bound_enforced(self, fig1a):
        with pytest.raises(OracleBoundExceeded):
            enumerate_consistent_globals(scenario_analysis(fig1a), bound=4)

    @settings(max_examples=60, deadline=None)
    @given(analyses())
    def test_all_initial_always_enumerated(self, analysis):
        globals_ = enumerate_consistent_globals(analysis)
        assert any(all(r == 0 for r in gc.rank_vector()) for gc in globals_)


class TestRecoveryLine:
    def test_fig1a_consistent_line_with_in_transit_edges(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        x, y, z = (fig1a.object_index(n) for n in "xyz")
        assert recovery_line_check({x: 0, y: 1, z: 1}, base)

    def test_fig1a_crossed_line(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        x, y, z = (fig1a.object_index(n) for n in "xyz")
        violations = recovery_line_violations({x: 1, y: 0, z: 1}, base)
        assert violations
        crossing = {(e.source, e.target) for e in violations}
        assert any(src.obj == y and src.version == 0 for src, _ in crossing)

    def test_no_transactions_all_initial_line(self):
        base = ExecutionAnalysis(make_execution(2, []))
        assert recovery_line_check({0: 0, 1: 0}, base)

    @settings(max_examples=100, deadline=None)
    @given(analyses(max_objects=3, max_txns=5))
    def test_agrees_with_consistency_on_every_complete_line(self, analysis):
        base = analysis.base
        rank_ranges = [analysis.pattern.ranks(obj) for obj in range(analysis.pattern.num_objects)]
        for ranks in itertools.product(*rank_ranges):
            line = {
                obj: analysis.pattern.version_of(obj, rank) for obj, rank in enumerate(ranks)
            }
            assert recovery_line_check(line, base) == is_consistent_global_state(line, base)


def record(obj, index, version):
    return CheckpointRecord(obj, index, "basic", version, 0)


class TestIndexedAssembly:
    def test_all_index_zero_gives_initials(self, fig1a):
        analysis = scenario_analysis(fig1a)
        log = [record(obj, 0, 0) for obj in range(3)]
        gc = assemble_indexed_gc(0, log, analysis)
        assert gc is not None and version_vector(gc) == (0, 0, 0)

    def test_gap_filled_with_next_greater_index(self, fig1a):
        analysis = scenario_analysis(fig1a)
        log = [record(0, 0, 0), record(0, 3, 1), record(1, 1, 1), record(2, 1, 1)]
        gc = assemble_indexed_gc(1, log, analysis)
        assert gc is not None
        assert gc.members[0].state.version == 1  # picked index 3 for object 0

    def test_missing_when_no_index_at_or_above(self, fig1a):
        analysis = scenario_analysis(fig1a)
        log = [record(obj, 0, 0) for obj in range(3)]
        assert assemble_indexed_gc(1, log, analysis) is None


class TestGlobalCheckpointContains:
    def test_object_outside_the_range_is_not_contained(self, fig3):
        analysis = scenario_analysis(fig3)
        m = analysis.pattern.num_objects
        gc = extend_to_global({obj: 0 for obj in range(m)}, analysis).global_checkpoint
        assert gc.contains({m - 1: 0})
        # Object -1 is not the last object, and object m is not an object.
        assert not gc.contains({-1: 0})
        assert not gc.contains({m: 0})
        assert not gc.contains({0: 0, m: 0})


class TestQueriesReadTheTable:
    def test_queries_build_no_checkpoints_or_states(self, monkeypatch):
        spec = WorkloadSpec(6, 80, ops_per_txn=(1, 4), write_probability=0.6, seed=1)
        trace = run_simulation(spec, SimConfig(seed=1, num_objects=6, timer_period=8))
        base, analysis = trace_pattern(trace)
        log = trace.checkpoint_log
        built = {Checkpoint: 0, LocalState: 0}
        for cls in built:

            def counted(self, *args, _init=cls.__init__, _cls=cls):
                built[_cls] += 1
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)

        assemblies = [
            gc
            for n in range(max(r.index for r in log) + 1)
            if (gc := assemble_indexed_gc(n, log, analysis)) is not None
        ]
        extended = 0
        for gc in assemblies:
            assert is_consistent_global_state(gc.states(), base)
            candidate = {obj: gc.members[obj].rank for obj in (0, 2, 5)}
            assert theorem_condition(candidate, analysis)
            result = extend_to_global(candidate, analysis)
            extended += result.global_checkpoint.contains(candidate)
        assert len(assemblies) > 5 and extended == len(assemblies)
        assert built == {Checkpoint: 0, LocalState: 0}

        # verify builds one table, and no checkpoint or state beyond it.
        verify_protocol_guarantees(trace)
        table_size = sum(len(vs) for vs in analysis.pattern.versions)
        assert built == {Checkpoint: table_size, LocalState: table_size}
