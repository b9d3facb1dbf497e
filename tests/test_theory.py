from __future__ import annotations

import hashlib
import itertools
import pickle
import random
from collections import Counter
from types import MappingProxyType

import pytest
from hypothesis import given, settings

from txckpt.dependence import AnalysisError, Checkpoint, CheckpointAnalysis, ExecutionAnalysis
from txckpt.model import LocalState
from txckpt.protocol import CheckpointRecord, verify_protocol_guarantees
from txckpt.theory import (
    ConditionViolated,
    GlobalCheckpoint,
    OracleBoundExceeded,
    assemble_indexed_gc,
    enumerate_consistent_globals,
    extend_to_global,
    is_consistent_global_state,
    theorem_condition,
)

from txckpt.protocol import trace_pattern
from txckpt.scenario import WorkloadSpec, resolve_object
from txckpt.sim import SimConfig, run_simulation

from conftest import (
    analyses,
    analysis_for,
    consistent_oracle,
    executions,
    extension_oracle,
    make_execution,
    raised,
    recovery_line_check,
    recovery_line_violations,
    scenario_analysis,
    stored_safe_rows,
    version_vector,
)


class TestConsistency:
    def test_fig1a_consistent_states(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        x, y, z = (resolve_object(n, fig1a.object_names) for n in "xyz")
        for states in ({x: 0, y: 0, z: 0}, {x: 0, y: 1, z: 1}, {x: 1, y: 1, z: 1}):
            assert is_consistent_global_state(states, base)

    def test_fig1a_inconsistent_state(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        x, y, z = (resolve_object(n, fig1a.object_names) for n in "xyz")
        assert not is_consistent_global_state({x: 1, y: 0, z: 1}, base)

    def test_all_initials_always_consistent(self, fig3):
        base = ExecutionAnalysis(fig3.execution)
        assert is_consistent_global_state({o: 0 for o in range(4)}, base)

    def test_incomplete_state_rejected(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        with pytest.raises(AnalysisError, match="every object"):
            is_consistent_global_state({0: 0}, base)

    @pytest.mark.parametrize(
        "states",
        [{0: 9}, {0: 0, 1: 0, 2: 0, 3: 0}, {0: 0, 1: -1, 2: 0, 3: 0}, {0: 0, 1: 0, 3: 0}],
        ids=["missing", "extra", "extra-and-unknown", "renamed"],
    )
    def test_object_set_checked_before_any_version(self, fig1a, states):
        base = ExecutionAnalysis(fig1a.execution)
        error = "global state must name every object exactly once"
        assert raised(AnalysisError, is_consistent_global_state, states, base) == error

    def test_unknown_state_rejected(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        with pytest.raises(AnalysisError, match=r"unknown state s\(1,5\)"):
            is_consistent_global_state({0: 0, 1: 5, 2: -1}, base)
        single = ExecutionAnalysis(make_execution(1, [(0, [], [0])]))
        with pytest.raises(AnalysisError, match="unknown state"):
            is_consistent_global_state({0: 2}, single)

    def test_first_unknown_state_in_object_order_is_named(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        states = {2: -1, 1: 5, 0: 0}  # mapping order is not object order
        assert raised(AnalysisError, is_consistent_global_state, states, base) == "unknown state s(1,5)"

    def test_negative_version_is_unknown(self, fig3):
        # Not read as a position counted from the end of the object's writers.
        base = ExecutionAnalysis(fig3.execution)
        m = base.execution.num_objects
        states = {obj: 0 for obj in range(m)} | {m - 1: -1}
        assert raised(AnalysisError, is_consistent_global_state, states, base) == f"unknown state s({m - 1},-1)"

    @pytest.mark.parametrize("version", [1.0, 0.0, "1", None, 0.5], ids=["1.0", "0.0", "str", "None", "0.5"])
    @pytest.mark.parametrize("reader", ["is_consistent_global_state", "happened_before"])
    def test_version_not_an_int_is_unknown(self, fig1a, reader, version):
        # Object 0 of fig1a has one writer; object 0 of `bare` has none, so
        # no writer position is indexed by its version.
        bare = ExecutionAnalysis(make_execution(2, [(0, [0], [1])]))
        for base in (ExecutionAnalysis(fig1a.execution), bare):
            if reader == "happened_before":
                error = raised(AnalysisError, base.happened_before, LocalState(1, 0), LocalState(0, version))
            else:
                states = {obj: 0 for obj in base.writer_positions} | {0: version}
                error = raised(AnalysisError, is_consistent_global_state, states, base)
            assert error == f"unknown state {LocalState(0, version)}"

    @pytest.mark.parametrize("obj", [1.0, "1", None], ids=["1.0", "str", "None"])
    def test_object_not_an_int_is_unknown(self, fig1a, obj):
        # 1.0 equals object 1 and hashes as it does, yet names no object.
        base = ExecutionAnalysis(fig1a.execution)
        for pair in ((LocalState(obj, 0), LocalState(0, 1)), (LocalState(0, 0), LocalState(obj, 0))):
            assert raised(AnalysisError, base.happened_before, *pair) == f"unknown state {LocalState(obj, 0)}"
        error = raised(AnalysisError, is_consistent_global_state, {0: 1, obj: 0, 2: 0}, base)
        if obj == 1:  # the key set is fig1a's
            assert error == f"unknown state {LocalState(obj, 0)}"
        else:
            assert error == "global state must name every object exactly once"
        if obj == "1":  # prints apart from object 1
            out_of_range = [raised(AnalysisError, base.happened_before, LocalState(o, 9), LocalState(0, 0))
                            for o in (obj, 1)]
            assert out_of_range[0] != out_of_range[1]

    def test_bool_version_is_an_int(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        for flag in (False, True):
            assert is_consistent_global_state({0: flag, 1: 0, 2: 0}, base) == is_consistent_global_state(
                {0: int(flag), 1: 0, 2: 0}, base
            )
            for other in (LocalState(1, 0), LocalState(1, 1)):
                assert base.happened_before(other, LocalState(0, flag)) == base.happened_before(
                    other, LocalState(0, int(flag))
                )
                assert base.happened_before(LocalState(0, flag), other) == base.happened_before(
                    LocalState(0, int(flag)), other
                )

    def test_read_only_mapping_accepted(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        x, y, z = (resolve_object(n, fig1a.object_names) for n in "xyz")
        assert is_consistent_global_state(MappingProxyType({x: 1, y: 1, z: 1}), base)
        assert not is_consistent_global_state(MappingProxyType({x: 1, y: 0, z: 1}), base)

    def test_writer_positions_built_on_first_use(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        assert "writer_positions" not in base.__dict__
        assert is_consistent_global_state({0: 0, 1: 0, 2: 0}, base)
        position = {txn: pos for pos, txn in enumerate(base.execution.commit_order)}
        assert base.__dict__["writer_positions"] == {
            obj: tuple(position[txn] for txn in on_obj) for obj, on_obj in enumerate(base.timeline.writers)
        }

    @settings(max_examples=150, deadline=None)
    @given(executions(max_objects=4, max_txns=8))
    def test_matches_pairwise_oracle(self, execution):
        base = ExecutionAnalysis(execution)
        versions = [range(base.timeline.max_version(o) + 1) for o in range(execution.num_objects)]
        for vector in itertools.product(*versions):
            states = dict(enumerate(vector))
            assert is_consistent_global_state(states, base) == consistent_oracle(states, base)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_pairwise_oracle_on_simulated_traces(self, seed):
        spec = WorkloadSpec(6, 80, ops_per_txn=(1, 4), write_probability=0.6, seed=seed)
        trace = run_simulation(spec, SimConfig(seed=seed, num_objects=6, timer_period=8))
        base, analysis = trace_pattern(trace)
        outcomes = []
        for n in range(max(r.index for r in trace.checkpoint_log) + 1):
            # Each assembly verify checks, with each member moved to each of
            # its object's versions (its own among them).
            gc = assemble_indexed_gc(n, trace.checkpoint_log, analysis)
            if gc is None:
                continue
            for obj in range(len(gc.members)):
                for version in range(base.timeline.max_version(obj) + 1):
                    states = gc.states() | {obj: version}
                    outcomes.append(is_consistent_global_state(states, base))
                    assert outcomes[-1] == consistent_oracle(states, base)
        assert len(outcomes) > 20 and any(outcomes) and not all(outcomes)


class TestTheoremCondition:
    def test_fig3_hidden_pair_rejected(self, fig3):
        analysis = scenario_analysis(fig3)
        u, x = resolve_object("u", fig3.object_names), resolve_object("x", fig3.object_names)
        assert not theorem_condition({u: 0, x: 1}, analysis)

    def test_fig3_single_member_accepted(self, fig3):
        analysis = scenario_analysis(fig3)
        assert theorem_condition({resolve_object("u", fig3.object_names): 0}, analysis)

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

    @pytest.mark.parametrize("query", [theorem_condition, extend_to_global])
    @pytest.mark.parametrize("alone", [True, False])
    def test_object_outside_the_range_rejected(self, fig3, query, alone):
        # Object -1 is not object m-1 counted from the end, object m is not
        # an object, and neither is anything but an int, whatever the other
        # members; nor is rank 1.0 a rank.
        analysis = scenario_analysis(fig3)
        m = analysis.pattern.num_objects
        for obj in (-1, m, 1.0, "1", None):
            candidate = {obj: 0} if alone else {0: 0, obj: 0}
            assert raised(AnalysisError, query, candidate, analysis) == f"unknown object {obj!r}"
        candidate = {1: 1.0} if alone else {0: 0, 1: 1.0}
        assert raised(AnalysisError, query, candidate, analysis) == "object 1 has no checkpoint of rank 1.0"


class TestExtension:
    def test_fig3_causal_pair_violation_carries_witness(self, fig3):
        analysis = scenario_analysis(fig3)
        u, y = resolve_object("u", fig3.object_names), resolve_object("y", fig3.object_names)
        with pytest.raises(ConditionViolated) as exc:
            extend_to_global({u: 0, y: 1}, analysis)
        witness = exc.value.witness
        assert witness
        assert witness[0].source.obj == u
        assert witness[-1].target.obj == y

    def test_violation_args_text_and_pickle(self, fig3):
        # The args are the source, target and witness; the text is built
        # when read, and a pickled copy carries all four.
        analysis = scenario_analysis(fig3)
        u, y = resolve_object("u", fig3.object_names), resolve_object("y", fig3.object_names)
        with pytest.raises(ConditionViolated) as info:
            extend_to_global({u: 0, y: 1}, analysis)
        exc = info.value
        assert exc.args == (exc.source, exc.target, exc.witness)
        assert (exc.source, exc.target) == (analysis.checkpoint(u, 0), analysis.checkpoint(y, 1))
        assert str(exc) == "dependence path from C(0,#0=v0) to C(2,#1=v2)"
        copy = pickle.loads(pickle.dumps(exc))
        assert (copy.source, copy.target, copy.witness) == (exc.source, exc.target, exc.witness)
        assert copy.args == exc.args and str(copy) == str(exc)

    def test_fig3_extends_late_checkpoint(self, fig3):
        analysis = scenario_analysis(fig3)
        u, z, y, x = (resolve_object(n, fig3.object_names) for n in "uzyx")
        result = extend_to_global({x: 1}, analysis)
        gc = result.global_checkpoint
        assert gc.members[x].version == 2
        assert gc.members[z].rank == 1 and gc.members[z].version == 4
        assert is_consistent_global_state(gc.states(), analysis.base)
        assert analysis.min_safe_ranks(gc.members[x])[z] == 1

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


def extension_outcome(extend, candidate, analysis):
    try:
        return extend(candidate, analysis)
    except ConditionViolated as exc:
        return exc.source, exc.target, exc.witness


def sampled_candidates(analysis, count, seed):
    """Candidates of 1-4 members with random ranks (the condition often
    fails), and as many taken from the extension of one of their members
    (it holds, unless that member has a path to itself)."""
    rng = random.Random(seed)
    m = analysis.pattern.num_objects
    out = []
    for _ in range(count // 2):
        objs = rng.sample(range(m), rng.randint(1, min(4, m)))
        candidate = {o: rng.randrange(len(analysis.pattern.versions[o])) for o in objs}
        out.append(candidate)
        extended = extension_outcome(extend_to_global, {objs[0]: candidate[objs[0]]}, analysis)
        if not isinstance(extended, tuple):
            out.append({o: extended.global_checkpoint.members[o].rank for o in objs})
    return out


class TestExtensionMatchesPairwiseLoop:
    """extend_to_global asks min_safe_ranks once per member; extension_oracle
    keeps the per-pair loop it replaces."""

    @staticmethod
    def assert_matches(analysis, candidates):
        held = violated = 0
        for candidate in candidates:
            got = extension_outcome(extend_to_global, candidate, analysis)
            try:
                want, _ = extension_oracle(candidate, analysis)
            except ConditionViolated as exc:
                assert got == (exc.source, exc.target, exc.witness)
                violated += 1
            else:
                assert got.global_checkpoint == want
                held += 1
        return held, violated

    @settings(max_examples=100, deadline=None)
    @given(analyses())
    def test_matches_on_every_one_and_two_member_candidate(self, analysis):
        singles = [(obj, rank) for obj in range(analysis.pattern.num_objects) for rank in analysis.pattern.ranks(obj)]
        candidates = [dict([s]) for s in singles]
        candidates += [dict(pair) for pair in itertools.combinations(singles, 2) if pair[0][0] != pair[1][0]]
        self.assert_matches(analysis, candidates)

    @pytest.mark.parametrize("protocol, z", [("A", 1), ("B", 2)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_on_simulated_traces(self, protocol, z, seed):
        spec = WorkloadSpec(6, 60, ops_per_txn=(1, 4), write_probability=0.6, seed=seed)
        config = SimConfig(seed=seed, num_objects=6, protocol=protocol, z_param=z, timer_period=10)
        analysis = trace_pattern(run_simulation(spec, config))[1]
        held, violated = self.assert_matches(analysis, sampled_candidates(analysis, 120, seed))
        assert held > 30 and violated > 10


class TestExtensionFastPath:
    def test_holding_extension_resolves_and_bisects_once_per_member(self, monkeypatch):
        # The query_mix benchmark's trace: 12 objects, 200 transactions.
        spec = WorkloadSpec(12, 200, ops_per_txn=(1, 4), write_probability=0.6, seed=1)
        config = SimConfig(seed=1, num_objects=12, protocol="A", timer_period=20)
        analysis = trace_pattern(run_simulation(spec, config))[1]
        candidates = [c for c in sampled_candidates(analysis, 60, 7) if theorem_condition(c, analysis)]
        calls = {"checkpoint": 0, "min_safe_ranks": 0}
        for name in calls:

            def counted(self, *args, _name=name, _method=getattr(CheckpointAnalysis, name)):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(CheckpointAnalysis, name, counted)
        sizes = set()
        for candidate in candidates:
            for name in calls:
                calls[name] = 0
            extend_to_global(candidate, analysis)
            k = len(candidate)
            sizes.add(k)
            assert calls == {"checkpoint": k, "min_safe_ranks": k}
        assert sizes == {1, 2, 3, 4}


class TestColdExtensionWork:
    def test_cold_extension_builds_its_members_columns_and_rows_only(self):
        # The query_mix benchmark's trace, with a fresh analysis per
        # candidate: a holding extension builds the reach column of each
        # member's object and stores one min_safe_ranks row per member; a
        # violated one stops at its first pair and stores no row.
        spec = WorkloadSpec(12, 200, ops_per_txn=(1, 4), write_probability=0.6, seed=1)
        config = SimConfig(seed=1, num_objects=12, protocol="A", timer_period=20)
        base, shared = trace_pattern(run_simulation(spec, config))
        held = Counter()
        for candidate in sampled_candidates(shared, 60, 7):
            analysis = CheckpointAnalysis(base, shared.pattern)
            holds = not isinstance(extension_outcome(extend_to_global, candidate, analysis), tuple)
            built = {y for y, column in enumerate(analysis._columns) if column is not None}
            if holds:
                assert built == set(candidate)
                assert stored_safe_rows(analysis) == sorted(candidate.items())
            else:
                assert built <= set(candidate) and stored_safe_rows(analysis) == []
            held[holds, len(candidate)] += 1
        assert {k for holds, k in held if holds} == {1, 2, 3, 4} and held[False, 2] > 0


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
        x, y, z = (resolve_object(n, fig1a.object_names) for n in "xyz")
        assert recovery_line_check({x: 0, y: 1, z: 1}, base)

    def test_fig1a_crossed_line(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        x, y, z = (resolve_object(n, fig1a.object_names) for n in "xyz")
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
                obj: analysis.pattern.versions[obj][rank] for obj, rank in enumerate(ranks)
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
        assert gc.members[0].version == 1  # picked index 3 for object 0

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
        # Object -1 is not the last object, object m is not an object, and
        # neither is anything but an int.
        for obj in (-1, m, 1.0, "1", None):
            assert not gc.contains({obj: 0})
            assert not gc.contains({0: 0, obj: 0})


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
        # The first query builds the table, whose checkpoints hold their
        # versions as ints, and no checkpoint or state beyond it.
        table_size = sum(len(vs) for vs in analysis.pattern.versions)
        assert built == {Checkpoint: table_size, LocalState: 0}

        # verify of a clean trace builds no checkpoint or state at all.
        assert verify_protocol_guarantees(trace).ok
        assert built == {Checkpoint: table_size, LocalState: 0}


@pytest.mark.parametrize("objects", [(1, 0), (0, 2)], ids=["swapped", "gap"])
def test_theory_input_checks(objects):
    members = tuple(Checkpoint(obj, 0, 0) for obj in objects)
    assert raised(AnalysisError, GlobalCheckpoint, members) == "global checkpoint members out of object order"


def test_consistency_answers_pinned_at_64x2000():
    # CI's byte-exact protocol A trace, far above the sizes the pairwise
    # oracle can check: every assembly verify checks, and 2,000 random
    # global states, each an assembly with one member moved to a random
    # version, with their answers pinned by one digest.
    spec = WorkloadSpec(64, 2000, ops_per_txn=(1, 4), write_probability=0.6, seed=1)
    trace = run_simulation(spec, SimConfig(seed=1, num_objects=64, timer_period=20))
    base, analysis = trace_pattern(trace)
    assert not any(base.graph.reaches(txn, txn) for txn in base.graph.nodes)
    log = trace.checkpoint_log
    assembled = [
        gc.states() for n in range(max(r.index for r in log) + 1)
        if (gc := assemble_indexed_gc(n, log, analysis)) is not None
    ]
    rng = random.Random(64)
    moved = []
    for _ in range(2000):
        obj = rng.randrange(64)
        moved.append(rng.choice(assembled) | {obj: rng.randint(0, base.timeline.max_version(obj))})
    answers = [
        (tuple(states[obj] for obj in range(64)), is_consistent_global_state(states, base))
        for states in assembled + moved
    ]
    assert len(assembled) == 249 and all(holds for _, holds in answers[:249])
    assert Counter(holds for _, holds in answers) == {False: 1948, True: 301}
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == "bdc8c541162cd347dfd87857c41098f5f2fcfb453d0f24f6a53d8d2b0bf1ed16"
