from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txckpt.dependence import (
    BLACK,
    DASHED,
    AnalysisError,
    Checkpoint,
    CheckpointAnalysis,
    CheckpointPattern,
    DependenceEdge,
    ExecutionAnalysis,
    PatternError,
)
from txckpt import protocol as protocol_module
from txckpt.model import LocalState, assign_versions
from txckpt.protocol import trace_pattern
from txckpt.scenario import WorkloadSpec, builtin_scenario, generate_random, resolve_object
from txckpt.sim import SimConfig, run_simulation

from conftest import (
    all_states,
    analysed_pattern_oracle,
    analyses,
    analysis_for,
    assert_witness_chain,
    bar_oracle,
    build_intervals,
    checkpoint_oracle,
    dp_oracle,
    executions,
    file_error,
    hb_oracle,
    interval_dp_distances,
    interval_dp_reachable,
    make_execution,
    min_safe_rank_oracle,
    raised,
    rank_oracle,
    reach_oracle,
    safe_ranks_oracle,
    scenario_analysis,
    state_intervals,
    stored_safe_rows,
    unclosed_make_oracle,
    version_oracle,
    witness_oracle,
)


def assert_min_safe_ranks_match(analysis):
    """min_safe_ranks against the upward scan for every object, the
    destination's own included."""
    num_objects = analysis.pattern.num_objects
    for dst in all_checkpoints(analysis):
        safe = analysis.min_safe_ranks(dst)
        assert safe == tuple(min_safe_rank_oracle(analysis, obj, dst) for obj in range(num_objects))


def simulated_analysis(objects, txns, seed, **config):
    spec = WorkloadSpec(objects, txns, ops_per_txn=(1, 4), write_probability=0.6, seed=seed)
    return trace_pattern(run_simulation(spec, SimConfig(seed=seed, num_objects=objects, **config)))[1]


def all_checkpoints(analysis):
    return [analysis.checkpoint(o, r) for o in range(analysis.pattern.num_objects) for r in analysis.pattern.ranks(o)]


def edge_pairs(base):
    return {(e.source, e.target) for e in base.edges}


class TestValueTypes:
    """LocalState and DependenceEdge are NamedTuples: their reprs are as
    before, they order and hash by field order, compare equal to plain
    tuples of their fields, and take no assignment."""

    def test_reprs(self):
        assert repr(LocalState(0, 1)) == "s(0,1)"
        edge = DependenceEdge(LocalState(0, 1), LocalState(1, 2), BLACK, (3, 4))
        assert repr(edge) == "DependenceEdge(source=s(0,1), target=s(1,2), kind='black', via=(3, 4))"

    def test_order_and_hash_follow_field_order(self):
        states = [LocalState(obj, version) for obj in range(3) for version in range(3)]
        assert sorted(random.Random(0).sample(states, len(states))) == states
        for state in states:
            assert state == (state.obj, state.version) and hash(state) == hash((state.obj, state.version))
        edges = list(simulated_analysis(4, 30, 1, protocol="A", timer_period=5).base.edges)
        fields = lambda e: (e.source, e.target, e.kind, e.via)
        assert sorted(random.Random(1).sample(edges, len(edges))) == sorted(edges, key=fields)
        for edge in edges:
            assert edge == fields(edge) and hash(edge) == hash(fields(edge))

    def test_no_assignment(self):
        state = LocalState(0, 1)
        edge = DependenceEdge(state, LocalState(1, 2), DASHED, (3, 4))
        for value, name in [(state, "obj"), (state, "version"), (state, "other"), (edge, "kind"), (edge, "other")]:
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
        assert state == (0, 1) and edge == (state, (1, 2), DASHED, (3, 4))


class TestHappenedBefore:
    def test_fig1a_serialization_precedence(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        x, y = resolve_object("x", fig1a.object_names), resolve_object("y", fig1a.object_names)
        assert base.happened_before(LocalState(y, 0), LocalState(x, 1))

    def test_fig3_causal_pair(self, fig3):
        base = ExecutionAnalysis(fig3.execution)
        u, y = resolve_object("u", fig3.object_names), resolve_object("y", fig3.object_names)
        assert base.happened_before(LocalState(u, 0), LocalState(y, 2))

    def test_fig3_unrelated_pair(self, fig3):
        base = ExecutionAnalysis(fig3.execution)
        u, x = resolve_object("u", fig3.object_names), resolve_object("x", fig3.object_names)
        assert not base.happened_before(LocalState(u, 0), LocalState(x, 2))
        assert not base.happened_before(LocalState(x, 2), LocalState(u, 0))

    def test_irreflexive(self, fig3):
        base = ExecutionAnalysis(fig3.execution)
        for state in all_states(base.timeline):
            assert not base.happened_before(state, state)

    def test_unknown_state_rejected(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        with pytest.raises(AnalysisError, match="unknown state"):
            base.happened_before(LocalState(0, 5), LocalState(0, 0))
        m, last = base.execution.num_objects, base.timeline.max_version(0)
        known = LocalState(0, 0)
        unknown = [LocalState(-1, 0), LocalState(m, 0), LocalState(0, -1), LocalState(0, last + 1)]
        for bad in unknown:
            error = f"unknown state {bad}"
            assert raised(AnalysisError, base.happened_before, bad, known) == error
            assert raised(AnalysisError, base.happened_before, known, bad) == error
            # a is checked first, so it is the one named when both are unknown.
            for other in unknown:
                assert raised(AnalysisError, base.happened_before, bad, other) == error

    @settings(max_examples=100)
    @given(executions())
    def test_matches_reachability_oracle(self, execution):
        base = ExecutionAnalysis(execution)
        states = all_states(base.timeline)
        for a in states:
            for b in states:
                assert base.happened_before(a, b) == hb_oracle(execution, a, b)


class TestDependenceEdges:
    def test_fig1a_black_edges_of_writer(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        y, z = resolve_object("y", fig1a.object_names), resolve_object("z", fig1a.object_names)
        blacks = {(e.source, e.target) for e in base.edges if e.via == (1, 1)}
        assert blacks == {
            (LocalState(y, 0), LocalState(y, 1)),
            (LocalState(z, 0), LocalState(z, 1)),
            (LocalState(y, 0), LocalState(z, 1)),
            (LocalState(z, 0), LocalState(y, 1)),
        }

    def test_fig1a_dashed_edges(self, fig1a):
        base = ExecutionAnalysis(fig1a.execution)
        x, y, z = (resolve_object(n, fig1a.object_names) for n in "xyz")
        dashed = {(e.source, e.target) for e in base.edges if e.kind == DASHED}
        assert dashed == {
            (LocalState(y, 0), LocalState(x, 1)),
            (LocalState(z, 0), LocalState(x, 1)),
        }

    def test_read_only_transaction_emits_nothing(self):
        execution = make_execution(2, [(0, [0, 1], [])])
        assert ExecutionAnalysis(execution).edges == ()

    def test_closure_carries_through_read_only_transaction(self):
        # writer -> reader -> overwriter: the ends are serialization-ordered
        # even though the middle transaction writes nothing.
        execution = make_execution(
            3, [(0, [], [0]), (1, [0, 1], []), (2, [], [1, 2])]
        )
        base = ExecutionAnalysis(execution)
        assert (LocalState(0, 0), LocalState(2, 1)) in edge_pairs(base)
        assert (LocalState(0, 0), LocalState(1, 1)) in edge_pairs(base)

    @settings(max_examples=100)
    @given(executions())
    def test_black_edge_count_is_write_set_squared(self, execution):
        base = ExecutionAnalysis(execution)
        per_txn = {t.id: 0 for t in execution.transactions}
        for e in base.edges:
            if e.kind == BLACK:
                assert e.via[0] == e.via[1]
                per_txn[e.via[0]] += 1
        for t in execution.transactions:
            assert per_txn[t.id] == len(t.write_set) ** 2

    @settings(max_examples=100)
    @given(executions())
    def test_edges_are_exactly_the_happened_before_pairs(self, execution):
        base = ExecutionAnalysis(execution)
        pairs = edge_pairs(base)
        states = all_states(base.timeline)
        for a in states:
            for b in states:
                assert ((a, b) in pairs) == base.happened_before(a, b)

    @settings(max_examples=100)
    @given(executions())
    def test_edges_read_off_the_writers(self, execution):
        # via[0] replaces the source and via[1] produced the target; an edge
        # is black exactly when one writer does both.  Edges come in strictly
        # increasing (source, target) order.
        base = ExecutionAnalysis(execution)
        writers = base.timeline.writers
        for e in base.edges:
            assert writers[e.source.obj][e.source.version] == e.via[0]
            assert e.target.version >= 1 and writers[e.target.obj][e.target.version - 1] == e.via[1]
            assert (e.kind == BLACK) == (e.via[0] == e.via[1])
        endpoints = [(e.source, e.target) for e in base.edges]
        assert all(p < q for p, q in zip(endpoints, endpoints[1:]))

    @settings(max_examples=60)
    @given(executions())
    def test_dashed_edges_respect_serialization_closure(self, execution):
        base = ExecutionAnalysis(execution)
        for e in base.edges:
            if e.kind == DASHED:
                assert base.graph.reaches(*e.via)
            assert e.target.version >= 1


class TestIntervals:
    def test_fig3_first_z_interval_has_four_states(self, fig3):
        timeline = assign_versions(fig3.execution)
        assignment = build_intervals(fig3.pattern, timeline)
        z = resolve_object("z", fig3.object_names)
        members = [s for s, iv in assignment.items() if s.obj == z and iv.rank == 0]
        assert sorted(s.version for s in members) == [0, 1, 2, 3]

    def test_trailing_interval_absorbs_tail(self):
        # make adds the last version, so the last listed checkpoint's interval
        # absorbs every state before it, and the last version is one alone.
        execution = make_execution(1, [(0, [], [0]), (1, [], [0])])
        timeline = assign_versions(execution)
        pattern = CheckpointPattern.make({0: [0]}, timeline)
        assert pattern.versions == ((0, 2),)
        assignment = build_intervals(pattern, timeline)
        assert {s.version: iv.rank for s, iv in assignment.items()} == {0: 0, 1: 0, 2: 1}

    def test_all_states_checkpointed_gives_singletons(self):
        execution = make_execution(1, [(0, [], [0]), (1, [], [0])])
        timeline = assign_versions(execution)
        pattern = CheckpointPattern.make({0: [0, 1, 2]}, timeline)
        assignment = build_intervals(pattern, timeline)
        assert all(iv.start == iv.end == s.version for s, iv in assignment.items())

    @settings(max_examples=80)
    @given(analyses())
    def test_intervals_partition_states(self, analysis):
        timeline = analysis.base.timeline
        for obj in range(timeline.num_objects):
            ranks = [state_intervals(analysis)[s].rank for s in all_states(timeline) if s.obj == obj]
            assert ranks == sorted(ranks)
            # contiguous coverage, one interval per checkpoint
            assert set(ranks) == set(analysis.pattern.ranks(obj))

    def test_final_state_closure_keeps_existing_ranks(self):
        execution = make_execution(1, [(0, [], [0]), (1, [], [0])])
        analysis = analysis_for(execution, {0: [0, 1]})
        assert analysis.pattern.versions[0] == (0, 1, 2)
        assert analysis.checkpoint(0, 1).version == 1


def outcome(call):
    """The call's result, or the type and text of the error it raises."""
    try:
        return call()
    except (AnalysisError, IndexError) as exc:
        return type(exc), str(exc)


def pattern_outcome(call):
    """The call's result, or the text of the PatternError it raises."""
    try:
        return call()
    except PatternError as exc:
        return str(exc)


def assert_table_matches_oracle(analysis):
    pattern = analysis.pattern
    m = pattern.num_objects
    for obj, versions in enumerate(pattern.versions):
        assert len(analysis.checkpoints[obj]) == len(versions)
        for rank, version in enumerate(versions):
            expected = Checkpoint(obj, rank, version)
            assert analysis.checkpoint(obj, rank) == expected
            assert analysis.checkpoint(obj, rank) is analysis.checkpoints[obj][rank]
            assert analysis.checkpoint_at_version(obj, version) is analysis.checkpoints[obj][rank]
    # Out-of-range ranks and versions: the same answer or error text as one
    # new Checkpoint per call and a linear version scan.
    for obj in range(m):
        size = len(pattern.versions[obj])
        top = analysis.base.timeline.max_version(obj)
        for rank in (-1, 0, size - 1, size):
            assert outcome(lambda: analysis.checkpoint(obj, rank)) == outcome(
                lambda: checkpoint_oracle(analysis, obj, rank)
            )
        for version in (-1, *range(top + 2)):
            assert outcome(lambda: analysis.checkpoint_at_version(obj, version)) == outcome(
                lambda: checkpoint_oracle(analysis, obj, rank_oracle(pattern, obj, version))
            )
    for obj in range(m):
        for rank in (-1, len(pattern.versions[obj])):
            with pytest.raises(AnalysisError, match=f"object {obj} has no checkpoint of rank {rank}"):
                analysis.checkpoint(obj, rank)
        top = analysis.base.timeline.max_version(obj)
        for version in sorted(set(range(top + 2)) - set(pattern.versions[obj])):
            with pytest.raises(AnalysisError, match=f"version {version} of object {obj} is not checkpointed"):
                analysis.checkpoint_at_version(obj, version)
    # An object outside 0..m-1 is unknown, whatever the rank or version.
    for obj in (-1, m):
        for rank in (-1, 0, 1):
            with pytest.raises(AnalysisError, match=f"^unknown object {obj}$"):
                analysis.checkpoint(obj, rank)
            with pytest.raises(AnalysisError, match=f"^unknown object {obj}$"):
                analysis.checkpoint_at_version(obj, rank)


class TestPatternShape:
    """Ranks index the caller's tuples, so a tuple that is not strictly
    increasing from 0 is rejected when the pattern is built, and a pattern
    that does not end each object at its last version when it is analysed;
    neither is renormalised.  The two-form path is the oracle."""

    @pytest.fixture
    def base(self):
        # Object 0 reaches version 3, object 1 version 2.
        return ExecutionAnalysis(make_execution(2, [(0, [], [0]), (1, [], [0, 1]), (2, [0], [0]), (3, [], [1])]))

    @pytest.mark.parametrize("versions", [(0, 1, 1), (1,), (0, 2, 1)])
    def test_unsorted_repeated_or_0_less_versions_rejected(self, base, versions):
        with pytest.raises(PatternError, match="object 0: checkpoint versions .* not strictly increasing from 0"):
            CheckpointAnalysis(base, CheckpointPattern((versions, (0,))))

    def test_make_form_accepted(self, base):
        pattern = CheckpointPattern(((0, 1, 2, 3), (0, 2)))
        assert pattern == CheckpointPattern.make({0: [2, 1]}, base.timeline)
        assert CheckpointAnalysis(base, pattern).pattern is pattern

    @pytest.mark.parametrize("versions, error", [
        (((0, 1), (0, 2)), "object 0: checkpoint versions (0, 1) do not end at last version 3"),
        (((0, 1, 3, 4), (0, 2)), "object 0: checkpoint versions (0, 1, 3, 4) do not end at last version 3"),
        (((0, 3), (0,)), "object 1: checkpoint versions (0,) do not end at last version 2"),
    ])
    def test_a_pattern_not_ending_at_the_last_version_is_rejected(self, base, versions, error):
        assert raised(PatternError, CheckpointAnalysis, base, CheckpointPattern(versions)) == error

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_make_matches_the_two_form_oracle(self, data):
        # Raw mappings: unsorted, repeated, with or without 0, any version up
        # to the last and one past either end.
        timeline = ExecutionAnalysis(data.draw(executions())).timeline
        raw = {
            obj: data.draw(st.lists(st.integers(-1, timeline.max_version(obj) + 1), max_size=5))
            for obj in range(timeline.num_objects)
            if data.draw(st.booleans())
        }
        expected = pattern_outcome(lambda: analysed_pattern_oracle(unclosed_make_oracle(raw, timeline), timeline))
        assert pattern_outcome(lambda: CheckpointPattern.make(raw, timeline).versions) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_given_tuples_match_the_two_form_oracle(self, data):
        execution = data.draw(executions())
        base = ExecutionAnalysis(execution)
        given_versions = []
        for obj in range(execution.num_objects):
            last = base.timeline.max_version(obj)
            vs = data.draw(st.lists(st.integers(-1, last + 1), max_size=5))
            form = data.draw(st.sampled_from(("as drawn", "sorted from 0", "in range, to the last")))
            if form != "as drawn":
                vs = sorted(set(vs) | {0})
            if form == "in range, to the last":
                vs = sorted({v for v in vs if 0 <= v < last} | {last})
            given_versions.append(tuple(vs))
        given_versions = tuple(given_versions)
        expected = pattern_outcome(lambda: analysed_pattern_oracle(given_versions, base.timeline))
        misshapen = isinstance(expected, str) and "not strictly increasing" in expected
        try:
            pattern = CheckpointPattern(given_versions)
        except PatternError as exc:
            # The oracle rejects a misshapen tuple too: with this text where
            # its re-make passes, else by the re-make's range check.
            assert isinstance(expected, str) and (str(exc) == expected or not misshapen)
            return
        assert not misshapen
        if expected == given_versions:
            assert CheckpointAnalysis(base, pattern).pattern is pattern
        else:  # incomplete, or overlong: the oracle appends or its re-make rejects
            assert "do not end at last version" in raised(PatternError, CheckpointAnalysis, base, pattern)


class TestCheckpointTable:
    @pytest.mark.parametrize("where", ["negative", "past_the_last"])
    def test_pattern_rejects_an_object_outside_the_range(self, fig3, where):
        analysis = scenario_analysis(fig3)
        obj = -1 if where == "negative" else analysis.pattern.num_objects
        for pattern in (fig3.pattern, analysis.pattern):
            with pytest.raises(AnalysisError, match=f"^unknown object {obj}$"):
                pattern.rank_of(obj, 0)
            with pytest.raises(AnalysisError, match=f"^unknown object {obj}$"):
                pattern.ranks(obj)
        with pytest.raises(AnalysisError, match=f"^unknown object {obj}$"):
            analysis.checkpoint_at_version(obj, 0)

    @settings(max_examples=150, deadline=None)
    @given(analyses())
    def test_matches_new_checkpoints(self, analysis):
        assert_table_matches_oracle(analysis)

    @pytest.mark.parametrize("protocol, z", [("A", 1), ("B", 2)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_new_checkpoints_on_simulated_traces(self, protocol, z, seed):
        analysis = simulated_analysis(6, 80, seed, protocol=protocol, z_param=z, timer_period=10)
        assert any(
            set(range(analysis.base.timeline.max_version(o))) - set(analysis.pattern.versions[o])
            for o in range(analysis.pattern.num_objects)
        ), "the trace saves every version, so no unsaved version is probed"
        assert_table_matches_oracle(analysis)


class TestDependencePaths:
    def test_fig3_hidden_path(self, fig3):
        analysis = scenario_analysis(fig3)
        u, x = resolve_object("u", fig3.object_names), resolve_object("x", fig3.object_names)
        src, dst = analysis.checkpoint(u, 0), analysis.checkpoint(x, 1)
        assert analysis.dp_reachable(src, dst)
        witness = analysis.dp_witness(src, dst)
        assert witness and len(witness) >= 2
        assert witness[0].source == LocalState(src.obj, src.version)
        assert witness[-1].target.obj == x
        assert witness[-1].target.version <= dst.version

    def test_same_object_rank_order(self, fig3):
        analysis = scenario_analysis(fig3)
        z = resolve_object("z", fig3.object_names)
        assert analysis.dp_reachable(analysis.checkpoint(z, 0), analysis.checkpoint(z, 1))
        assert not analysis.dp_reachable(analysis.checkpoint(z, 1), analysis.checkpoint(z, 0))

    def test_no_self_path_in_fresh_execution(self):
        analysis = analysis_for(make_execution(2, [(0, [0], [1])]))
        for obj in range(2):
            for rank in analysis.pattern.ranks(obj):
                ck = analysis.checkpoint(obj, rank)
                assert not analysis.dp_reachable(ck, ck)

    def test_dp_reachable_validates_like_checkpoint(self, fig3):
        analysis = scenario_analysis(fig3)
        m = analysis.pattern.num_objects
        valid = analysis.checkpoint(0, 0)
        bad = Checkpoint(m, 0, 0)

        def outcome(call):
            try:
                return call()
            except AnalysisError as exc:
                return str(exc)

        rejected = 0
        for obj in range(-m - 2, m + 2):
            for rank in range(-2, 6):
                ck = Checkpoint(obj, rank, 0)
                expected = outcome(lambda: analysis.checkpoint(obj, rank))
                if isinstance(expected, str):
                    rejected += 1
                    assert outcome(lambda: analysis.dp_reachable(ck, valid)) == expected
                    assert outcome(lambda: analysis.dp_reachable(valid, ck)) == expected
                    assert outcome(lambda: analysis.dp_witness(ck, valid)) == expected
                    assert outcome(lambda: analysis.dp_witness(valid, ck)) == expected
                    assert outcome(lambda: analysis.min_reachable_ranks(ck)) == expected
                    # Both endpoints out of range: src's error comes first.
                    assert outcome(lambda: analysis.dp_reachable(ck, bad)) == expected
                else:
                    assert obj in range(m)
                    analysis.dp_reachable(ck, valid)
                    analysis.dp_reachable(valid, ck)
        assert rejected > 0

    def test_min_reachable_ranks_is_dp_reachable(self, fig3):
        analysis = scenario_analysis(fig3)
        cks = [analysis.checkpoint(o, r) for o in range(analysis.pattern.num_objects) for r in analysis.pattern.ranks(o)]
        for src in cks:
            least = analysis.min_reachable_ranks(src)
            for dst in cks:
                assert analysis.dp_reachable(src, dst) == (dst.rank >= least[dst.obj])

    @given(analyses())
    def test_min_safe_rank_matches_upward_scan(self, analysis):
        assert_min_safe_ranks_match(analysis)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_min_safe_rank_matches_upward_scan_on_simulated_traces(self, seed):
        spec = WorkloadSpec(6, 60, ops_per_txn=(1, 4), write_probability=0.6, seed=seed)
        config = SimConfig(seed=seed, num_objects=6, timer_period=10)
        assert_min_safe_ranks_match(trace_pattern(run_simulation(spec, config))[1])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_min_safe_ranks_match_upward_scan_on_protocol_b_traces(self, seed):
        assert_min_safe_ranks_match(simulated_analysis(6, 60, seed, protocol="B", z_param=2, timer_period=10))

    def test_min_safe_ranks_validates_like_checkpoint(self, fig3):
        analysis = scenario_analysis(fig3)
        m = analysis.pattern.num_objects

        def outcome(call):
            try:
                return call()
            except AnalysisError as exc:
                return str(exc)

        rejected = 0
        for dst_obj in range(-m - 2, m + 2):
            for rank in range(-2, 6):
                dst = Checkpoint(dst_obj, rank, 0)
                expected = outcome(lambda: analysis.checkpoint(dst_obj, rank))
                safe = outcome(lambda: analysis.min_safe_ranks(dst))
                if isinstance(expected, str):
                    rejected += 1
                    assert safe == expected
                else:
                    assert safe == analysis.min_safe_ranks(expected)
        assert rejected > 0

    def test_unknown_checkpoint_rejected(self, fig3):
        analysis = scenario_analysis(fig3)
        u = resolve_object("u", fig3.object_names)
        with pytest.raises(AnalysisError):
            analysis.checkpoint(u, 9)

    @settings(max_examples=100, deadline=None)
    @given(analyses())
    def test_matches_recursive_search(self, analysis):
        for obj_a in range(analysis.pattern.num_objects):
            for rank_a in analysis.pattern.ranks(obj_a):
                src = analysis.checkpoint(obj_a, rank_a)
                for obj_b in range(analysis.pattern.num_objects):
                    for rank_b in analysis.pattern.ranks(obj_b):
                        dst = analysis.checkpoint(obj_b, rank_b)
                        assert analysis.dp_reachable(src, dst) == dp_oracle(analysis, src, dst)

    @settings(max_examples=60, deadline=None)
    @given(analyses(max_objects=3, max_txns=5))
    def test_transitive(self, analysis):
        cks = [
            analysis.checkpoint(obj, rank)
            for obj in range(analysis.pattern.num_objects)
            for rank in analysis.pattern.ranks(obj)
        ]
        for a, b, c in itertools.product(cks, repeat=3):
            if analysis.dp_reachable(a, b) and analysis.dp_reachable(b, c):
                assert analysis.dp_reachable(a, c)

    @settings(max_examples=60, deadline=None)
    @given(analyses())
    def test_witness_edges_are_sound(self, analysis):
        base = analysis.base
        distances = interval_dp_distances(analysis)
        cks = [analysis.checkpoint(o, r) for o in range(analysis.pattern.num_objects) for r in analysis.pattern.ranks(o)]
        for src, dst in itertools.product(cks, repeat=2):
            assert_witness_chain(analysis, distances, src, dst)
            for e in analysis.dp_witness(src, dst) or []:
                assert base.happened_before(e.source, e.target)

    @pytest.mark.parametrize("protocol, z", [("A", 1), ("B", 2)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_interval_graph_on_simulated_traces(self, protocol, z, seed):
        spec = WorkloadSpec(6, 60, ops_per_txn=(1, 4), write_probability=0.6, seed=seed)
        config = SimConfig(seed=seed, num_objects=6, protocol=protocol, z_param=z, timer_period=10)
        _, analysis = trace_pattern(run_simulation(spec, config))
        distances = interval_dp_distances(analysis)
        cks = [analysis.checkpoint(o, r) for o in range(analysis.pattern.num_objects) for r in analysis.pattern.ranks(o)]
        pairs = list(itertools.product(cks, repeat=2))
        assert len(cks) > 30 and sum(analysis.dp_reachable(a, b) for a, b in pairs) > len(pairs) // 4
        for src, dst in pairs:
            assert analysis.dp_reachable(src, dst) == interval_dp_reachable(distances, src, dst)
        for src, dst in random.Random(seed).sample(pairs, 100):
            assert_witness_chain(analysis, distances, src, dst)

    def test_verify_never_builds_the_edge_set(self, monkeypatch):
        built = []

        def kept(trace):
            built.append(trace_pattern(trace))
            return built[-1]

        monkeypatch.setattr(protocol_module, "trace_pattern", kept)
        spec = WorkloadSpec(4, 30, ops_per_txn=(1, 3), write_probability=0.6, seed=5)
        report = protocol_module.verify_protocol_guarantees(
            run_simulation(spec, SimConfig(seed=5, num_objects=4, timer_period=6))
        )
        (base, _), = built
        assert report.ok and "edges" not in base.__dict__
        assert base.edges and "edges" in base.__dict__

    def test_objects_outside_the_range_are_unknown(self, fig3):
        # Object -1 is not object m-1 counted from the end, object m is not
        # an object, and neither is anything but an int, even 1.0: every
        # query rejects each at either endpoint.  So is a rank or a version
        # that is not an int, even where it equals one.
        analysis = scenario_analysis(fig3)
        pattern = analysis.pattern
        m = pattern.num_objects
        for ck in all_checkpoints(analysis):
            for obj in (-1, m, 1.0, "1", None):
                bad = Checkpoint(obj, ck.rank, ck.version)
                queries = [
                    lambda: analysis.checkpoint(obj, ck.rank),
                    lambda: analysis.checkpoint_at_version(obj, ck.version),
                    lambda: pattern.ranks(obj),
                    lambda: pattern.rank_of(obj, ck.version),
                    lambda: analysis.min_reachable_ranks(bad),
                    lambda: analysis.min_safe_ranks(bad),
                ]
                for pair in ((bad, ck), (ck, bad)):
                    queries += [lambda p=pair: analysis.dp_reachable(*p), lambda p=pair: analysis.dp_witness(*p)]
                for query in queries:
                    assert raised(AnalysisError, query) == f"unknown object {obj!r}"
            bad = Checkpoint(ck.obj, float(ck.rank), ck.version)
            queries = [
                lambda: analysis.checkpoint(ck.obj, float(ck.rank)),
                lambda: analysis.min_reachable_ranks(bad),
                lambda: analysis.min_safe_ranks(bad),
            ]
            for pair in ((bad, ck), (ck, bad)):
                queries += [lambda p=pair: analysis.dp_reachable(*p), lambda p=pair: analysis.dp_witness(*p)]
            for query in queries:
                assert raised(AnalysisError, query) == f"object {ck.obj} has no checkpoint of rank {float(ck.rank)}"
            error = raised(AnalysisError, analysis.checkpoint_at_version, ck.obj, float(ck.version))
            assert error == f"version {float(ck.version)} of object {ck.obj} is not checkpointed"


def assert_safe_rows_match_bisection(analysis):
    """min_safe_ranks against safe_ranks_oracle for every checkpoint: on its
    first call, on a repeated call, which returns the stored row, and on a
    fresh analysis of the same pattern once every column and every later
    checkpoint's row is built."""
    cks = all_checkpoints(analysis)
    for dst in cks:
        first = analysis.min_safe_ranks(dst)
        assert first == safe_ranks_oracle(analysis, dst)
        assert analysis.min_safe_ranks(dst) is first
    assert stored_safe_rows(analysis) == [(ck.obj, ck.rank) for ck in cks]
    warm = CheckpointAnalysis(analysis.base, analysis.pattern)
    for y in range(warm.pattern.num_objects):
        warm._column(y)
    for dst in reversed(cks):
        assert warm.min_safe_ranks(warm.checkpoint(dst.obj, dst.rank)) == safe_ranks_oracle(warm, dst)


class TestStoredSafeRows:
    """min_safe_ranks stores each destination checkpoint's row on first use;
    safe_ranks_oracle bisects the reach column on every call, as it once did."""

    @settings(max_examples=100, deadline=None)
    @given(analyses())
    def test_rows_match_the_bisection(self, analysis):
        assert_safe_rows_match_bisection(analysis)

    @pytest.mark.parametrize("protocol, z", [("A", 1), ("B", 2)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_rows_match_the_bisection_on_simulated_traces(self, protocol, z, seed):
        assert_safe_rows_match_bisection(simulated_analysis(6, 60, seed, protocol=protocol, z_param=z, timer_period=10))

    def test_bad_checkpoints_fail_alike_before_and_after_rows_are_stored(self, fig3):
        # A negative object or rank, a rank past the last and an object
        # outside 0..m-1 each raise checkpoint's error, whether or not a row
        # of that object is stored.
        for analysis in (scenario_analysis(fig3), simulated_analysis(6, 60, 1, protocol="B", z_param=2, timer_period=10)):
            m = analysis.pattern.num_objects
            bad = [Checkpoint(obj, rank, 0) for obj in range(m) for rank in (-1, -5, len(analysis.pattern.versions[obj]))]
            bad += [Checkpoint(obj, rank, 0) for obj in (-1, -m, m, m + 3) for rank in (-1, 0, 1)]
            expected = [outcome(lambda: analysis.checkpoint(ck.obj, ck.rank)) for ck in bad]
            assert all(kind is AnalysisError for kind, _ in expected)
            assert [outcome(lambda: analysis.min_safe_ranks(ck)) for ck in bad] == expected
            for ck in all_checkpoints(analysis):
                analysis.min_safe_ranks(ck)
            assert [outcome(lambda: analysis.min_safe_ranks(ck)) for ck in bad] == expected


class TestWitnessMatchesWholeSearch:
    """dp_witness stops at its first goal transaction; the whole search,
    kept in witness_oracle, must pick the same witness."""

    @pytest.fixture(scope="class")
    def query_analysis(self):
        # The query_mix benchmark's trace: 12 objects, 200 transactions.
        return simulated_analysis(12, 200, 1, protocol="A", timer_period=20)

    def test_matches_on_a_12x200_trace(self, query_analysis):
        cks = all_checkpoints(query_analysis)
        pairs = random.Random(1).sample(list(itertools.product(cks, repeat=2)), 3000)
        lengths = Counter()
        for src, dst in pairs:
            witness = query_analysis.dp_witness(src, dst)
            assert witness == witness_oracle(query_analysis, src, dst)
            lengths[None if witness is None else len(witness)] += 1
        assert lengths[None] > 1000 and lengths[1] > 1000
        assert sum(n for length, n in lengths.items() if length and length >= 2) > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_on_protocol_b_traces(self, seed):
        analysis = simulated_analysis(6, 80, seed, protocol="B", z_param=2, timer_period=10)
        longest = 0
        for src, dst in itertools.product(all_checkpoints(analysis), repeat=2):
            witness = analysis.dp_witness(src, dst)
            assert witness == witness_oracle(analysis, src, dst)
            longest = max(longest, len(witness or ()))
        assert longest >= 2

    @staticmethod
    def recorded_searches(analysis, monkeypatch, pairs):
        """Each search's parent map and hit, over dp_witness on pairs."""
        search, searches = analysis._search, []

        def recorded(*args):
            parent, hit = search(*args)
            searches.append((parent, hit))
            return parent, hit

        monkeypatch.setattr(analysis, "_search", recorded)
        for src, dst in pairs:
            analysis.dp_witness(src, dst)
        return searches

    def assert_searches_stop_at_their_hit(self, analysis, monkeypatch, pairs):
        # dp_witness searches only when a path exists, so every search hits,
        # and the hit is the last transaction it discovered.
        searches = self.recorded_searches(analysis, monkeypatch, pairs)
        for parent, hit in searches:
            assert hit is not None and list(parent)[-1] == hit
        return len(searches)

    def test_search_stops_at_its_hit_on_a_12x200_trace(self, query_analysis, monkeypatch):
        cks = all_checkpoints(query_analysis)
        pairs = random.Random(1).sample(list(itertools.product(cks, repeat=2)), 3000)
        assert self.assert_searches_stop_at_their_hit(query_analysis, monkeypatch, pairs) > 1000

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_search_stops_at_its_hit_on_protocol_b_traces(self, seed, monkeypatch):
        analysis = simulated_analysis(6, 80, seed, protocol="B", z_param=2, timer_period=10)
        pairs = itertools.product(all_checkpoints(analysis), repeat=2)
        assert self.assert_searches_stop_at_their_hit(analysis, monkeypatch, pairs) > 100

    def test_later_checkpoint_of_the_same_object_discovers_one_writer(self, query_analysis, monkeypatch):
        # The first writer the search starts, of the version src saves, lands
        # on src's own object at src's rank, below dst's: it is the goal.
        pairs = [
            (src, dst) for row in query_analysis.checkpoints
            for src, dst in itertools.combinations(row, 2)
        ]
        searches = self.recorded_searches(query_analysis, monkeypatch, pairs)
        assert len(searches) == len(pairs) > 100
        writers = query_analysis.base.timeline.writers
        for (src, dst), (parent, hit) in zip(pairs, searches):
            assert hit == writers[src.obj][src.version]
            assert parent == {hit: (None, src.obj)}
            source, target = LocalState(src.obj, src.version), LocalState(src.obj, src.version + 1)
            assert query_analysis.dp_witness(src, dst) == [DependenceEdge(source, target, BLACK, (hit, hit))]

    def test_one_segment_witness_stops_early(self, query_analysis, monkeypatch):
        search = query_analysis._search
        visited = []

        def counted(*args):
            parent, hit = search(*args)
            visited.append(len(parent))
            return parent, hit

        monkeypatch.setattr(query_analysis, "_search", counted)
        cks = all_checkpoints(query_analysis)
        stopped, whole = 0, 0
        for src, dst in random.Random(2).sample(list(itertools.product(cks, repeat=2)), 400):
            visited.clear()
            witness = query_analysis.dp_witness(src, dst)
            if witness and len(witness) == 1:
                full = len(reach_oracle(query_analysis, src.obj, src.rank)[1])
                (seen,) = visited
                assert seen <= full
                stopped, whole = stopped + seen, whole + full
        assert whole > 0 and stopped < whole / 2


def witness_edges_checked_against_replay(analysis) -> int:
    """Every dp_witness edge's versions, read off the writers, against the
    commit-order replay: the pre-version of its first via transaction on
    its source object, and the post-version of its last on its target.
    Returns the number of edges checked."""
    pre, post = version_oracle(analysis.base.execution)
    checked = 0
    for src, dst in itertools.product(all_checkpoints(analysis), repeat=2):
        for edge in analysis.dp_witness(src, dst) or ():
            first, last = edge.via
            assert edge.source.version == pre[(first, edge.source.obj)], (src, dst, edge)
            assert edge.target.version == post[(last, edge.target.obj)], (src, dst, edge)
            checked += 1
    return checked


class TestWitnessVersionsMatchTheReplay:
    @settings(max_examples=150, deadline=None)
    @given(analyses())
    def test_on_small_analyses(self, analysis):
        witness_edges_checked_against_replay(analysis)

    @pytest.mark.parametrize("protocol, z", [("A", 1), ("B", 2)])
    def test_on_simulated_traces(self, protocol, z):
        analysis = simulated_analysis(6, 80, 1, protocol=protocol, z_param=z, timer_period=10)
        assert witness_edges_checked_against_replay(analysis) > 100


def monotone_weights(analysis, seed):
    """Per object, random weights non-decreasing in rank, some of them inf,
    as verification's least logged index at or above each rank."""
    rng = random.Random(seed)
    rows = []
    for vs in analysis.pattern.versions:
        row = [rng.choice([rng.randint(0, 9), math.inf]) for _ in vs]
        for rank in range(len(row) - 2, -1, -1):
            row[rank] = min(row[rank], row[rank + 1])
        rows.append(row)
    return rows


def assert_condensation_matches_oracles(analysis, seed=0):
    """The SCC fold against the slow paths it replaces: every reach column,
    built per destination object, against reach_oracle and min_reached
    against bar_oracle.  Returns the checkpoints with a dependence path to
    themselves."""
    cks = all_checkpoints(analysis)
    weights = [monotone_weights(analysis, seed), [[0] * len(vs) for vs in analysis.pattern.versions]]
    folds = [analysis.min_reached(weight) for weight in weights]
    assert not any(analysis._columns)
    for weight, folded in zip(weights, folds):
        assert [folded[ck.obj][ck.rank] for ck in cks] == [bar_oracle(analysis, weight, ck) for ck in cks]
    columns = [analysis._column(y) for y in range(analysis.pattern.num_objects)]
    assert analysis._columns == columns
    for ck in cks:
        reach = reach_oracle(analysis, ck.obj, ck.rank)[0]
        assert [column[ck.obj][ck.rank] for column in columns] == reach
    return [ck for ck in cks if analysis.dp_reachable(ck, ck)]


class TestCondensationMatchesSlowPaths:
    @settings(max_examples=150, deadline=None)
    @given(analyses())
    def test_on_small_analyses(self, analysis):
        assert_condensation_matches_oracles(analysis)

    @pytest.mark.parametrize("config", [
        {"protocol": "A"},
        {"protocol": "B", "z_param": 2, "timer_jitter": 3},
        {"protocol": "B", "z_param": 3},
    ], ids=["A", "B-z2-jitter3", "B-z3"])
    @pytest.mark.parametrize("objects, txns, seed", [(4, 40, 1), (8, 120, 2), (12, 200, 3)])
    def test_on_simulated_traces(self, config, objects, txns, seed):
        analysis = simulated_analysis(objects, txns, seed, timer_period=10, **config)
        assert_condensation_matches_oracles(analysis, seed)
        # Several SCCs, and at least one Z-cycle of several transactions.
        assert 1 < len(analysis._kids) < len(analysis.base.execution.transactions)

    def test_self_paths_on_random_instances(self):
        cyclic = 0
        for seed in range(40):
            spec = WorkloadSpec(4, 12, ops_per_txn=(1, 3), write_probability=0.6, seed=seed)
            execution, pattern = generate_random(spec)
            analysis = CheckpointAnalysis(ExecutionAnalysis(execution), pattern)
            cyclic += len(assert_condensation_matches_oracles(analysis, seed))
        assert cyclic > 0


def test_reach_answers_pinned_at_64x2000():
    # CI's byte-exact protocol A trace, far above the sizes the oracles can
    # check: every object's safe ranks toward its middle checkpoint and
    # least reachable ranks from its first are pinned by one digest.
    analysis = simulated_analysis(64, 2000, 1, protocol="A", timer_period=20)
    versions = analysis.pattern.versions
    safe = [analysis.min_safe_ranks(analysis.checkpoint(o, len(versions[o]) // 2)) for o in range(64)]
    least = [analysis.min_reachable_ranks(analysis.checkpoint(o, 0)) for o in range(64)]
    digest = hashlib.sha256(repr((safe, least)).encode()).hexdigest()
    assert digest == "a0dc0c54c1c530376df47a3954c9fb7a95f90e71db14c744ebd92a02425a5989"


def test_witness_answers_pinned_at_64x2000():
    # The same trace: dp_witness on 2,000 random checkpoint pairs, with
    # their reprs pinned byte for byte by one digest.
    analysis = simulated_analysis(64, 2000, 1, protocol="A", timer_period=20)
    cks = [c for row in analysis.checkpoints for c in row]
    rng = random.Random(64)
    pairs = [(rng.choice(cks), rng.choice(cks)) for _ in range(2000)]
    witnesses = [analysis.dp_witness(src, dst) for src, dst in pairs]
    assert len(cks) == 2811
    assert Counter(None if w is None else len(w) for w in witnesses) == {None: 1092, 1: 905, 2: 3}
    digest = hashlib.sha256(repr(witnesses).encode()).hexdigest()
    assert digest == "f22894a1e96a483a6d2920439d6d0d4e062da5bf8d5134d5d86340b65fba22d9"


@pytest.mark.parametrize("case, error", [
    (lambda c, t: file_error(c, t, {"objects": 1, "checkpoints": {"0": [-1]}}, "analyze", "{file}"),
     "in.checkpoints: object 0: negative checkpoint version"),
    # None is not an int, so it is none of the versions.
    (lambda c, t: raised(AnalysisError, builtin_scenario("fig3").pattern.rank_of, 0, None),
     "version None of object 0 is not checkpointed"),
    (lambda c, t: raised(AnalysisError, CheckpointAnalysis,
                         ExecutionAnalysis(builtin_scenario("fig3").execution), CheckpointPattern(((0,),))),
     "pattern and execution disagree on object count"),
], ids=["negative-version", "incomparable-version", "object-count"])
def test_dependence_input_checks(capsys, tmp_path, case, error):
    assert case(capsys, tmp_path) == error
