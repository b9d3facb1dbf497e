from __future__ import annotations

import dataclasses
import hashlib
import random
from collections import Counter

import pytest

from txckpt import cli
from txckpt import protocol as protocol_module
from txckpt.dependence import CheckpointAnalysis
from txckpt.model import Transaction
from txckpt.protocol import (
    KIND_BASIC,
    KIND_FORCED,
    CheckpointRecord,
    forced_index,
    initial_record,
    verify_protocol_guarantees,
)
from txckpt.scenario import WorkloadSpec
from txckpt.sim import SimConfig, Trace, run_simulation
from txckpt.theory import assemble_indexed_gc

from conftest import (
    CommitMessage,
    DataManagerState,
    ProtocolError,
    dm_on_commit,
    dm_on_release,
    dm_on_timer,
    guarantee_violations_oracle,
    stored_safe_rows,
    tm_commit_metadata,
)


class TestCommitMetadata:
    def test_max_over_all_accessed(self):
        txn = Transaction.make(0, reads=[2, 1], writes=[0])
        msgs = tm_commit_metadata(txn, {0: 0, 1: 3, 2: 1})
        assert msgs == [CommitMessage(0, 3, 0), CommitMessage(0, 3, 1), CommitMessage(0, 3, 2)]

    def test_read_only_releases_every_read_object(self):
        txn = Transaction.make(0, reads=[0, 1], writes=[])
        assert tm_commit_metadata(txn, {0: 2, 1: 5}) == [CommitMessage(0, 5, 0), CommitMessage(0, 5, 1)]

    def test_one_message_per_written_object(self):
        txn = Transaction.make(0, reads=[], writes=[0, 1])
        msgs = tm_commit_metadata(txn, {0: 2, 1: 2})
        assert msgs == [CommitMessage(0, 2, 0), CommitMessage(0, 2, 1)]

    def test_missing_observation_rejected(self):
        txn = Transaction.make(0, reads=[1], writes=[0])
        with pytest.raises(ProtocolError, match="no observed index"):
            tm_commit_metadata(txn, {0: 1})


class TestBasicCheckpoints:
    def test_increments_index(self):
        dm = DataManagerState(obj=0, index=0, version=2)
        dm, rec = dm_on_timer(dm, now=10)
        assert dm.index == 1
        assert rec == CheckpointRecord(0, 1, KIND_BASIC, 2, 10)

    def test_from_any_index(self):
        dm = DataManagerState(obj=0, index=7)
        assert dm_on_timer(dm, 0)[0].index == 8

    def test_consecutive_expirations_strictly_increase(self):
        dm = DataManagerState(obj=0)
        dm, r1 = dm_on_timer(dm, 0)
        dm, r2 = dm_on_timer(dm, 5)
        assert (r1.index, r2.index) == (1, 2)


class TestForcedCheckpointsA:
    """Protocol A is z = 1: force whenever the index lags the maximum."""

    def test_lagging_index_forces_pre_write_snapshot(self):
        dm = DataManagerState(obj=0, index=0, version=1)
        dm, rec = dm_on_commit(dm, CommitMessage(5, 3, 0), 1, now=7)
        assert rec == CheckpointRecord(0, 3, KIND_FORCED, 1, 7)
        assert dm.index == 3 and dm.version == 2

    def test_ahead_index_only_applies(self):
        dm = DataManagerState(obj=0, index=5, version=0)
        dm, rec = dm_on_commit(dm, CommitMessage(5, 3, 0), 1, now=7)
        assert rec is None and dm.index == 5 and dm.version == 1

    def test_equal_index_does_not_force(self):
        dm = DataManagerState(obj=0, index=3)
        dm, rec = dm_on_commit(dm, CommitMessage(5, 3, 0), 1, now=7)
        assert rec is None and dm.version == 1

    def test_wrong_destination_rejected(self):
        for step in (dm_on_commit, dm_on_release):
            with pytest.raises(ProtocolError, match="delivered to data manager"):
                step(DataManagerState(obj=0), CommitMessage(5, 3, 1), 1, 0)

    def test_release_forces_without_apply(self):
        dm = DataManagerState(obj=0, index=0, version=2)
        dm, rec = dm_on_release(dm, CommitMessage(5, 4, 0), 1, now=3)
        assert rec == CheckpointRecord(0, 4, KIND_FORCED, 2, 3)
        assert dm.index == 4 and dm.version == 2


class TestForcedCheckpointsB:
    def test_rounds_down_to_multiple(self):
        dm = DataManagerState(obj=0, index=0)
        dm, rec = dm_on_commit(dm, CommitMessage(5, 6, 0), 4, now=2)
        assert rec == CheckpointRecord(0, 4, KIND_FORCED, 0, 2)
        assert dm.index == 4 and dm.version == 1

    def test_same_epoch_does_not_force(self):
        dm = DataManagerState(obj=0, index=4)
        dm, rec = dm_on_commit(dm, CommitMessage(5, 7, 0), 4, now=2)
        assert rec is None and dm.index == 4 and dm.version == 1

    def test_release_rounds_down_without_apply(self):
        dm = DataManagerState(obj=0, index=1, version=3)
        dm, rec = dm_on_release(dm, CommitMessage(5, 7, 0), 3, now=2)
        assert rec == CheckpointRecord(0, 6, KIND_FORCED, 3, 2)
        assert dm.index == 6 and dm.version == 3

    def test_forced_index_is_the_rounded_maximum_of_a_later_epoch(self):
        assert forced_index(0, 3, 1) == 3
        assert forced_index(3, 3, 1) is None
        assert forced_index(0, 6, 4) == 4
        assert forced_index(4, 7, 4) is None
        assert forced_index(5, 7, 4) is None
        assert forced_index(1, 7, 3) == 6

    def test_z_must_be_positive(self):
        for step in (dm_on_commit, dm_on_release):
            with pytest.raises(ProtocolError, match="at least 1"):
                step(DataManagerState(obj=0), CommitMessage(1, 1, 0), 0, 0)

    def test_z_one_matches_protocol_a_indices(self):
        # Whole runs: protocol A (whatever its z_param) and protocol B with
        # z = 1 produce the same events and the same checkpoint log.
        forced = 0
        for seed in range(24):
            objects, txns = (3, 20) if seed % 2 else (5, 40)
            workload = WorkloadSpec(num_objects=objects, num_txns=txns, write_probability=0.6, seed=seed)
            traces = [
                run_simulation(workload, SimConfig(
                    seed=seed, num_objects=objects, protocol=protocol, z_param=z,
                    timer_period=5, message_delay_range=(1, 8),
                ))
                for protocol, z in (("B", 1), ("A", 1), ("A", 3))
            ]
            reference = traces[0]
            for other in traces[1:]:
                assert other.events == reference.events
                assert other.checkpoint_log == reference.checkpoint_log
            forced += sum(r.kind == KIND_FORCED for r in reference.checkpoint_log)
        assert forced > 0


def small_trace(protocol="A", z=1, seed=0):
    workload = WorkloadSpec(num_objects=3, num_txns=8, write_probability=0.7, seed=seed)
    config = SimConfig(
        seed=seed, num_objects=3, protocol=protocol, z_param=z, timer_period=6,
        message_delay_range=(1, 5),
    )
    return run_simulation(workload, config)


class TestVerification:
    def test_clean_trace_has_no_violations(self):
        report = verify_protocol_guarantees(small_trace())
        assert report.ok and report.violations == ()

    def test_clean_trace_protocol_b(self):
        report = verify_protocol_guarantees(small_trace(protocol="B", z=2, seed=3))
        assert report.ok

    def test_adversarial_log_reports_violations(self):
        trace = small_trace()
        # Renumber every checkpoint to index 1: any dependence between logged
        # checkpoints now pairs equal indices, and per-object sequences repeat.
        rigged = tuple(
            CheckpointRecord(r.obj, min(r.index, 1), r.kind, r.version, r.time)
            for r in trace.checkpoint_log
        )
        bad = Trace(trace.config, trace.workload, trace.execution, trace.events, rigged)
        report = verify_protocol_guarantees(bad)
        assert not report.ok
        assert any("not strictly increasing" in v for v in report.violations)

    def test_counts_by_object(self):
        # The simulate report and the guarantee report count the log in
        # loops of their own; they must give one answer.
        trace = small_trace()
        report = cli._trace_summary(trace)
        counts = report["checkpoints_per_object"]
        assert all(c["initial"] == 1 for c in counts.values())
        assert counts == {
            str(obj): {kind: sum(r.obj == obj and r.kind == kind for r in trace.checkpoint_log)
                       for kind in ("initial", "basic", "forced")}
            for obj in range(3)
        }
        totals = report["checkpoint_totals"]
        assert totals == {kind: sum(c[kind] for c in counts.values()) for kind in totals}
        assert totals == verify_protocol_guarantees(trace).counts_by_kind

    def test_initial_records_present(self):
        trace = small_trace()
        initials = [r for r in trace.checkpoint_log if r.kind == "initial"]
        assert initials == [initial_record(obj) for obj in range(3)]


def doctored(trace, how, seed):
    """The trace with its checkpoint log changed as named."""
    rng = random.Random(seed)
    records = list(trace.checkpoint_log)
    if how == "clamped":
        records = [r._replace(index=min(r.index, 1)) for r in records]
    elif how == "random":
        records = [r._replace(index=rng.randint(0, 5)) for r in records]
    elif how == "sparse":  # random indices with gaps, so assemblies repeat
        records = [r._replace(index=3 * rng.randint(0, 5)) for r in records]
    elif how == "shuffled":
        rng.shuffle(records)
    elif how == "unforced":  # the coordination the protocol relies on is gone
        records = [r for r in records if r.kind != KIND_FORCED]
    return dataclasses.replace(trace, checkpoint_log=tuple(records))


def test_violation_reports_pinned_at_8x120():
    # The oracle cross-check stops at 4 x 30; this pins every report, in
    # message order, of the doctored logs at verify_batch's size, where the
    # assemblies of each sweep repeat and most versions are reached.
    reports = []
    for protocol, z in (("A", 1), ("B", 2)):
        for seed in (1, 2):
            spec = WorkloadSpec(8, 120, ops_per_txn=(1, 4), write_probability=0.6, seed=seed)
            config = SimConfig(seed=seed, num_objects=8, protocol=protocol, z_param=z, timer_period=20)
            trace = run_simulation(spec, config)
            for how in ("clean", "clamped", "random", "sparse", "shuffled", "unforced"):
                reports.append(verify_protocol_guarantees(doctored(trace, how, seed)))
    messages = [v for report in reports for v in report.violations]
    assert len(messages) == 109234
    assert sum("equal-index" in v for v in messages) == 33 and sum("gap-filled" in v for v in messages) == 92
    digest = hashlib.sha256(repr(reports).encode()).hexdigest()
    assert digest == "e3dd61a5a3bd6bff5731da15fe71b644bc28d890cadb08830222d40eaed1a912"


class TestVerificationMatchesPairwiseOracle:
    @pytest.mark.parametrize("how", ["clean", "clamped", "random", "shuffled", "sparse", "unforced"])
    @pytest.mark.parametrize("z", [1, 2, 3])
    @pytest.mark.parametrize("protocol", ["A", "B"])
    def test_same_violations_in_same_order(self, protocol, z, how):
        pair_violations = self_paths = 0
        gap_filled = Counter()  # per protocol, over the checks with z = 1
        for seed in range(6):
            spec = WorkloadSpec(4, 30, ops_per_txn=(1, 3), write_probability=0.6, seed=seed)
            config = SimConfig(seed=seed, num_objects=4, protocol=protocol, z_param=z, timer_period=5)
            trace = doctored(run_simulation(spec, config), how, seed)
            # An A trace is also checked as if it were a B trace with this z.
            for relabelled in {trace.config, dataclasses.replace(trace.config, protocol="B", z_param=z)}:
                checked = dataclasses.replace(trace, config=relabelled)
                violations = verify_protocol_guarantees(checked).violations
                assert violations == guarantee_violations_oracle(checked)
                pair_violations += sum("without index increase" in v for v in violations)
                self_paths += sum("to itself" in v for v in violations)
                if relabelled.z == 1:
                    gap_filled[relabelled.protocol] += sum("gap-filled" in v for v in violations)
        # Clamped to 1, only the index-0 checkpoints are scoped when z > 1.
        if how == "random" or how == "clamped" and z == 1:
            assert pair_violations > 0
        if how == "clean":
            assert pair_violations == 0
        # Without its forced checkpoints a trace keeps Z-cycles.
        if how == "unforced":
            assert self_paths > 0
        # Gap-filled assemblies are checked on every z = 1 trace, A or B.
        if how == "sparse" and (protocol == "A" or z == 1):
            assert all(gap_filled.values())

    def test_verify_reads_no_reach_column(self, monkeypatch):
        # Bars come from one scalar fold over the SCCs, and only a row at or
        # above its bar reads reach: a clean trace is verified without one
        # dp_reachable or min_reachable_ranks call and stores no
        # min_safe_ranks row, and a reach column is built only when a later
        # query reads it, once per destination object.
        calls = []
        builds = []
        consistency_calls = []
        built = []
        dp_reachable = CheckpointAnalysis.dp_reachable
        min_reachable_ranks = CheckpointAnalysis.min_reachable_ranks
        build_column = CheckpointAnalysis._column
        is_consistent_global_state = protocol_module.is_consistent_global_state
        trace_pattern = protocol_module.trace_pattern

        def counted(self, src, dst):
            calls.append((src, dst))
            return dp_reachable(self, src, dst)

        def counted_reach(self, src):
            calls.append(src)
            return min_reachable_ranks(self, src)

        def counted_build(self, y):
            builds.append((self, y))
            return build_column(self, y)

        def counted_consistency(states, base):
            consistency_calls.append(dict(states))
            return is_consistent_global_state(states, base)

        def kept(trace):
            built.append(trace_pattern(trace))
            return built[-1]

        monkeypatch.setattr(CheckpointAnalysis, "dp_reachable", counted)
        monkeypatch.setattr(CheckpointAnalysis, "min_reachable_ranks", counted_reach)
        monkeypatch.setattr(CheckpointAnalysis, "_column", counted_build)
        monkeypatch.setattr(protocol_module, "is_consistent_global_state", counted_consistency)
        monkeypatch.setattr(protocol_module, "trace_pattern", kept)
        spec = WorkloadSpec(6, 80, ops_per_txn=(1, 4), write_probability=0.6, seed=4)
        trace = run_simulation(spec, SimConfig(seed=4, num_objects=6, timer_period=5))
        report = verify_protocol_guarantees(trace)
        (base, analysis), = built
        log = trace.checkpoint_log
        assert report.ok and len(log) > 50
        assert calls == [] and builds == [] and stored_safe_rows(analysis) == []
        assert "direct_edges" not in base.graph.__dict__ and "edges" not in base.__dict__
        cks = [analysis.checkpoint(r.obj, analysis.pattern.rank_of(r.obj, r.version)) for r in log]
        dst = cks[-1]
        for ck in cks[:10]:
            analysis.dp_reachable(ck, dst)
            analysis.dp_witness(ck, dst)
        assert builds == [(analysis, dst.obj)]
        for ck in analysis.checkpoints[dst.obj]:
            analysis.min_safe_ranks(ck)
        assert builds == [(analysis, dst.obj)]
        assert stored_safe_rows(analysis) == [(dst.obj, ck.rank) for ck in analysis.checkpoints[dst.obj]]
        for ck in cks[:10]:
            analysis.min_reachable_ranks(ck)
            analysis.min_safe_ranks(ck)
        assert sorted(y for _, y in builds) == list(range(6))
        assert all(a is analysis for a, _ in builds)
        # Each complete assembly is one consistency test, in sweep order from
        # the highest index down: at n, the equal-index assembly (the last
        # record at n per object) when it names every object, then, z being
        # 1, the gap-filled assembly when every object has a pick.
        expected = []
        for n in range(max(r.index for r in log), -1, -1):
            exact = {r.obj: r.version for r in log if r.index == n}
            if len(exact) == 6:
                expected.append(exact)
            if (gc := assemble_indexed_gc(n, log, analysis)) is not None:
                expected.append(gc.states())
        assert consistency_calls == expected
