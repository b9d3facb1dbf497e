from __future__ import annotations

import hashlib
import json

import pytest

from txckpt.model import build_serialization_graph
from txckpt.protocol import initial_record, verify_protocol_guarantees
from txckpt.scenario import WorkloadSpec
from txckpt.sim import (
    EV_COMMIT_MSG,
    EV_LOCK_ACQUIRED,
    EV_TIMER,
    EV_TXN_COMMIT,
    EVENT_KEYS,
    SimConfig,
    SimulationError,
    Trace,
    run_simulation,
)

from conftest import (
    DataManagerState,
    cli_error,
    dm_on_commit,
    dm_on_release,
    dm_on_timer,
    run_cli,
    simulation_oracle,
    tm_commit_metadata,
)


def run(seed=0, txns=12, objects=4, protocol="A", z=1, timer=10, jitter=0, delays=(1, 6), **kw):
    workload = WorkloadSpec(num_objects=objects, num_txns=txns, write_probability=0.6, seed=seed)
    config = SimConfig(
        seed=seed, num_objects=objects, protocol=protocol, z_param=z,
        timer_period=timer, timer_jitter=jitter, message_delay_range=delays, **kw
    )
    return run_simulation(workload, config)


class TestDeterminism:
    def test_same_inputs_byte_identical(self):
        assert run(seed=5).to_json() == run(seed=5).to_json()

    def test_different_seeds_differ(self):
        assert run(seed=5).to_json() != run(seed=6).to_json()

    def test_trace_round_trips_through_json(self):
        trace = run(seed=9, protocol="B", z=4, jitter=2)
        again = Trace.from_json(trace.to_json())
        assert again.to_json() == trace.to_json()

    @pytest.mark.parametrize("protocol, z, jitter", [("A", 1, 0), ("B", 2, 0), ("A", 1, 3)])
    def test_trace_round_trips_in_memory(self, protocol, z, jitter):
        # from_json returns the re-run of the file's config and workload, so
        # this compares two runs as tuples: events with their values in
        # EVENT_KEYS order, and records, not just their sorted JSON text.
        trace = run(seed=3, txns=30, objects=5, protocol=protocol, z=z, timer=4, jitter=jitter)
        again = Trace.from_json(trace.to_json())
        assert again.events == trace.events
        assert again.checkpoint_log == trace.checkpoint_log

    @pytest.mark.parametrize("protocol, z", [("A", 1), ("B", 3)])
    @pytest.mark.parametrize("jitter", [0, 3])
    def test_events_follow_the_event_schema(self, protocol, z, jitter):
        trace = run(seed=5, txns=40, objects=5, protocol=protocol, z=z, timer=4, jitter=jitter)
        assert {kind for _, kind, *_ in trace.events} == set(EVENT_KEYS)
        for row, e in zip(trace.events, trace.to_dict()["events"], strict=True):
            time, kind, *values = row
            assert len(values) == len(EVENT_KEYS[kind]), row
            assert set(e) == {"time", "seq", "kind", *EVENT_KEYS[kind]}, e

    def test_trace_and_report_digest(self):
        # One sha256 over 120 traces and their guarantee reports pins both
        # byte for byte.
        digest = hashlib.sha256()
        for objects, txns in [(3, 20), (5, 40), (8, 60)]:
            for protocol, z in [("A", 1), ("A", 3), ("B", 1), ("B", 2), ("B", 4)]:
                for seed in range(1, 5):
                    for jitter in (0, 2):
                        spec = WorkloadSpec(objects, txns, ops_per_txn=(1, 4), write_probability=0.6, seed=seed)
                        config = SimConfig(
                            seed=seed, num_objects=objects, protocol=protocol, z_param=z,
                            timer_period=7 + seed % 5, timer_jitter=jitter,
                        )
                        trace = run_simulation(spec, config)
                        digest.update(trace.to_json().encode())
                        digest.update(repr(verify_protocol_guarantees(trace)).encode())
        assert digest.hexdigest() == "980d545b74b2512cf48b229305b697384e45d2fe5b59b7022cae7e7cbdc4399a"


class TestSimulationOracle:
    # 320 configurations: both protocols, z up to 4, timer jitter, skewed
    # access, sizes up to 8 objects x 120 transactions, and message delays
    # of up to 40 ticks on half the seeds, which reorder deliveries more.
    @pytest.mark.parametrize("objects, txns", [(3, 20), (5, 40), (6, 80), (8, 120)])
    @pytest.mark.parametrize("protocol, z", [("A", 1), ("B", 1), ("B", 2), ("B", 3), ("B", 4)])
    def test_event_loop_matches_the_object_simulator(self, objects, txns, protocol, z):
        for jitter in (0, 3):
            for skew in (0.0, 0.8):
                for seed in range(1, 5):
                    spec = WorkloadSpec(
                        objects, txns, ops_per_txn=(1, 4), write_probability=0.6, access_skew=skew, seed=seed
                    )
                    config = SimConfig(
                        seed=seed, num_objects=objects, protocol=protocol, z_param=z,
                        timer_period=2 + 5 * seed, timer_jitter=jitter,
                        message_delay_range=(1, 10 if seed % 2 else 40),
                    )
                    got, want = run_simulation(spec, config), simulation_oracle(spec, config)
                    assert got.events == want.events, (seed, jitter, skew)
                    assert got.checkpoint_log == want.checkpoint_log, (seed, jitter, skew)
                    assert got.to_json() == want.to_json(), (seed, jitter, skew)


def replay_checkpoint_log(trace):
    """The checkpoint log rebuilt from the trace's events by conftest's
    reference steps.

    Each lock_acquired event reads the index its data manager holds at that
    point; each txn_commit builds its commit messages with
    tm_commit_metadata from those reads; each timer_expired event runs
    dm_on_timer and each commit_msg_delivered event runs dm_on_commit or
    dm_on_release (chosen by apply) on that message.  Every step is checked
    against what the event says.
    """
    m = trace.config.num_objects
    z = trace.config.z
    txns = {t.id: t for t in trace.execution.transactions}
    dms = [DataManagerState(obj) for obj in range(m)]
    log = [initial_record(obj) for obj in range(m)]
    observed: dict[int, dict[int, int]] = {}
    messages = {}
    for data in trace.to_dict()["events"]:
        if data["kind"] == EV_LOCK_ACQUIRED:
            observed.setdefault(data["txn"], {})[data["obj"]] = dms[data["obj"]].index
            continue
        if data["kind"] == EV_TXN_COMMIT:
            for msg in tm_commit_metadata(txns[data["txn"]], observed[data["txn"]]):
                assert msg.max_index == data["max_index"], data
                messages[(msg.txn, msg.dest)] = msg
            continue
        if data["kind"] == EV_TIMER:
            obj = data["obj"]
            dm, record = dm_on_timer(dms[obj], data["time"])
            assert dm.index == data["index"], data
        elif data["kind"] == EV_COMMIT_MSG:
            obj = data["obj"]
            msg = messages.pop((data["txn"], obj))
            assert msg.max_index == data["max_index"], data
            step = dm_on_commit if data["apply"] else dm_on_release
            dm, record = step(dms[obj], msg, z, data["time"])
            assert data["forced"] == (record is not None), data
        else:
            continue
        dms[obj] = dm
        if record is not None:
            log.append(record)
    assert not messages
    return tuple(log)


class TestReplay:
    @pytest.mark.parametrize("protocol, z", [("A", 1), ("B", 2), ("B", 3)])
    @pytest.mark.parametrize("jitter", [0, 3])
    def test_public_steps_reproduce_the_checkpoint_log(self, protocol, z, jitter):
        forced = 0
        for seed in range(1, 9):
            trace = run(seed=seed, txns=60, objects=5, protocol=protocol, z=z, timer=4 + seed, jitter=jitter)
            assert replay_checkpoint_log(trace) == trace.checkpoint_log, seed
            forced += sum(r.kind == "forced" for r in trace.checkpoint_log)
        assert forced


class TestConfigValidation:
    def test_rejects_unknown_protocol(self):
        with pytest.raises(SimulationError):
            SimConfig(seed=0, num_objects=1, protocol="C")

    def test_rejects_bad_ranges(self):
        with pytest.raises(SimulationError):
            SimConfig(seed=0, num_objects=1, message_delay_range=(5, 2))
        with pytest.raises(SimulationError):
            SimConfig(seed=0, num_objects=1, timer_period=0)

    def test_rejects_object_count_mismatch(self):
        workload = WorkloadSpec(num_objects=2, num_txns=1)
        with pytest.raises(SimulationError, match="object count"):
            run_simulation(workload, SimConfig(seed=0, num_objects=3))

    @pytest.mark.parametrize("section", ["config", "workload"])
    def test_trace_rejects_object_count_mismatch(self, section):
        data = run(seed=2, objects=4).to_dict()
        data[section]["num_objects"] = 7
        with pytest.raises(SimulationError, match=f"trace.{section}.num_objects: 7 disagrees"):
            Trace.from_dict(data)


class TestExecutionShape:
    def test_all_transactions_commit(self):
        trace = run(seed=1, txns=20)
        assert len(trace.execution.commit_order) == 20

    def test_serialization_graph_acyclic(self):
        trace = run(seed=2, txns=25, objects=3)
        graph = build_serialization_graph(trace.execution)
        position = {t: i for i, t in enumerate(trace.execution.commit_order)}
        for i, j in graph.direct_edges:
            assert position[i] < position[j]

    def test_every_message_delivered_exactly_once(self):
        trace = run(seed=3, txns=15)
        sent = sum(len(t.access_set) for t in trace.execution.transactions)
        delivered = [row for row in trace.events if row[1] == EV_COMMIT_MSG]
        assert len(delivered) == sent

    def test_lock_observes_index_before_commit(self):
        trace = run(seed=4, txns=10)
        events = trace.to_dict()["events"]
        commits = {e["txn"]: e["time"] for e in events if e["kind"] == EV_TXN_COMMIT}
        for e in events:
            if e["kind"] == EV_LOCK_ACQUIRED:
                assert e["time"] <= commits[e["txn"]]

    def test_versions_follow_commit_order(self):
        # Writes to an object apply in commit order even with delivery skew.
        trace = run(seed=7, txns=18, delays=(1, 25))
        position = {t: i for i, t in enumerate(trace.execution.commit_order)}
        applies: dict[int, list[int]] = {}
        for data in trace.to_dict()["events"]:
            if data["kind"] == EV_COMMIT_MSG and data["apply"]:
                applies.setdefault(data["obj"], []).append(position[data["txn"]])
        for order in applies.values():
            assert order == sorted(order)


class TestCheckpointBehavior:
    def test_single_transaction_huge_timer_no_checkpoints(self):
        workload = WorkloadSpec(num_objects=2, num_txns=1, write_probability=1.0, seed=0)
        config = SimConfig(seed=0, num_objects=2, timer_period=10**6)
        trace = run_simulation(workload, config)
        assert all(r.kind == "initial" for r in trace.checkpoint_log)

    def test_zero_transactions_only_initials(self):
        workload = WorkloadSpec(num_objects=3, num_txns=0, seed=0)
        trace = run_simulation(workload, SimConfig(seed=0, num_objects=3, timer_period=5))
        assert [r.kind for r in trace.checkpoint_log] == ["initial"] * 3
        assert trace.events == ()

    def test_basic_checkpoints_appear_with_small_timer(self):
        trace = run(seed=8, txns=10, timer=3)
        kinds = {r.kind for r in trace.checkpoint_log}
        assert "basic" in kinds

    @pytest.mark.parametrize("protocol, z", [("A", 1), ("B", 2), ("B", 3)])
    def test_basic_checkpoints_keep_the_timer_period(self, protocol, z):
        # Without jitter, every checkpoint (re)arms its object's timer one
        # period ahead, and an expiry during a write re-arms it once more.
        basic = forced = 0
        for seed in range(20):
            for period in range(3, 9):
                trace = run(seed=seed, txns=60, objects=5, protocol=protocol, z=z, timer=period)
                last = {}
                for r in trace.checkpoint_log:
                    if r.kind == "basic":
                        gap = r.time - last[r.obj]
                        assert gap > 0 and gap % period == 0, (seed, period, r)
                        basic += 1
                    forced += r.kind == "forced"
                    last[r.obj] = r.time
        assert basic > 10000 and forced > 1000

    def test_indices_strictly_increase_per_object(self):
        trace = run(seed=11, txns=30, timer=4, protocol="B", z=2)
        per_obj: dict[int, list[int]] = {}
        for r in trace.checkpoint_log:
            per_obj.setdefault(r.obj, []).append(r.index)
        for indices in per_obj.values():
            assert all(a < b for a, b in zip(indices, indices[1:]))

    def test_forced_checkpoint_snapshots_pre_commit_version(self):
        # A forced checkpoint's version must be strictly below the version the
        # triggering write produces, and the triggering delivery follows it.
        trace = run(seed=13, txns=25, timer=5)
        version_after: dict[int, int] = {}
        forced = [r for r in trace.checkpoint_log if r.kind == "forced"]
        assert forced
        events = trace.to_dict()["events"]
        for r in forced:
            writes_before = [
                e for e in events
                if e["kind"] == EV_COMMIT_MSG and e["obj"] == r.obj and e["apply"] and e["time"] <= r.time
            ]
            # the forced snapshot never includes the write that forced it
            assert r.version <= len(writes_before)


def _edited_trace_error(capsys, tmp_path, edit):
    """The error verify reports on a 3 x 6 trace after edit(its config)."""
    out = tmp_path / "trace.json"
    run_cli(capsys, "simulate", "--objects", "3", "--txns", "6", "--out", str(out))
    data = json.loads(out.read_text())
    edit(data["config"])
    out.write_text(json.dumps(data))
    return cli_error(capsys, "verify", str(out))


@pytest.mark.parametrize("case, error", [
    (lambda c, t: cli_error(c, "simulate", "--z", "0"), "z_param must be at least 1"),
    (lambda c, t: cli_error(c, "simulate", "--jitter", "-1"), "timer_jitter must be non-negative"),
    (lambda c, t: _edited_trace_error(c, t, lambda cfg: cfg.update(color=1)), "trace.config: unknown fields ['color']"),
    (lambda c, t: _edited_trace_error(c, t, lambda cfg: cfg.pop("message_delay_range")),
     "trace.config: missing field 'message_delay_range'"),
    (lambda c, t: _edited_trace_error(c, t, lambda cfg: cfg.update(work_delay_range=[1, 2, 3])),
     "trace.config.work_delay_range: expected [lo, hi]"),
], ids=["z", "jitter", "unknown-config-field", "missing-pair", "pair-of-three"])
def test_sim_input_checks(capsys, tmp_path, case, error):
    assert case(capsys, tmp_path) == error
