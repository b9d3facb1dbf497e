"""Shared builders, independent oracles, and hypothesis strategies."""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import pytest
from hypothesis import strategies as st

from txckpt.cli import main
from txckpt.dependence import (
    BLACK,
    DASHED,
    AnalysisError,
    Checkpoint,
    CheckpointAnalysis,
    CheckpointPattern,
    DependenceEdge,
    ExecutionAnalysis,
)
from txckpt.model import (
    Execution,
    LocalState,
    Transaction,
    validate_execution,
)
from txckpt.protocol import (
    KIND_BASIC,
    KIND_FORCED,
    CheckpointRecord,
    forced_index,
    initial_record,
    trace_pattern,
)
from txckpt.scenario import WorkloadSpec, builtin_scenario, resolve_object, workload_transactions
from txckpt.sim import (
    EV_COMMIT_MSG,
    EV_LOCK_ACQUIRED,
    EV_TIMER,
    EV_TXN_BEGIN,
    EV_TXN_COMMIT,
    EVENT_KEYS,
    SimConfig,
    SimulationError,
    Trace,
)
from txckpt.theory import ConditionViolated, GlobalCheckpoint


def run_cli(capsys, *args):
    """A command's exit code and its one JSON report (two would not parse)."""
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out)


def cli_error(capsys, *args):
    """The error of the one report a command prints as it exits 2."""
    code, report = run_cli(capsys, *args)
    assert code == 2 and report["ok"] is False, report
    return report["error"]


def file_error(capsys, tmp_path, data, *args):
    """The error a command reports on the file in.json holding data as JSON;
    each "{file}" in args names that file."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    return cli_error(capsys, *(arg.format(file=path) for arg in args))


def raised(kind, fn, *args):
    """The text of the kind of error fn(*args) raises."""
    with pytest.raises(kind) as info:
        fn(*args)
    return str(info.value)


def make_execution(num_objects, txns, order=None):
    """txns: iterable of (id, reads, writes)."""
    transactions = tuple(Transaction.make(i, r, w) for i, r, w in txns)
    if order is None:
        order = [t.id for t in transactions]
    return validate_execution(Execution(num_objects, transactions, tuple(order)))


def version_oracle(execution) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """Each access's versions by a replay of the commit order: pre[(t, x)] is
    the version of x that transaction t saw when it accessed x, and
    post[(t, x)] = pre + 1 exists only for writes."""
    txn_by_id = {t.id: t for t in execution.transactions}
    pre: dict[tuple[int, int], int] = {}
    post: dict[tuple[int, int], int] = {}
    current = [0] * execution.num_objects
    for txn_id in execution.commit_order:
        txn = txn_by_id[txn_id]
        for obj in txn.access_set:
            pre[(txn_id, obj)] = current[obj]
        for obj in sorted(txn.write_set):
            current[obj] += 1
            post[(txn_id, obj)] = current[obj]
    return pre, post


def all_states(timeline) -> list[LocalState]:
    """Every state of the timeline, by object, then version."""
    return [LocalState(obj, v) for obj, on_obj in enumerate(timeline.writers) for v in range(len(on_obj) + 1)]


def hb_oracle(execution, a: LocalState, b: LocalState) -> bool:
    """Happened-before by explicit search of the extended relation.

    Nodes are states plus transactions; each writer links its pre-state to
    itself and itself to its post-state, and conflicting transaction pairs
    are linked in commit order.  Strict reachability between the two states
    is the answer.
    """
    pre, post = version_oracle(execution)
    txn_by_id = {t.id: t for t in execution.transactions}
    adj: dict[object, list[object]] = {}

    def link(u, v):
        adj.setdefault(u, []).append(v)

    for txn_id in execution.commit_order:
        txn = txn_by_id[txn_id]
        for obj in txn.write_set:
            link(LocalState(obj, pre[(txn_id, obj)]), ("t", txn_id))
            link(("t", txn_id), LocalState(obj, post[(txn_id, obj)]))
    order = list(execution.commit_order)
    for i, ti in enumerate(order):
        for tj in order[i + 1 :]:
            a_t, b_t = txn_by_id[ti], txn_by_id[tj]
            if (a_t.write_set & b_t.access_set) or (a_t.read_set & b_t.write_set):
                link(("t", ti), ("t", tj))
    seen = set()
    queue = deque(adj.get(a, []))
    while queue:
        node = queue.popleft()
        if node in seen:
            continue
        seen.add(node)
        if node == b:
            return True
        queue.extend(adj.get(node, []))
    return False


class Interval(NamedTuple):
    """States start..end (inclusive) of an object, from its rank-th checkpoint
    up to the next one."""

    obj: int
    rank: int
    start: int
    end: int


def build_intervals(pattern: CheckpointPattern, timeline) -> dict[LocalState, Interval]:
    """Every local state's interval under the pattern; the last checkpoint's
    interval runs to the object's latest state."""
    assignment: dict[LocalState, Interval] = {}
    for obj in range(timeline.num_objects):
        vs = pattern.versions[obj]
        for rank, start in enumerate(vs):
            end = vs[rank + 1] - 1 if rank + 1 < len(vs) else timeline.max_version(obj)
            for version in range(start, end + 1):
                assignment[LocalState(obj, version)] = Interval(obj, rank, start, end)
    return assignment


@functools.lru_cache(maxsize=64)
def state_intervals(analysis: CheckpointAnalysis) -> dict[LocalState, Interval]:
    """build_intervals over the analysis's closed pattern."""
    return build_intervals(analysis.pattern, analysis.base.timeline)


def recovery_line_violations(line, base: ExecutionAnalysis) -> list[DependenceEdge]:
    """The dependence edges that cross a recovery line, read as messages.

    line maps every object to the version its member checkpoint saved.  Each
    dependence edge is a message, sent in the interval of its source version
    and received in the interval of its target version - 1 (the timing
    convention of txckpt.dependence).  It is an orphan when the line records
    its receipt (target version <= the line's version of that object) but not
    its send (source version >= the line's version of that object: the state
    the message leaves is replaced only after the checkpoint).  A line is
    consistent exactly when no message is an orphan.
    """
    assert set(line) == set(range(base.execution.num_objects))
    return [
        e for e in base.edges
        if e.source.version >= line[e.source.obj] and e.target.version <= line[e.target.obj]
    ]


def recovery_line_check(line, base: ExecutionAnalysis) -> bool:
    """True iff no message crosses the line (agrees with consistency)."""
    return not recovery_line_violations(line, base)


def version_vector(gc) -> tuple[int, ...]:
    """A global checkpoint's saved versions, in object order."""
    return tuple(c.version for c in gc.members)


def dp_oracle(analysis: CheckpointAnalysis, src, dst) -> bool:
    """Dependence-path reachability by direct search over edge sequences.

    A chain may continue from any edge whose source version's interval is at
    least the interval in which the previous edge arrived (the interval of
    target version - 1); it succeeds when an edge lands at or below the
    destination checkpoint's version.
    """
    if src.obj == dst.obj and src.rank < dst.rank:
        return True
    interval_rank = lambda obj, ver: state_intervals(analysis)[LocalState(obj, ver)].rank
    edges = analysis.base.edges
    start_floor = analysis.pattern.versions[src.obj][src.rank]
    frontier = deque()
    seen = set()
    for e in edges:
        if e.source.obj == src.obj and e.source.version >= start_floor:
            frontier.append(e)
    while frontier:
        e = frontier.popleft()
        key = (e.source, e.target)
        if key in seen:
            continue
        seen.add(key)
        if e.target.obj == dst.obj and e.target.version <= analysis.pattern.versions[dst.obj][dst.rank]:
            return True
        arrived = interval_rank(e.target.obj, e.target.version - 1)
        for nxt in edges:
            if nxt.source.obj == e.target.obj and interval_rank(nxt.source.obj, nxt.source.version) >= arrived:
                frontier.append(nxt)
    return False


def interval_dp_distances(analysis: CheckpointAnalysis) -> dict:
    """Per origin interval, the fewest dependence edges on a path to each
    interval, over paths with at least one edge: a 0-1 BFS over the interval
    graph of the materialized edge set.

    Nodes are (object, interval rank).  An interval steps to the next one of
    its object at no cost; each dependence edge joins the interval of its
    source version to the interval of its target version - 1 at cost one.
    The search state also records whether an edge has been used yet.
    """
    rank = lambda obj, version: state_intervals(analysis)[LocalState(obj, version)].rank
    dep: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for e in analysis.base.edges:
        dep.setdefault((e.source.obj, rank(e.source.obj, e.source.version)), set()).add(
            (e.target.obj, rank(e.target.obj, e.target.version - 1))
        )
    out = {}
    for obj in range(analysis.pattern.num_objects):
        for origin_rank in analysis.pattern.ranks(obj):
            start = ((obj, origin_rank), False)
            dist = {start: 0}
            queue = deque([start])
            while queue:
                state = queue.popleft()
                (o, r), used = state
                moves = [(((o, r + 1), used), 0)] if r + 1 in analysis.pattern.ranks(o) else []
                moves += [((node, True), 1) for node in dep.get((o, r), ())]
                for nxt, cost in moves:
                    if dist[state] + cost < dist.get(nxt, float("inf")):
                        dist[nxt] = dist[state] + cost
                        queue.appendleft(nxt) if cost == 0 else queue.append(nxt)
            out[(obj, origin_rank)] = {node: d for (node, used), d in dist.items() if used}
    return out


def interval_dp_reachable(distances: dict, src, dst) -> bool:
    """dp_reachable read from interval_dp_distances."""
    if src.obj == dst.obj and src.rank < dst.rank:
        return True
    return (dst.obj, dst.rank - 1) in distances[(src.obj, src.rank)]


def assert_witness_chain(analysis: CheckpointAnalysis, distances: dict, src, dst) -> None:
    """dp_witness(src, dst) is None, [] or a fewest-edge chain, as the oracle says.

    The first edge leaves src's object from its interval or a later one; each
    next edge leaves the previous target's object from the interval the
    previous edge arrived in (that of target version - 1) or a later one; the
    last arrives on dst's object before dst's interval.
    """
    witness = analysis.dp_witness(src, dst)
    fewest = distances[(src.obj, src.rank)].get((dst.obj, dst.rank - 1))
    if not interval_dp_reachable(distances, src, dst):
        assert witness is None
        return
    if fewest is None:
        assert witness == []
        return
    assert len(witness) == fewest
    edges = set(analysis.base.edges)
    rank = lambda obj, version: state_intervals(analysis)[LocalState(obj, version)].rank
    obj, floor = src.obj, src.rank
    for e in witness:
        assert e in edges
        assert e.source.obj == obj and rank(obj, e.source.version) >= floor
        obj, floor = e.target.obj, rank(e.target.obj, e.target.version - 1)
    assert obj == dst.obj and floor <= dst.rank - 1


def reach_oracle(analysis: CheckpointAnalysis, obj: int, rank: int):
    """The whole search out of interval (obj, rank), layer by layer, as
    CheckpointAnalysis' reach tuples were once built: the writers of obj from
    interval rank upward start, each claiming its chain closure, and every
    landing of a layer's writer starts the landed object's writers from that
    interval upward as the next layer.

    Returns reach (per object, the lowest interval landed in, else its
    interval count), each visited transaction's parent - (previous, None)
    after a hop, (landing transaction or None, object entered) at a start -
    and per object the (interval, transaction) landings that lowered reach,
    in search order.
    """
    versions = analysis.pattern.versions
    timeline, hops = analysis.base.timeline, analysis.base.graph.successors
    landings: dict[int, list[tuple[int, int]]] = {}
    for (txn, x), post in sorted(version_oracle(analysis.base.execution)[1].items()):
        landings.setdefault(txn, []).append((x, bisect.bisect_right(versions[x], post - 1) - 1))
    reach = [len(vs) for vs in versions]
    started = list(reach)
    parent: dict[int, tuple] = {}
    lowered: list[list[tuple[int, int]]] = [[] for _ in versions]

    def start(x, rank, via, layer):
        stop = versions[x][started[x]] if started[x] < len(versions[x]) else None
        for txn in timeline.writers[x][versions[x][rank]:stop]:
            if txn not in parent:
                parent[txn] = (via, x)
                i = len(layer)
                layer.append(txn)
                while i < len(layer):
                    for nxt in hops[layer[i]]:
                        if nxt not in parent:
                            parent[nxt] = (layer[i], None)
                            layer.append(nxt)
                    i += 1
        started[x] = rank

    layer: list[int] = []
    start(obj, rank, None, layer)
    while layer:
        following: list[int] = []
        for txn in layer:
            for x, landed in landings.get(txn, ()):
                if landed < reach[x]:
                    reach[x] = landed
                    lowered[x].append((landed, txn))
                if landed < started[x]:
                    start(x, landed, txn, following)
        layer = following
    return reach, parent, lowered


def bar_oracle(analysis: CheckpointAnalysis, weight, src) -> float:
    """min_reached for one checkpoint, read through min_reachable_ranks: the
    least weight at the least rank reached on each object."""
    least = analysis.min_reachable_ranks(src)
    return min(
        (row[rank] for row, rank in zip(weight, least) if rank < len(row)), default=float("inf")
    )


def witness_oracle(analysis: CheckpointAnalysis, src, dst):
    """dp_witness by the whole search: expand every chain reachable from
    src's interval (reach_oracle) and rebuild the path from the first
    landing on dst's object below dst's rank.
    """
    if not analysis.dp_reachable(src, dst):
        return None
    pre, post = version_oracle(analysis.base.execution)
    _, parent, lowered = reach_oracle(analysis, src.obj, src.rank)
    found = [txn for rank, txn in lowered[dst.obj] if rank < dst.rank]
    if not found:
        return []  # same-object rank step
    last, obj = found[0], dst.obj
    witness = []
    while last is not None:
        first = last
        while parent[first][1] is None:
            first = parent[first][0]
        via, entry = parent[first]
        source = LocalState(entry, pre[(first, entry)])
        target = LocalState(obj, post[(last, obj)])
        witness.append(DependenceEdge(source, target, BLACK if first == last else DASHED, (first, last)))
        last, obj = via, entry
    return witness[::-1]


def serialization_closure_oracle(execution) -> dict[int, frozenset[int]]:
    """The serialization order by all pairs: every commit-order pair that
    conflicts (both access an object, one of them writes it) is an edge, and
    the closure is collected backwards in commit order.
    """
    txn_by_id = {t.id: t for t in execution.transactions}
    order = execution.commit_order
    succ: dict[int, set[int]] = {i: set() for i in order}
    for pos_i in range(len(order) - 1, -1, -1):
        i = order[pos_i]
        ti = txn_by_id[i]
        for j in order[pos_i + 1 :]:
            tj = txn_by_id[j]
            if (ti.write_set & tj.access_set) or (ti.read_set & tj.write_set):
                succ[i] |= {j} | succ[j]
    return {i: frozenset(s) for i, s in succ.items()}


def consistent_oracle(states, base: ExecutionAnalysis) -> bool:
    """is_consistent_global_state by happened_before on every pair of members."""
    members = [LocalState(obj, states[obj]) for obj in range(base.execution.num_objects)]
    return not any(
        base.happened_before(a, b) or base.happened_before(b, a)
        for a, b in itertools.combinations(members, 2)
    )


def guarantee_violations_oracle(trace) -> tuple[str, ...]:
    """verify_protocol_guarantees' violations, with every ordered pair of
    scoped checkpoints tested for a dependence path, each equal-index
    assembly filtered from the whole log, each gap-filled assembly taken
    from a sorted candidate list, and consistency tested pairwise.
    """
    z = trace.config.z
    base, analysis = trace_pattern(trace)
    records = list(trace.checkpoint_log)
    violations: list[str] = []
    per_obj: dict[int, list] = {}
    for record in records:
        per_obj.setdefault(record.obj, []).append(record)
    for obj, obj_records in sorted(per_obj.items()):
        indices = [r.index for r in obj_records]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            violations.append(f"object {obj}: checkpoint indices not strictly increasing: {indices}")
    scoped = [r for r in records if r.index % z == 0]
    ckpt_of = {id(r): analysis.checkpoint_at_version(r.obj, r.version) for r in records}
    for record in scoped:
        ck = ckpt_of[id(record)]
        if analysis.dp_reachable(ck, ck):
            violations.append(f"checkpoint {ck} (index {record.index}) has a dependence path to itself")
    for r1 in scoped:
        c1 = ckpt_of[id(r1)]
        for r2 in scoped:
            if r1 is not r2 and analysis.dp_reachable(c1, ckpt_of[id(r2)]) and not r1.index < r2.index:
                violations.append(
                    f"dependence path from {c1} (index {r1.index}) to "
                    f"{ckpt_of[id(r2)]} (index {r2.index}) without index increase"
                )
    objects = set(range(trace.execution.num_objects))
    for n in sorted({r.index for r in scoped}):
        exact = {r.obj: r for r in scoped if r.index == n}
        if set(exact) == objects and not consistent_oracle({o: r.version for o, r in exact.items()}, base):
            violations.append(f"equal-index assembly at index {n} is not consistent")
    if z == 1:
        for n in range(max((r.index for r in records), default=0) + 1):
            picks = [sorted((r for r in per_obj.get(o, []) if r.index >= n), key=lambda r: r.index) for o in sorted(objects)]
            if all(picks) and not consistent_oracle({p[0].obj: p[0].version for p in picks}, base):
                violations.append(f"gap-filled assembly at index {n} is not consistent")
    return tuple(violations)


def checkpoint_oracle(analysis: CheckpointAnalysis, obj: int, rank: int) -> Checkpoint:
    """CheckpointAnalysis.checkpoint of one of objects 0..m-1, as a new
    object per call, not a table entry."""
    if rank not in analysis.pattern.ranks(obj):
        raise AnalysisError(f"object {obj} has no checkpoint of rank {rank}")
    return Checkpoint(obj, rank, analysis.pattern.versions[obj][rank])


def rank_oracle(pattern: CheckpointPattern, obj: int, version: int) -> int:
    """CheckpointPattern.rank_of by a linear scan of obj's versions."""
    try:
        return pattern.versions[obj].index(version)
    except ValueError:
        raise AnalysisError(f"version {version} of object {obj} is not checkpointed") from None


def min_safe_rank_oracle(analysis: CheckpointAnalysis, obj: int, dst) -> int:
    """min_safe_rank by testing obj's ranks upward with dp_reachable."""
    for rank in analysis.pattern.ranks(obj):
        if not analysis.dp_reachable(analysis.checkpoint(obj, rank), dst):
            return rank
    raise AssertionError(f"every rank of object {obj} reaches {dst}")


def safe_ranks_oracle(analysis: CheckpointAnalysis, dst) -> tuple[int, ...]:
    """min_safe_ranks as one bisection per object of the reach column
    toward dst's object, recomputed on every call and never stored."""
    column = analysis._columns[dst.obj] or analysis._column(dst.obj)
    return tuple(bisect.bisect_right(reach, dst.rank - 1) for reach in column)


def stored_safe_rows(analysis: CheckpointAnalysis) -> list[tuple[int, int]]:
    """The (object, rank) of every checkpoint whose min_safe_ranks row is stored."""
    return [(obj, rank) for obj, rows in enumerate(analysis._safe) for rank, row in enumerate(rows) if row is not None]


def extension_oracle(
    candidate, analysis: CheckpointAnalysis
) -> tuple[GlobalCheckpoint, dict[int, dict[int, int]]]:
    """extend_to_global pair by pair: the first member pair in object order
    joined by dp_reachable raises ConditionViolated with witness_oracle's
    path; otherwise each other object takes the greatest, over the members,
    of min_safe_rank_oracle toward that member.  Returns the global
    checkpoint and, per object outside the candidate, its min_safe_rank_oracle
    toward each member (the table of the CLI's extend report)."""
    members = [checkpoint_oracle(analysis, obj, rank) for obj, rank in sorted(candidate.items())]
    for a in members:
        for b in members:
            if analysis.dp_reachable(a, b):
                raise ConditionViolated(a, b, witness_oracle(analysis, a, b) or [])
    chosen, min_safe = [], {}
    for obj in range(analysis.pattern.num_objects):
        if obj in candidate:
            chosen.append(checkpoint_oracle(analysis, obj, candidate[obj]))
            continue
        min_safe[obj] = {member.obj: min_safe_rank_oracle(analysis, obj, member) for member in members}
        chosen.append(checkpoint_oracle(analysis, obj, max(min_safe[obj].values())))
    return GlobalCheckpoint(tuple(chosen)), min_safe


def analysis_for(execution, raw_checkpoints=None) -> CheckpointAnalysis:
    base = ExecutionAnalysis(execution)
    pattern = CheckpointPattern.make(raw_checkpoints or {}, base.timeline)
    return CheckpointAnalysis(base, pattern)


@pytest.fixture(scope="session")
def fig1a():
    return builtin_scenario("fig1a")


@pytest.fixture(scope="session")
def fig1b():
    return builtin_scenario("fig1b")


@pytest.fixture(scope="session")
def fig3():
    return builtin_scenario("fig3")


def scenario_analysis(scenario) -> CheckpointAnalysis:
    return CheckpointAnalysis(ExecutionAnalysis(scenario.execution), scenario.pattern)


def fig3_reconstruction_facts(scenario) -> dict[str, bool]:
    """The three facts the fig3 commit order must reproduce.

    Downstream fig3 tests assert these before trusting anything else:
    transaction 1 precedes transaction 6 in the serialization order,
    transactions 1 and 7 are unrelated in it, and object z has exactly four
    states before its second checkpoint.
    """
    analysis = ExecutionAnalysis(scenario.execution)
    z = resolve_object("z", scenario.object_names)
    z_versions = scenario.pattern.versions[z]
    return {
        "t1_precedes_t6": analysis.graph.reaches(1, 6),
        "t1_t7_unrelated": not analysis.graph.reaches(1, 7) and not analysis.graph.reaches(7, 1),
        "first_z_interval_has_4_states": len(z_versions) >= 2 and z_versions[1] - z_versions[0] == 4,
    }


@st.composite
def executions(draw, max_objects=4, max_txns=6):
    num_objects = draw(st.integers(1, max_objects))
    num_txns = draw(st.integers(0, max_txns))
    txns = []
    for txn_id in range(num_txns):
        objs = draw(
            st.lists(st.integers(0, num_objects - 1), min_size=1, max_size=3, unique=True)
        )
        writes = [o for o in objs if draw(st.booleans())]
        reads = [o for o in objs if o not in writes or draw(st.booleans())]
        if not reads and not writes:
            writes = objs[:1]
        txns.append((txn_id, reads, writes))
    order = draw(st.permutations(range(num_txns)))
    return make_execution(num_objects, txns, order)


@st.composite
def analyses(draw, max_objects=4, max_txns=6, max_extra_checkpoints=2):
    execution = draw(executions(max_objects=max_objects, max_txns=max_txns))
    base = ExecutionAnalysis(execution)
    raw = {}
    for obj in range(execution.num_objects):
        top = base.timeline.max_version(obj)
        if top:
            size = draw(st.integers(0, min(max_extra_checkpoints, top)))
            raw[obj] = draw(
                st.lists(st.integers(1, top), min_size=size, max_size=size, unique=True)
            )
    pattern = CheckpointPattern.make(raw, base.timeline)
    return CheckpointAnalysis(base, pattern)


# The data-manager and transaction-manager steps as functions over frozen
# state objects: the simulation oracle below and the event replay in
# test_sim step through them, and test_protocol pins each step.  The
# forcing decision is txckpt.protocol.forced_index, the rule's one statement.


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True)
class DataManagerState:
    """Checkpointing-relevant state of one object's data manager."""

    obj: int
    index: int = 0
    version: int = 0


@dataclass(frozen=True)
class CommitMessage:
    txn: int
    max_index: int
    dest: int


def tm_commit_metadata(txn: Transaction, observed: Mapping[int, int]) -> list[CommitMessage]:
    """Commit messages for a committing transaction.

    observed maps each accessed object to the index its data manager reported;
    one message per accessed object, in ascending object order, all carrying
    the maximum observed index.  Written objects apply the write on delivery,
    read-only ones release their read lock.
    """
    objs = sorted(txn.access_set)
    missing = [obj for obj in objs if obj not in observed]
    if missing:
        raise ProtocolError(f"transaction {txn.id}: no observed index for objects {missing}")
    max_index = max((observed[obj] for obj in objs), default=0)
    return [CommitMessage(txn.id, max_index, obj) for obj in objs]


def dm_on_timer(dm: DataManagerState, now: int) -> tuple[DataManagerState, CheckpointRecord]:
    """Basic checkpoint: bump the index and save the current version."""
    index = dm.index + 1
    record = CheckpointRecord(dm.obj, index, KIND_BASIC, dm.version, now)
    return DataManagerState(dm.obj, index, dm.version), record


def _forced_step(
    dm: DataManagerState, msg: CommitMessage, z: int, now: int
) -> tuple[DataManagerState, CheckpointRecord | None]:
    if msg.dest != dm.obj:
        raise ProtocolError(f"message for object {msg.dest} delivered to data manager {dm.obj}")
    if z < 1:
        raise ProtocolError("z must be at least 1")
    index = forced_index(dm.index, msg.max_index, z)
    if index is None:
        return dm, None
    record = CheckpointRecord(dm.obj, index, KIND_FORCED, dm.version, now)
    return DataManagerState(dm.obj, index, dm.version), record


def dm_on_commit(
    dm: DataManagerState, msg: CommitMessage, z: int, now: int
) -> tuple[DataManagerState, CheckpointRecord | None]:
    """Commit handling: force a checkpoint when msg names a later epoch.

    The forced checkpoint saves the state before the incoming write applies;
    the write is applied afterwards in either case.
    """
    dm, record = _forced_step(dm, msg, z, now)
    return DataManagerState(dm.obj, dm.index, dm.version + 1), record


def dm_on_release(
    dm: DataManagerState, msg: CommitMessage, z: int, now: int
) -> tuple[DataManagerState, CheckpointRecord | None]:
    """Read-lock release from a committed reader: same forcing rule, no write.

    A committed reader's metadata has to reach the data managers of the
    objects it only read: a transaction that later overwrites such an object
    is serialized after the reader, and without this step its own commit
    metadata could carry a smaller maximum than the reader's, letting a
    checkpoint taken after the overwrite reuse (or undercut) an index that a
    checkpoint before the reader's snapshot already carries.
    """
    return _forced_step(dm, msg, z, now)


class _Lock:
    __slots__ = ("writer", "readers", "queue")

    def __init__(self) -> None:
        self.writer: int | None = None
        self.readers: set[int] = set()
        self.queue: deque[tuple[int, str]] = deque()

    def free_for(self, mode: str) -> bool:
        if mode == "write":
            return self.writer is None and not self.readers
        return self.writer is None


class _TxnRun:
    __slots__ = ("txn", "order", "pos", "observed")

    def __init__(self, txn: Transaction):
        self.txn = txn
        self.order = sorted(txn.access_set)
        self.pos = 0
        self.observed: dict[int, int] = {}

    def mode(self, obj: int) -> str:
        return "write" if obj in self.txn.write_set else "read"


class _SimulationOracle:
    """The simulator as objects: a lock object per data object, a run object
    per transaction, DataManagerState stepped through the dm_on_* steps
    above, commit messages from tm_commit_metadata, and heap payloads
    dispatched by event kind to one method each."""

    def __init__(self, workload: WorkloadSpec, config: SimConfig):
        if workload.num_objects != config.num_objects:
            raise SimulationError("workload and config disagree on object count")
        self.workload = workload
        self.config = config
        self.rng = random.Random(config.seed)
        self.txns = {t.id: _TxnRun(t) for t in workload_transactions(workload)}
        self.locks = [_Lock() for _ in range(config.num_objects)]
        self.dms = [DataManagerState(obj) for obj in range(config.num_objects)]
        self.timer_gen = [0] * config.num_objects
        self.heap: list[tuple[int, int, str, tuple]] = []
        self.seq = 0
        self.now = 0
        self.events: list[tuple] = []  # (time, kind, *values), as the simulator logs them
        self.log: list[CheckpointRecord] = [initial_record(o) for o in range(config.num_objects)]
        self.commit_order: list[int] = []
        self.outstanding_msgs = 0

    def _schedule(self, time: int, kind: str, payload: tuple) -> None:
        heapq.heappush(self.heap, (time, self.seq, kind, payload))
        self.seq += 1

    def _record(self, kind: str, data: tuple[tuple[str, int], ...]) -> None:
        # The oracle names every value, so it checks EVENT_KEYS's key order.
        assert tuple(key for key, _ in data) == EVENT_KEYS[kind], (kind, data)
        self.events.append((self.now, kind, *(value for _, value in data)))

    def _next_deadline(self) -> int:
        jitter = self.rng.randint(0, self.config.timer_jitter) if self.config.timer_jitter else 0
        return self.now + self.config.timer_period + jitter

    def _work_done(self) -> bool:
        return len(self.commit_order) == len(self.txns) and self.outstanding_msgs == 0

    def _grant(self, txn_id: int, obj: int) -> None:
        run = self.txns[txn_id]
        mode = run.mode(obj)
        lock = self.locks[obj]
        if mode == "write":
            lock.writer = txn_id
        else:
            lock.readers.add(txn_id)
        run.observed[obj] = self.dms[obj].index
        self._record(EV_LOCK_ACQUIRED, (("obj", obj), ("txn", txn_id), ("write", int(mode == "write"))))
        run.pos += 1

    def _try_acquire(self, run: _TxnRun) -> bool:
        obj = run.order[run.pos]
        lock = self.locks[obj]
        if not lock.queue and lock.free_for(run.mode(obj)):
            self._grant(run.txn.id, obj)
            return True
        lock.queue.append((run.txn.id, run.mode(obj)))
        return False

    def _pump(self, obj: int) -> None:
        lock = self.locks[obj]
        while lock.queue:
            txn_id, mode = lock.queue[0]
            if not lock.free_for(mode):
                break
            lock.queue.popleft()
            self._grant(txn_id, obj)
            self._advance(self.txns[txn_id])

    def _advance(self, run: _TxnRun) -> None:
        while run.pos < len(run.order):
            if not self._try_acquire(run):
                return
        delay = self.rng.randint(*self.config.work_delay_range)
        self._schedule(self.now + delay, EV_TXN_COMMIT, (run.txn.id,))

    def _on_begin(self, txn_id: int) -> None:
        self._record(EV_TXN_BEGIN, (("txn", txn_id),))
        self._advance(self.txns[txn_id])

    def _on_commit(self, txn_id: int) -> None:
        run = self.txns[txn_id]
        self.commit_order.append(txn_id)
        msgs = tm_commit_metadata(run.txn, run.observed)
        self._record(EV_TXN_COMMIT, (("max_index", msgs[0].max_index), ("txn", txn_id)))
        lo, hi = self.config.message_delay_range
        for msg in msgs:
            self.outstanding_msgs += 1
            self._schedule(self.now + self.rng.randint(lo, hi), EV_COMMIT_MSG, (msg,))

    def _on_delivery(self, msg: CommitMessage) -> None:
        self.outstanding_msgs -= 1
        txn_id, obj = msg.txn, msg.dest
        apply_write = int(obj in self.txns[txn_id].txn.write_set)
        step = dm_on_commit if apply_write else dm_on_release
        deadline = self._next_deadline()
        dm, record = step(self.dms[obj], msg, self.config.z, self.now)
        self.dms[obj] = dm
        if record is not None:
            self.log.append(record)
            self.timer_gen[obj] += 1
            self._schedule(deadline, EV_TIMER, (obj, self.timer_gen[obj]))
        self._record(
            EV_COMMIT_MSG,
            (
                ("apply", apply_write),
                ("forced", int(record is not None)),
                ("max_index", msg.max_index),
                ("obj", obj),
                ("txn", txn_id),
            ),
        )
        if apply_write:
            self.locks[obj].writer = None
        else:
            self.locks[obj].readers.discard(txn_id)
        self._pump(obj)

    def _on_timer(self, obj: int, gen: int) -> None:
        if gen != self.timer_gen[obj] or self._work_done():
            return
        deadline = self._next_deadline()
        if self.locks[obj].writer is not None:
            self._schedule(deadline, EV_TIMER, (obj, gen))
            return
        dm, record = dm_on_timer(self.dms[obj], self.now)
        self.dms[obj] = dm
        self.log.append(record)
        self._record(EV_TIMER, (("index", dm.index), ("obj", obj)))
        self._schedule(deadline, EV_TIMER, (obj, gen))

    def run(self) -> Trace:
        clock = 0
        lo, hi = self.config.arrival_gap_range
        for txn_id in sorted(self.txns):
            clock += self.rng.randint(lo, hi)
            self._schedule(clock, EV_TXN_BEGIN, (txn_id,))
        for obj in range(self.config.num_objects):
            self._schedule(self._next_deadline(), EV_TIMER, (obj, 0))
        while self.heap:
            time, _, kind, payload = heapq.heappop(self.heap)
            self.now = time
            if kind == EV_TXN_BEGIN:
                self._on_begin(*payload)
            elif kind == EV_TXN_COMMIT:
                self._on_commit(*payload)
            elif kind == EV_COMMIT_MSG:
                self._on_delivery(*payload)
            else:
                self._on_timer(*payload)
        execution = validate_execution(
            Execution(
                self.config.num_objects,
                tuple(self.txns[i].txn for i in sorted(self.txns)),
                tuple(self.commit_order),
            )
        )
        for obj in range(self.config.num_objects):
            count = sum(1 for t in self.txns.values() if obj in t.txn.write_set)
            if self.dms[obj].version != count:
                raise SimulationError(f"object {obj}: undelivered writes at end of run")
        return Trace(self.config, self.workload, execution, tuple(self.events), tuple(self.log))


def simulation_oracle(workload: WorkloadSpec, config: SimConfig) -> Trace:
    """run_simulation as per-object lock and data-manager objects (see
    _SimulationOracle); the integer event loop must match it byte for byte."""
    return _SimulationOracle(workload, config).run()
