"""State-level precedence, dependence edges, checkpoint intervals, dependence paths.

Two relations are derived from an execution:

* ``happened_before``: the strict precedence between local states obtained by
  extending the serialization order with each writer's pre/post states and
  taking the transitive closure.

* dependence edges: the atomic state-to-state precedences.  A transaction
  writing objects W contributes one black edge from each of its pre-states to
  each of its post-states (|W| squared edges), and for every transaction pair
  ordered by the (transitively closed) serialization relation, a dashed edge
  runs from each pre-state of the earlier writer to each post-state of the
  later one.  Over this closure the edge set coincides exactly with the
  happened_before pairs, which the test suite checks.

Dependence paths (DP) chain edges through checkpoint intervals.  Timing
convention: a checkpoint saves its version as soon as that version exists, so
an edge *starts* in the interval of its source version, but *arrives* in the
interval of ``target version - 1`` - the target version is created while the
previous version's interval is still the last saved one.  Consequently a path
"arrives before" a checkpoint when its last edge lands at a version less than
or equal to the checkpoint's version.  This convention is what makes the
pairwise DP condition exactly equivalent to brute-force extendability.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .model import (
    LocalState,
    SerializationGraph,
    StateTimeline,
    ValidatedExecution,
    assign_versions,
    build_serialization_graph,
)

BLACK = "black"
DASHED = "dashed"


class AnalysisError(ValueError):
    """A query referenced a state or checkpoint unknown to the analysis."""


@dataclass(frozen=True)
class DependenceEdge:
    """Atomic precedence between two local states.

    kind is black when one transaction's write set produced both endpoints,
    dashed when the serialization order connects two distinct writers.
    via = (source transaction, target transaction).
    """

    source: LocalState
    target: LocalState
    kind: str
    via: tuple[int, int]

    def sort_key(self) -> tuple:
        return (self.source.obj, self.source.version, self.target.obj, self.target.version)


class ExecutionAnalysis:
    """Precomputed derived relations for one validated execution."""

    def __init__(self, execution: ValidatedExecution):
        self.execution = execution
        self.graph: SerializationGraph = build_serialization_graph(execution)
        self.timeline: StateTimeline = assign_versions(execution)
        self.txn_by_id = {t.id: t for t in execution.transactions}
        self.edges: tuple[DependenceEdge, ...] = tuple(
            sorted(self._derive_edges(), key=DependenceEdge.sort_key)
        )

    def _derive_edges(self) -> Iterable[DependenceEdge]:
        timeline = self.timeline
        writers = [t for t in self.execution.transactions if t.write_set]
        for ti in writers:
            pre_states = [LocalState(y, timeline.pre_version[(ti.id, y)]) for y in sorted(ti.write_set)]
            for tj in writers:
                if ti.id == tj.id:
                    kind = BLACK
                elif self.graph.reaches(ti.id, tj.id):
                    kind = DASHED
                else:
                    continue
                for src in pre_states:
                    for x in sorted(tj.write_set):
                        target = LocalState(x, timeline.post_version[(tj.id, x)])
                        yield DependenceEdge(src, target, kind, (ti.id, tj.id))

    def happened_before(self, a: LocalState, b: LocalState) -> bool:
        """True iff state a strictly precedes state b.

        a reaches forward only through the writer that replaces it; b is
        reachable only through the writer that produced it.
        """
        for s in (a, b):
            if not self.timeline.has_state(s):
                raise AnalysisError(f"unknown state {s}")
        out_writer = self.timeline.writer_of(a.obj, a.version + 1)
        in_writer = self.timeline.writer_of(b.obj, b.version)
        if out_writer is None or in_writer is None:
            return False
        return out_writer == in_writer or self.graph.reaches(out_writer, in_writer)


class PatternError(ValueError):
    """Invalid checkpoint pattern."""


@dataclass(frozen=True)
class CheckpointPattern:
    """Per object, the strictly increasing versions saved as checkpoints."""

    versions: tuple[tuple[int, ...], ...]

    @staticmethod
    def make(raw: Mapping[int, Iterable[int]], timeline: StateTimeline) -> "CheckpointPattern":
        """Build and validate a pattern; version 0 is added for every object."""
        per_obj: list[tuple[int, ...]] = []
        for obj in range(timeline.num_objects):
            vs = sorted(set(raw.get(obj, ())) | {0})
            if vs[0] < 0:
                raise PatternError(f"object {obj}: negative checkpoint version")
            if vs[-1] > timeline.max_version(obj):
                raise PatternError(
                    f"object {obj}: checkpoint version {vs[-1]} beyond last version "
                    f"{timeline.max_version(obj)}"
                )
            per_obj.append(tuple(vs))
        return CheckpointPattern(tuple(per_obj))

    def with_final_states(self, timeline: StateTimeline) -> "CheckpointPattern":
        """Add each object's latest version as a checkpoint if absent.

        Every object's current state is eventually saved; closing the pattern
        this way is what makes the pairwise DP condition match brute-force
        extendability on a finite execution, and it never changes DP answers
        between pre-existing checkpoints.
        """
        return CheckpointPattern(
            tuple(
                vs if vs[-1] == timeline.max_version(obj) else vs + (timeline.max_version(obj),)
                for obj, vs in enumerate(self.versions)
            )
        )

    @property
    def num_objects(self) -> int:
        return len(self.versions)

    def ranks(self, obj: int) -> range:
        return range(len(self.versions[obj]))

    def version_of(self, obj: int, rank: int) -> int:
        try:
            if rank >= 0:
                return self.versions[obj][rank]
        except IndexError:
            pass
        raise AnalysisError(f"object {obj} has no checkpoint of rank {rank}")

    def rank_of(self, obj: int, version: int) -> int:
        try:
            return self.versions[obj].index(version)
        except ValueError:
            raise AnalysisError(f"version {version} of object {obj} is not checkpointed") from None


@dataclass(frozen=True)
class Checkpoint:
    """The rank-th saved state of an object."""

    obj: int
    rank: int
    state: LocalState

    def __repr__(self) -> str:
        return f"C({self.obj},#{self.rank}=v{self.state.version})"


@dataclass(frozen=True)
class Interval:
    """States from one checkpoint up to (excluding) the next one."""

    obj: int
    rank: int
    start: int
    end: int  # inclusive

    def __contains__(self, version: int) -> bool:
        return self.start <= version <= self.end


def build_intervals(pattern: CheckpointPattern, timeline: StateTimeline) -> dict[LocalState, Interval]:
    """Assign every local state to exactly one interval of the given pattern.

    The last checkpoint's interval runs to the object's latest state.
    """
    assignment: dict[LocalState, Interval] = {}
    for obj in range(timeline.num_objects):
        vs = pattern.versions[obj]
        for rank, start in enumerate(vs):
            end = vs[rank + 1] - 1 if rank + 1 < len(vs) else timeline.max_version(obj)
            interval = Interval(obj, rank, start, end)
            for version in range(start, end + 1):
                assignment[LocalState(obj, version)] = interval
    return assignment


Node = tuple[int, int]  # (object, interval rank)


class CheckpointAnalysis:
    """Dependence-path reachability for one execution and checkpoint pattern.

    The supplied pattern is closed with each object's final state before
    intervals are formed (see CheckpointPattern.with_final_states); ranks of
    the supplied checkpoints are unchanged by the closure.
    """

    def __init__(self, base: ExecutionAnalysis, pattern: CheckpointPattern):
        if pattern.num_objects != base.execution.num_objects:
            raise AnalysisError("pattern and execution disagree on object count")
        CheckpointPattern.make(
            {o: vs for o, vs in enumerate(pattern.versions)}, base.timeline
        )  # revalidate against this timeline
        self.base = base
        self.pattern = pattern.with_final_states(base.timeline)
        self.intervals = build_intervals(self.pattern, base.timeline)
        self._interval_rank = {
            obj: [self.intervals[LocalState(obj, v)].rank for v in range(base.timeline.max_version(obj) + 1)]
            for obj in range(base.timeline.num_objects)
        }
        self._succ: dict[Node, list[Node]] = {}
        self._dep: dict[Node, list[Node]] = {}
        self._dep_witness: dict[tuple[Node, Node], DependenceEdge] = {}
        self._build_interval_graph()
        self._dp_reach = {node: self._reach_with_dependence(node) for node in self._nodes()}

    # -- interval graph ------------------------------------------------------

    def _nodes(self) -> list[Node]:
        return [(obj, rank) for obj in range(self.pattern.num_objects) for rank in self.pattern.ranks(obj)]

    def _build_interval_graph(self) -> None:
        for obj, rank in self._nodes():
            nxt = []
            if rank + 1 in self.pattern.ranks(obj):
                nxt.append((obj, rank + 1))
            self._succ[(obj, rank)] = nxt
            self._dep[(obj, rank)] = []
        dep_pairs: set[tuple[Node, Node]] = set()
        for edge in self.base.edges:
            start = (edge.source.obj, self._interval_rank[edge.source.obj][edge.source.version])
            # The target version comes into being while the previous version's
            # interval is the last one saved: arrival lands there.
            arrive = (edge.target.obj, self._interval_rank[edge.target.obj][edge.target.version - 1])
            pair = (start, arrive)
            if pair not in dep_pairs:
                dep_pairs.add(pair)
                self._dep[start].append(arrive)
                self._dep_witness[pair] = edge
        for node in self._dep:
            self._dep[node].sort()

    def _reach_with_dependence(self, origin: Node) -> frozenset[Node]:
        """Interval nodes reachable from origin using at least one dependence edge."""
        seen: set[tuple[Node, bool]] = {(origin, False)}
        queue = deque([(origin, False)])
        reached: set[Node] = set()
        while queue:
            node, used = queue.popleft()
            for nxt in self._succ[node]:
                if (nxt, used) not in seen:
                    seen.add((nxt, used))
                    queue.append((nxt, used))
            for nxt in self._dep[node]:
                if (nxt, True) not in seen:
                    seen.add((nxt, True))
                    queue.append((nxt, True))
        for node, used in seen:
            if used:
                reached.add(node)
        return frozenset(reached)

    # -- checkpoints ---------------------------------------------------------

    def checkpoint(self, obj: int, rank: int) -> Checkpoint:
        return Checkpoint(obj, rank, LocalState(obj, self.pattern.version_of(obj, rank)))

    def checkpoint_at_version(self, obj: int, version: int) -> Checkpoint:
        return self.checkpoint(obj, self.pattern.rank_of(obj, version))

    def checkpoints(self, obj: int) -> list[Checkpoint]:
        return [self.checkpoint(obj, r) for r in self.pattern.ranks(obj)]

    # -- dependence paths ----------------------------------------------------

    def dp_reachable(self, src: Checkpoint, dst: Checkpoint) -> bool:
        """True iff a dependence path leads from checkpoint src to checkpoint dst."""
        self.pattern.version_of(src.obj, src.rank)
        self.pattern.version_of(dst.obj, dst.rank)
        if src.obj == dst.obj and src.rank < dst.rank:
            return True
        if dst.rank == 0:
            return False
        return (dst.obj, dst.rank - 1) in self._dp_reach[(src.obj, src.rank)]

    def dp_witness(self, src: Checkpoint, dst: Checkpoint) -> list[DependenceEdge] | None:
        """A concrete edge sequence realizing dp_reachable, None if unreachable.

        For a pure same-object rank step the witness is the empty list.
        """
        if not self.dp_reachable(src, dst):
            return None
        origin: Node = (src.obj, src.rank)
        if dst.rank > 0 and (dst.obj, dst.rank - 1) in self._dp_reach[origin]:
            goal = (dst.obj, dst.rank - 1)
            parents: dict[tuple[Node, bool], tuple[tuple[Node, bool], DependenceEdge | None]] = {}
            start_key = (origin, False)
            seen = {start_key}
            queue = deque([start_key])
            goal_key = (goal, True)
            while queue:
                key = queue.popleft()
                if key == goal_key:
                    break
                node, used = key
                for nxt in self._succ[node]:
                    nkey = (nxt, used)
                    if nkey not in seen:
                        seen.add(nkey)
                        parents[nkey] = (key, None)
                        queue.append(nkey)
                for nxt in self._dep[node]:
                    nkey = (nxt, True)
                    if nkey not in seen:
                        seen.add(nkey)
                        parents[nkey] = (key, self._dep_witness[(node, nxt)])
                        queue.append(nkey)
            witness: list[DependenceEdge] = []
            key = goal_key
            while key != start_key:
                key, edge = parents[key]
                if edge is not None:
                    witness.append(edge)
            witness.reverse()
            return witness
        return []  # same-object rank step


def analyze(execution: ValidatedExecution, pattern: CheckpointPattern | None = None,
            raw_checkpoints: Mapping[int, Sequence[int]] | None = None) -> CheckpointAnalysis:
    """Convenience constructor for the full analysis stack."""
    base = ExecutionAnalysis(execution)
    if pattern is None:
        pattern = CheckpointPattern.make(raw_checkpoints or {}, base.timeline)
    return CheckpointAnalysis(base, pattern)
