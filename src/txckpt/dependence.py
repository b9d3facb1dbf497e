"""State-level precedence, checkpoint patterns, dependence paths.

``happened_before`` is the strict precedence between local states obtained by
extending the serialization order with each writer's pre/post states and
taking the transitive closure.  Its atomic steps are dependence edges: a
writer of objects W has a black edge from each pre-state to each post-state
(|W| squared), and each serialization-ordered writer pair a dashed edge from
each pre-state of the earlier to each post-state of the later.  That
O(n^2 k^2) edge set is built only on first use of ``ExecutionAnalysis.edges``:
nothing in the library reads it, the tests check the path search against it.

Dependence paths (DP) chain edges through checkpoint intervals.  Timing
convention: a checkpoint saves its version as soon as that version exists, so
an edge *starts* in the interval of its source version, but *arrives* in the
interval of ``target version - 1`` - the target version is created while the
previous version's interval is still the last saved one.  Consequently a path
"arrives before" a checkpoint when its last edge lands at a version less than
or equal to the checkpoint's version.  This convention is what makes the
pairwise DP condition exactly equivalent to brute-force extendability.

Paths are searched over transactions, as Netzer and Xu's zigzag paths are,
not over the edge set.  The serialization order is the closure of each
object's conflict chain (writer of version k -> its readers -> writer of
version k+1): a path starts at the writers of its origin interval, follows
chains, and lands in the interval of each visited writer's pre-version of an
object it writes, where that object's later writers carry it on.  So each
interval's reach is one tuple: per object, the lowest interval reached.
A witness search stops at the first transaction that lands below its
destination checkpoint, rather than expanding every chain it could reach.

The reach tuples are stored by column: per object and per destination
object, the lowest interval reached, in rank order.  A column never
decreases with rank, because a path that leaves from a rank also leaves
from every lower rank (a lower interval starts every writer a higher one
starts).  So the ranks of an object whose checkpoints reach a destination
form a prefix, and ``min_safe_ranks`` finds each object's least safe rank
toward one checkpoint with one plain bisection per object.

A CheckpointAnalysis builds each Checkpoint of its closed pattern once, in a
table with one tuple per object in rank order; queries return its entries
instead of new objects, and a saved version's rank is a bisection of the
object's sorted versions, O(log k) for k checkpoints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

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


class ExecutionAnalysis:
    """Precomputed derived relations for one validated execution."""

    def __init__(self, execution: ValidatedExecution):
        self.execution = execution
        self.graph: SerializationGraph = build_serialization_graph(execution)
        self.timeline: StateTimeline = assign_versions(execution)

    @cached_property
    def edges(self) -> tuple[DependenceEdge, ...]:
        """Every dependence edge, sorted by endpoints; O(n^2 k^2), built on first use."""
        timeline = self.timeline
        writers = [t for t in self.execution.transactions if t.write_set]
        edges = []
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
                        edges.append(DependenceEdge(src, target, kind, (ti.id, tj.id)))
        return tuple(sorted(edges, key=lambda e: (e.source, e.target)))

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
        vs = self.versions[obj]
        try:
            rank = bisect_left(vs, version)
        except TypeError:  # not comparable with a version: not one of them
            rank = len(vs)
        if rank < len(vs) and vs[rank] == version:
            return rank
        raise AnalysisError(f"version {version} of object {obj} is not checkpointed")


@dataclass(frozen=True)
class Checkpoint:
    """The rank-th saved state of an object."""

    obj: int
    rank: int
    state: LocalState

    def __repr__(self) -> str:
        return f"C({self.obj},#{self.rank}=v{self.state.version})"


class CheckpointAnalysis:
    """Dependence-path reachability for one execution and checkpoint pattern.

    The supplied pattern must be as CheckpointPattern.make builds it, each
    object's versions strictly increasing from 0; it is closed with each
    object's final state before intervals are formed (see
    CheckpointPattern.with_final_states), and ranks of the supplied
    checkpoints are unchanged by the closure.
    """

    def __init__(self, base: ExecutionAnalysis, pattern: CheckpointPattern):
        if pattern.num_objects != base.execution.num_objects:
            raise AnalysisError("pattern and execution disagree on object count")
        made = CheckpointPattern.make({o: vs for o, vs in enumerate(pattern.versions)}, base.timeline)
        # Ranks index the caller's tuples, so a pattern that make would
        # reorder, deduplicate or extend with version 0 is rejected, not fixed.
        for obj, (given, valid) in enumerate(zip(pattern.versions, made.versions)):
            if given != valid:
                raise PatternError(f"object {obj}: checkpoint versions {given} are not strictly increasing from 0")
        self.base = base
        self.pattern = pattern.with_final_states(base.timeline)
        timeline, versions = base.timeline, self.pattern.versions
        # Per object, its checkpoints in rank order: queries hand these out
        # rather than building new ones.
        self.checkpoints: tuple[tuple[Checkpoint, ...], ...] = tuple(
            tuple(Checkpoint(obj, rank, LocalState(obj, v)) for rank, v in enumerate(vs))
            for obj, vs in enumerate(versions)
        )
        # Per transaction: its landings (written object, interval of its
        # pre-version there).  Paths hop along the serialization graph's
        # conflict-chain successors.
        landings: dict[int, list[tuple[int, int]]] = {t.id: [] for t in base.execution.transactions}
        for (txn, obj), post in timeline.post_version.items():
            landings[txn].append((obj, bisect_right(versions[obj], post - 1) - 1))
        self._landings = {txn: sorted(landed) for txn, landed in landings.items()}
        # Per object and destination object: the column of the reach tuples
        # of its intervals, _reach[obj][y][rank], non-decreasing in rank.
        self._reach: list[tuple[tuple[int, ...], ...]] = []
        for obj, vs in enumerate(versions):
            rows = [tuple(reach) for reach, _, _ in self._search(obj, range(len(vs) - 1, -1, -1))]
            self._reach.append(tuple(zip(*reversed(rows))))

    def _search(
        self, obj: int, ranks: Iterable[int], goal: frozenset[int] = frozenset()
    ) -> Iterator[tuple[list[int], dict, int | None]]:
        """Paths out of intervals (obj, rank), one layer per dependence edge.

        For each rank in turn (descending, each search extends the last) the
        writers of obj from interval rank upward start, each followed by its
        chain closure.  Every landing of a layer's writer lowers reach and
        starts the landed object's writers as the next layer.  Yields reach
        (per object the lowest interval landed in, else its interval count),
        each visited transaction's parent - (previous, None) after a hop,
        (landing transaction or None, object entered) at a start - and the
        first visited transaction in goal, at which the search stops (None
        when it visits none).  Layers are scanned in the order their
        transactions joined, so that is the first goal transaction a full
        search would scan.
        """
        versions = self.pattern.versions
        writers = self.base.timeline.writers
        hops = self.base.graph.successors
        landings = self._landings
        reach = [len(vs) for vs in versions]
        started = list(reach)
        parent: dict[int, tuple[int | None, int | None]] = {}

        def start(x: int, rank: int, via: int | None, layer: list[int]) -> int | None:
            stop = versions[x][started[x]] if started[x] < len(versions[x]) else None
            for txn in writers[x][versions[x][rank]:stop]:
                if txn not in parent:
                    parent[txn] = (via, x)
                    i = len(layer)
                    layer.append(txn)
                    while i < len(layer):  # txn's chain closure joins the layer
                        if layer[i] in goal:
                            return layer[i]
                        for nxt in hops[layer[i]]:
                            if nxt not in parent:
                                parent[nxt] = (layer[i], None)
                                layer.append(nxt)
                        i += 1
            started[x] = rank
            return None

        def run(rank: int) -> int | None:
            layer: list[int] = []
            if rank < started[obj] and (hit := start(obj, rank, None, layer)) is not None:
                return hit
            while layer:
                following: list[int] = []
                for txn in layer:
                    for x, landed in landings[txn]:
                        if landed < reach[x]:
                            reach[x] = landed
                        if landed < started[x] and (hit := start(x, landed, txn, following)) is not None:
                            return hit
                layer = following
            return None

        for rank in ranks:
            hit = run(rank)
            yield reach, parent, hit

    # -- checkpoints ---------------------------------------------------------

    def checkpoint(self, obj: int, rank: int) -> Checkpoint:
        """The rank-th checkpoint of obj; a negative obj counts from the end,
        as the pattern's index does, and keeps its negative number."""
        if obj >= 0 and rank >= 0:
            try:
                return self.checkpoints[obj][rank]
            except IndexError:
                pass
        return Checkpoint(obj, rank, LocalState(obj, self.pattern.version_of(obj, rank)))

    def checkpoint_at_version(self, obj: int, version: int) -> Checkpoint:
        return self.checkpoint(obj, self.pattern.rank_of(obj, version))

    # -- dependence paths ----------------------------------------------------

    def dp_reachable(self, src: Checkpoint, dst: Checkpoint) -> bool:
        """True iff a dependence path leads from checkpoint src to checkpoint dst."""
        # Indexing the reach columns and the checkpoint table is the bounds
        # check; they have the pattern's shape, so when it fails version_of
        # raises the error for the first endpoint out of range.
        try:
            if src.rank >= 0 and dst.rank >= 0:
                self.checkpoints[dst.obj][dst.rank]
                return dst.rank - 1 >= self._reach[src.obj][dst.obj][src.rank]
        except IndexError:
            pass
        for ck in (src, dst):
            self.pattern.version_of(ck.obj, ck.rank)
        raise AssertionError("unreachable: every checkpoint has a reach tuple")

    def min_reachable_ranks(self, src: Checkpoint) -> tuple[int, ...]:
        """Per object, the least rank of a checkpoint that a dependence path
        from src reaches (a rank past the last when there is none).

        Reachability is upward-closed in rank, so dp_reachable(src, dst) is
        exactly dst.rank >= min_reachable_ranks(src)[dst.obj].
        """
        self.pattern.version_of(src.obj, src.rank)
        rank = src.rank
        out = [column[rank] + 1 for column in self._reach[src.obj]]
        out[src.obj] = min(out[src.obj], rank + 1)
        return tuple(out)

    def min_safe_ranks(self, dst: Checkpoint) -> tuple[int, ...]:
        """Per object, the least rank whose checkpoint has no dependence path
        to dst; for dst's own object, that is dst's rank unless dst has a
        path to itself.  A negative dst.obj counts from the end.

        The ranks of an object that reach dst form a prefix (its reach
        column never decreases), so each entry is one bisection; every
        object's last checkpoint, whose interval holds no write, reaches
        nothing.
        """
        self.pattern.version_of(dst.obj, dst.rank)
        bar, dst_obj = dst.rank - 1, dst.obj
        return tuple([bisect_right(columns[dst_obj], bar) for columns in self._reach])

    def dp_witness(self, src: Checkpoint, dst: Checkpoint) -> list[DependenceEdge] | None:
        """A concrete edge sequence realizing dp_reachable, None if unreachable.

        It has the fewest dependence edges of any path, one edge per chain
        segment; a step to a later checkpoint of src's object takes one
        black edge, from the writer of the version after src.  Ties go to the first path the search finds: it
        starts writers in version order, each claiming its chain closure,
        hops in ascending transaction order and lands in ascending object
        order.  The search stops at the first transaction it visits that
        writes dst's object from a version below dst's: its landing there is
        the first below dst's rank that the whole search would make, so the
        witness is the one the whole search gives.
        """
        if not self.dp_reachable(src, dst):
            return None
        timeline = self.base.timeline
        # dp_reachable counts a negative object from the end; so does the search.
        src_obj, obj = src.obj % self.pattern.num_objects, dst.obj % self.pattern.num_objects
        # The writers of dst's object whose landing there is below dst's rank.
        goal = frozenset(timeline.writers[obj][: self.pattern.versions[obj][dst.rank]])
        _, parent, last = next(self._search(src_obj, [src.rank], goal))
        witness: list[DependenceEdge] = []
        while last is not None:
            first = last
            while parent[first][1] is None:
                first = parent[first][0]
            via, entry = parent[first]
            source = LocalState(entry, timeline.pre_version[(first, entry)])
            target = LocalState(obj, timeline.post_version[(last, obj)])
            witness.append(DependenceEdge(source, target, BLACK if first == last else DASHED, (first, last)))
            last, obj = via, entry
        witness.reverse()
        return witness

