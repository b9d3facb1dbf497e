"""State-level precedence, checkpoint patterns, dependence paths.

``happened_before`` is the strict precedence between local states obtained by
extending the serialization order with each writer's pre/post states and
taking the transitive closure.  Its atomic steps are dependence edges: a
writer of objects W has a black edge from each pre-state to each post-state
(|W| squared), and each serialization-ordered writer pair a dashed edge from
each pre-state of the earlier to each post-state of the later.  That
O(n^2 k^2) edge set is built only on first use of ``ExecutionAnalysis.edges``:
nothing in the library reads it, the tests check the path search against it.
Both, and ``theory.is_consistent_global_state``, read one encoding: a state
precedes another exactly when the reflexive ``closure`` of its replacer holds
the other's producer, both read off ``ExecutionAnalysis.writer_positions``.

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

Those later writers are all reached from one of them: a landing (x, l)
restarts at F(x, l), the first writer of x whose pre-version lies in
interval l, whose chain leads to every later writer of x.  Chain hops plus
one restart edge per landing make one graph over transactions, and the
transactions a path from interval (x, l) visits are those reachable from
F(x, l).  A restart edge points back along x's chain, so it closes a cycle;
the Z-cycles of the pattern are the strongly connected components (SCCs) of
this graph, which CheckpointAnalysis condenses with one Tarjan pass when it
is built.  Tarjan emits SCCs sinks first, so a minimum over everything an
SCC reaches is one scalar fold in emission order: an SCC's value is the
least of its own leaf and its children's values.  Two leaves serve:

* its members' lowest landing on one destination object y gives the reach
  column toward y: per object and rank, the lowest interval of y reached.
  Columns are stored and built per destination object, on first use, so
  dp_reachable and min_safe_ranks build dst's object's column alone and
  min_reachable_ranks builds them all; a checkpoint on a Z-cycle is one
  whose own column reaches its own rank;
* the least of a caller's per-interval weights over its own landings gives
  ``min_reached``: the least weight over the intervals reached, all that
  protocol verification needs.

A witness search stops where it discovers the first transaction that lands
below its destination checkpoint, read off that transaction's landings,
rather than expanding every chain it could reach.

A column never decreases with rank, because a path that leaves from a rank
also leaves from every lower rank (a lower interval starts every writer a
higher one starts).  So the ranks of an object whose checkpoints reach a
destination form a prefix, and ``min_safe_ranks`` finds each object's least
safe rank toward one checkpoint with one plain bisection per object.  That
row is stored per destination checkpoint on first use, one checkpoint at a
time, so a query pays only for the rows it reads.  Rows do not replace the
columns: a path that lands in a destination object's last interval reaches
none of its checkpoints, so no row tells it from no path at all, while
``min_reachable_ranks`` reports the one as k and the other as k + 1 for k
checkpoints.

A Checkpoint is three ints: its object, its rank and the version it saves.
A CheckpointAnalysis builds each Checkpoint of its pattern once, on first
use, in a table with one tuple per object in rank order; queries return
its entries instead of new objects, and a saved version's rank is a
bisection of the object's sorted versions, O(log k) for k checkpoints.
Objects are 0..m-1 only: CheckpointAnalysis.checkpoint says which (object,
rank) pairs exist, CheckpointPattern.ranks which objects, and every query
that meets another pair or object raises their error.  Every query rejects
an object, rank or version that is not an int (1.0, '1' or None; a bool is
an int), as it rejects -1 and m: the indexing that bounds-checks a valid
pair raises TypeError on it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

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


class DependenceEdge(NamedTuple):
    """Atomic precedence between two local states.

    kind is black when one transaction's write set produced both endpoints,
    dashed when the serialization order connects two distinct writers.
    via = (source transaction, target transaction).  A NamedTuple: it
    compares equal to, orders and hashes as the tuple (source, target, kind, via).
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
    def writer_positions(self) -> dict[int, tuple[int, ...]]:
        """Per object, the commit positions of its writers in version order, built on first use."""
        position = self.graph.position
        return {x: tuple([position[txn] for txn in on_x]) for x, on_x in enumerate(self.timeline.writers)}

    @cached_property
    def edges(self) -> tuple[DependenceEdge, ...]:
        """Every dependence edge, in (source, target) order; O(n^2 k^2), built on first use.

        The k-th writer of x replaces (x, k) and produces (x, k + 1); (y, j) has an
        edge to (x, k + 1) when its replacer's closure holds that producer."""
        closure, txn = self.graph.closure, self.graph.nodes
        writes = [(x, k, pos) for x, on_x in self.writer_positions.items() for k, pos in enumerate(on_x)]
        return tuple(
            DependenceEdge(LocalState(y, j), LocalState(x, k + 1), BLACK if i == t else DASHED, (txn[i], txn[t]))
            for y, j, i in writes
            for x, k, t in writes
            if closure[i] >> t & 1
        )

    def happened_before(self, a: LocalState, b: LocalState) -> bool:
        """True iff state a strictly precedes state b: the closure of a's
        replacer, ``writer_positions[a.obj][a.version]``, holds b's producer,
        ``writer_positions[b.obj][b.version - 1]``.  A state whose object or
        version is not an int is unknown."""
        positions = self.writer_positions
        for s in (a, b):
            on_obj = positions.get(s.obj) if isinstance(s.obj, int) else None
            if on_obj is None or not isinstance(s.version, int) or not 0 <= s.version <= len(on_obj):
                raise AnalysisError(f"unknown state {s}")
        if a.version == len(positions[a.obj]) or not b.version:  # no replacer, or no producer
            return False
        return self.graph.closure[positions[a.obj][a.version]] >> positions[b.obj][b.version - 1] & 1 == 1


class PatternError(ValueError):
    """Invalid checkpoint pattern."""


@dataclass(frozen=True)
class CheckpointPattern:
    """Per object, the versions saved as checkpoints, strictly increasing
    from 0.  Ranks index these tuples, so a tuple in any other form is
    rejected, not reordered, deduplicated or extended."""

    versions: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for obj, vs in enumerate(self.versions):
            if vs[:1] != (0,) or any(b <= a for a, b in zip(vs, vs[1:])):
                raise PatternError(f"object {obj}: checkpoint versions {vs} are not strictly increasing from 0")

    @staticmethod
    def make(raw: Mapping[int, Iterable[int]], timeline: StateTimeline) -> "CheckpointPattern":
        """Build and validate a pattern: per object, raw's versions plus
        version 0 and the object's last version, sorted.

        Every object's current state is eventually saved.  Counting it as a
        checkpoint is what makes the pairwise DP condition match brute-force
        extendability on a finite execution, and it never changes DP answers
        between the other checkpoints.
        """
        per_obj: list[tuple[int, ...]] = []
        for obj in range(timeline.num_objects):
            last = timeline.max_version(obj)
            vs = sorted(set(raw.get(obj, ())) | {0, last})
            if vs[0] < 0:
                raise PatternError(f"object {obj}: negative checkpoint version")
            if vs[-1] > last:
                raise PatternError(f"object {obj}: checkpoint version {vs[-1]} beyond last version {last}")
            per_obj.append(tuple(vs))
        return CheckpointPattern(tuple(per_obj))

    @property
    def num_objects(self) -> int:
        return len(self.versions)

    def ranks(self, obj: int) -> range:
        """The ranks of obj; the error for any object but 0..m-1 is raised here."""
        try:
            if obj >= 0:
                return range(len(self.versions[obj]))
        except (IndexError, TypeError):
            pass
        raise AnalysisError(f"unknown object {obj!r}")

    def rank_of(self, obj: int, version: int) -> int:
        self.ranks(obj)  # rejects any object but 0..m-1
        vs = self.versions[obj]
        if isinstance(version, int):  # any other version is not one of them
            rank = bisect_left(vs, version)
            if rank < len(vs) and vs[rank] == version:
                return rank
        raise AnalysisError(f"version {version!r} of object {obj} is not checkpointed")


@dataclass(frozen=True)
class Checkpoint:
    """The rank-th saved state of an object; version is the object version it saves."""

    obj: int
    rank: int
    version: int

    def __repr__(self) -> str:
        return f"C({self.obj},#{self.rank}=v{self.version})"


class CheckpointAnalysis:
    """Dependence-path reachability for one execution and checkpoint pattern.

    The pattern must end each object at its last version, as
    CheckpointPattern.make builds it; the analysis keeps it as given.
    """

    def __init__(self, base: ExecutionAnalysis, pattern: CheckpointPattern):
        if pattern.num_objects != base.execution.num_objects:
            raise AnalysisError("pattern and execution disagree on object count")
        timeline, versions = base.timeline, pattern.versions
        for obj, vs in enumerate(versions):
            if vs[-1] != (last := timeline.max_version(obj)):
                raise PatternError(f"object {obj}: checkpoint versions {vs} do not end at last version {last}")
        self.base, self.pattern = base, pattern
        # Per transaction: its landings, written object -> interval of its
        # pre-version there, in object order.  Paths hop along the
        # serialization graph's conflict-chain successors.
        self._landings: dict[int, dict[int, int]] = {t.id: {} for t in base.execution.transactions}
        for obj, (vs, obj_writers) in enumerate(zip(versions, timeline.writers)):
            rank = 0
            for pre, txn in enumerate(obj_writers):
                if pre == vs[rank + 1]:
                    rank += 1
                self._landings[txn][obj] = rank
        self._condense()
        self._columns: list = [None] * len(versions)  # per destination object; see _column
        self._safe = [[None] * len(vs) for vs in versions]  # per destination checkpoint; see min_safe_ranks

    def _condense(self) -> None:
        """One Tarjan pass over transactions, chain hops plus restart edges.

        A landing (x, l) restarts at F(x, l), the first writer of x whose
        pre-version lies in interval l; F's chain reaches every later writer
        of x, so the transactions a path from interval (x, l) visits are
        exactly those reachable from F(x, l).  Every landing has one: a
        pre-version is below its object's last version, whose interval is
        the last and holds no writer.  The pass numbers SCCs in emission
        order, sinks first, and keeps per SCC its members' lowest landing
        per object and the SCCs its edges enter, all numbered lower.
        """
        versions, writers = self.pattern.versions, self.base.timeline.writers
        hops, landings = self.base.graph.successors, self._landings
        out = {
            txn: hops[txn] + tuple([writers[x][versions[x][landed]] for x, landed in landed_on.items()])
            for txn, landed_on in landings.items()
        }
        number = dict.fromkeys(out, 0)  # DFS number, 0 while unvisited
        low: dict[int, int] = {}
        scc: dict[int, int] = {}  # unset while on the stack
        stack: list[int] = []
        lowest: list[dict[int, int]] = []
        kids_of: list[tuple[int, ...]] = []
        counter = 0
        for root in out:
            if number[root]:
                continue
            counter += 1
            number[root] = low[root] = counter
            stack.append(root)
            work = [(root, iter(out[root]))]
            while work:
                v, edges = work[-1]
                for w in edges:
                    if not number[w]:
                        counter += 1
                        number[w] = low[w] = counter
                        stack.append(w)
                        work.append((w, iter(out[w])))
                        break
                    if w not in scc and number[w] < low[v]:
                        low[v] = number[w]
                else:
                    work.pop()
                    if work and low[v] < low[work[-1][0]]:
                        low[work[-1][0]] = low[v]
                    if low[v] < number[v]:
                        continue
                    c = len(kids_of)
                    own: dict[int, int] = {}
                    members: list[int] = []
                    while not members or members[-1] != v:
                        w = stack.pop()
                        members.append(w)
                        scc[w] = c
                        for x, landed in landings[w].items():
                            if landed < own.get(x, landed + 1):
                                own[x] = landed
                    kids = {scc[w] for u in members for w in out[u]}
                    kids.discard(c)
                    lowest.append(own)
                    kids_of.append(tuple(kids))
        self._lowest, self._kids = lowest, kids_of
        # Per object, the SCC of F(obj, rank) for every rank but the last.
        self._starts = tuple(
            tuple(scc[writers[obj][v]] for v in vs[:-1]) for obj, vs in enumerate(versions)
        )

    def _fold(self, leaves: list) -> list:
        """Per SCC, the least of its leaf and its children's values; leaves
        holds one value per SCC in emission order, children first."""
        folded: list = []
        for least, kids in zip(leaves, self._kids):
            for kid in kids:
                if folded[kid] < least:
                    least = folded[kid]
            folded.append(least)
        return folded

    def _column(self, y: int) -> tuple[tuple[int, ...], ...]:
        """The reach column toward object y, built on first use: per object
        and rank, the lowest interval of y reached, len(versions[y]) for none,
        non-decreasing in rank.  An SCC's leaf is its lowest landing on y; an
        object's last interval starts no writer and reaches nothing."""
        nothing = len(self.pattern.versions[y])
        folded = self._fold([own.get(y, nothing) for own in self._lowest])
        column = tuple(tuple([folded[c] for c in starts]) + (nothing,) for starts in self._starts)
        self._columns[y] = column
        return column

    def _search(self, obj: int, rank: int, y: int, below: int) -> tuple[dict, int | None]:
        """Paths out of interval (obj, rank), one layer per dependence edge,
        until it discovers a goal: a transaction whose landing on object y
        is below rank ``below``.

        The writers of obj from interval rank upward start, each followed by
        its chain closure.  Every landing of a layer's writer starts the
        landed object's writers not yet started as the next layer.  Returns
        each discovered transaction's parent - (previous, None) after a hop,
        (landing transaction or None, object entered) at a start - and the
        first goal discovered (None when there is none).  Transactions are
        scanned in the order they are discovered, so the first goal
        discovered is the first goal a search without a goal would scan,
        and its parent chain is the one that search gives.
        """
        versions, writers = self.pattern.versions, self.base.timeline.writers
        hops, landings = self.base.graph.successors, self._landings
        started: dict[int, int] = {}  # object -> least rank started; any landing starts an absent one
        parent: dict[int, tuple[int | None, int | None]] = {}

        def start(x: int, rank: int, via: int | None, layer: list[int]) -> int | None:
            stop = versions[x][started[x]] if x in started else None
            for txn in writers[x][versions[x][rank]:stop]:
                if txn not in parent:
                    parent[txn] = (via, x)
                    if landings[txn].get(y, below) < below:
                        return txn
                    closure = [txn]
                    for here in closure:
                        for nxt in hops[here]:
                            if nxt not in parent:
                                parent[nxt] = (here, None)
                                if landings[nxt].get(y, below) < below:
                                    return nxt
                                closure.append(nxt)
                    layer += closure
            started[x] = rank
            return None

        layer: list[int] = []
        hit = start(obj, rank, None, layer)
        while layer and hit is None:
            following: list[int] = []
            for txn in layer:
                for x, landed in landings[txn].items():
                    if landed < started.get(x, landed + 1) and (hit := start(x, landed, txn, following)) is not None:
                        return parent, hit
            layer = following
        return parent, hit

    # -- checkpoints ---------------------------------------------------------

    @cached_property
    def checkpoints(self) -> tuple[tuple[Checkpoint, ...], ...]:
        """Per object, its checkpoints in rank order, built on first use:
        queries hand these out rather than building new ones."""
        return tuple(
            tuple(Checkpoint(obj, rank, v) for rank, v in enumerate(vs))
            for obj, vs in enumerate(self.pattern.versions)
        )

    def checkpoint(self, obj: int, rank: int) -> Checkpoint:
        """The rank-th checkpoint of obj, one of objects 0..m-1; the error
        for any other (obj, rank) pair, ints or not, is raised here."""
        try:
            if obj >= 0 and rank >= 0:
                return self.checkpoints[obj][rank]
        except (IndexError, TypeError):
            pass
        self.pattern.ranks(obj)  # rejects an object outside 0..m-1
        raise AnalysisError(f"object {obj} has no checkpoint of rank {rank!r}")

    def checkpoint_at_version(self, obj: int, version: int) -> Checkpoint:
        return self.checkpoint(obj, self.pattern.rank_of(obj, version))

    # -- dependence paths ----------------------------------------------------

    def dp_reachable(self, src: Checkpoint, dst: Checkpoint) -> bool:
        """True iff a dependence path leads from checkpoint src to checkpoint dst."""
        # Indexing the reach columns and the checkpoint table is the bounds
        # and type check; they have the pattern's shape, so when it fails the
        # endpoints go through checkpoint, which rejects the first bad one.
        try:
            if src.obj >= 0 and src.rank >= 0 and dst.obj >= 0 and dst.rank >= 0:
                self.checkpoints[dst.obj][dst.rank]
                return dst.rank - 1 >= (self._columns[dst.obj] or self._column(dst.obj))[src.obj][src.rank]
        except (IndexError, TypeError):
            pass
        return self.dp_reachable(self.checkpoint(src.obj, src.rank), self.checkpoint(dst.obj, dst.rank))

    def min_reachable_ranks(self, src: Checkpoint) -> tuple[int, ...]:
        """Per object, the least rank of a checkpoint that a dependence path
        from src reaches (a rank past the last when there is none).

        Reachability is upward-closed in rank, so dp_reachable(src, dst) is
        exactly dst.rank >= min_reachable_ranks(src)[dst.obj].
        """
        self.checkpoint(src.obj, src.rank)
        obj, rank = src.obj, src.rank
        out = [(column or self._column(y))[obj][rank] + 1 for y, column in enumerate(self._columns)]
        out[obj] = min(out[obj], rank + 1)
        return tuple(out)

    def min_safe_ranks(self, dst: Checkpoint) -> tuple[int, ...]:
        """Per object, the least rank whose checkpoint has no dependence path
        to dst; for dst's own object, that is dst's rank unless dst has a
        path to itself.

        The ranks of an object that reach dst form a prefix (its reach
        column never decreases), so each entry is one bisection; every
        object's last checkpoint, whose interval holds no write, reaches
        nothing.  The row is built on the first call for dst and stored;
        later calls return the stored tuple.
        """
        dst_obj, rank = dst.obj, dst.rank
        try:  # the bounds check, as in dp_reachable: _safe has the pattern's shape
            if dst_obj >= 0 and rank >= 0:
                rows = self._safe[dst_obj]
                row = rows[rank]
                if row is None:
                    column = self._columns[dst_obj] or self._column(dst_obj)
                    row = rows[rank] = tuple([bisect_right(reach, rank - 1) for reach in column])
                return row
        except (IndexError, TypeError):
            pass
        return self.min_safe_ranks(self.checkpoint(dst_obj, rank))

    def min_reached(self, weight: Sequence[Sequence[float]]) -> tuple[tuple[float, ...], ...]:
        """Per object and rank, the least weight[y][r] over the checkpoints
        (y, r) that a dependence path from that checkpoint reaches, inf when
        it reaches none.  For weight rows non-decreasing in rank, that is the
        least weight[y][min_reachable_ranks(ck)[y]] over objects y, here in
        one fold rather than one per reach column.

        An SCC's leaf is the least weight[y][l + 1] over its own landings
        (y, l): a landing reaches rank l + 1 of y and every later one.  No
        term for the checkpoint's own object is needed: F(obj, rank) lands on
        obj at interval rank or below, so the fold of its SCC is already at
        most weight[obj][rank + 1].
        """
        leaves = []
        for own in self._lowest:
            least = math.inf
            for x, landed in own.items():
                if weight[x][landed + 1] < least:
                    least = weight[x][landed + 1]
            leaves.append(least)
        folded = self._fold(leaves)
        return tuple(tuple([folded[c] for c in starts]) + (math.inf,) for starts in self._starts)

    def dp_witness(self, src: Checkpoint, dst: Checkpoint) -> list[DependenceEdge] | None:
        """A concrete edge sequence realizing dp_reachable, None if unreachable.

        It has the fewest dependence edges of any path, one edge per chain
        segment; a step to a later checkpoint of src's object takes one
        black edge, from the writer of the version after src.  Ties go to
        the first path the search finds: it starts writers in version order,
        each claiming its chain closure, hops in ascending transaction order
        and lands in ascending object order.  The search stops where it
        discovers the first transaction whose landing on dst's object, read
        off its landings, is below dst's rank: that is the first such landing
        the whole search would make, so the witness is the one the whole
        search gives.
        """
        if not self.dp_reachable(src, dst):
            return None
        writers, obj = self.base.timeline.writers, dst.obj
        parent, last = self._search(src.obj, src.rank, obj, dst.rank)
        witness: list[DependenceEdge] = []
        while last is not None:
            first = last
            while parent[first][1] is None:
                first = parent[first][0]
            via, entry = parent[first]
            # A writer's pre-version is its position among the object's writers.
            source = LocalState(entry, writers[entry].index(first))
            target = LocalState(obj, writers[obj].index(last) + 1)
            witness.append(DependenceEdge(source, target, BLACK if first == last else DASHED, (first, last)))
            last, obj = via, entry
        witness.reverse()
        return witness

