"""Deciding and constructing consistent global checkpoints.

A global state (one local state per object) is consistent when no member
happened-before another member.  A global checkpoint is a global state whose
members are all checkpoints.  The central decision procedure: a set of
checkpoints, at most one per object, extends to a consistent global
checkpoint exactly when no dependence path runs between any two of its
members (including from a member to itself).  When the condition holds the
extension is built constructively; a brute-force enumerator over the whole
pattern serves as the independent oracle for both directions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import index
from typing import TYPE_CHECKING, Iterable, Mapping

from .dependence import (
    AnalysisError,
    Checkpoint,
    CheckpointAnalysis,
    DependenceEdge,
    ExecutionAnalysis,
)
from .model import LocalState

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import CheckpointRecord


@dataclass(frozen=True)
class GlobalCheckpoint:
    """Exactly one checkpoint per object, indexed by object id."""

    members: tuple[Checkpoint, ...]

    def __post_init__(self) -> None:
        for obj, member in enumerate(self.members):
            if member.obj != obj:
                raise AnalysisError("global checkpoint members out of object order")

    def rank_vector(self) -> tuple[int, ...]:
        return tuple(c.rank for c in self.members)

    def states(self) -> dict[int, int]:
        return {c.obj: c.version for c in self.members}

    def contains(self, candidate: Mapping[int, int]) -> bool:
        """True iff every (object -> rank) entry of candidate appears here;
        an object outside 0..m-1, or not an int, appears nowhere."""
        members = self.members
        return all(isinstance(obj, int) and 0 <= obj < len(members) and members[obj].rank == rank
                   for obj, rank in candidate.items())


class ConditionViolated(Exception):
    """Two candidate members are joined by a dependence path.  Its args are
    (source, target, witness), so it pickles; its message is built when read."""

    def __init__(self, source: Checkpoint, target: Checkpoint, witness: list[DependenceEdge]):
        super().__init__(source, target, witness)
        self.source, self.target, self.witness = source, target, witness

    def __str__(self) -> str:
        return f"dependence path from {self.source} to {self.target}"


def is_consistent_global_state(states: Mapping[int, int], analysis: ExecutionAnalysis) -> bool:
    """True iff no member state happened-before another member state.

    states maps every object to a version.  Member a happened-before member
    b exactly when the writer that replaces a is, or reaches, the writer
    that produced b; no state happened-before itself, since its producer
    commits before its replacer.  So one pass over the objects ORs each
    replacer's reflexive closure into one bitset and each producer's bit
    into another, and the state is consistent when they share no bit.
    An object or a version that is not an int, even 1.0, is unknown.
    """
    positions = analysis.writer_positions
    if states.keys() != positions.keys():
        raise AnalysisError("global state must name every object exactly once")
    closure = analysis.graph.closure
    after = before = 0
    try:
        for obj in states:  # the key-set comparison cannot tell 1.0 from 1
            index(obj)
        for obj, on_obj in positions.items():
            version = states[obj]
            if not 0 <= version <= len(on_obj):
                raise AnalysisError(f"unknown state {LocalState(obj, version)}")
            if version < len(on_obj):
                after |= closure[on_obj[version]]
            elif not on_obj:  # no writer to index: check the 0 itself
                index(version)
            if version:
                before |= 1 << on_obj[version - 1]
    except TypeError:  # an object or a version that does not index a tuple: not an int
        raise AnalysisError(f"unknown state {LocalState(obj, states[obj])}") from None
    return not after & before


def _resolve_candidate(candidate: Mapping[int, int], analysis: CheckpointAnalysis) -> list[Checkpoint]:
    """The candidate's members in object order."""
    if not candidate:
        raise AnalysisError("candidate set must contain at least one checkpoint")
    try:
        items = sorted(candidate.items())
    except TypeError:  # objects that do not compare are not all ints: checkpoint rejects one
        items = candidate.items()
    return [analysis.checkpoint(obj, rank) for obj, rank in items]


def _first_violating_pair(
    members: list[Checkpoint], analysis: CheckpointAnalysis
) -> tuple[Checkpoint, Checkpoint] | None:
    for a in members:
        for b in members:
            if analysis.dp_reachable(a, b):
                return a, b
    return None


def violating_pair(
    candidate: Mapping[int, int], analysis: CheckpointAnalysis
) -> tuple[Checkpoint, Checkpoint] | None:
    """The first (source, target) pair of members, in object order, joined by
    a dependence path (a member with a path to itself pairs with itself);
    None when there is no such pair.

    candidate maps object -> checkpoint rank, at most one entry per object.
    """
    return _first_violating_pair(_resolve_candidate(candidate, analysis), analysis)


def theorem_condition(candidate: Mapping[int, int], analysis: CheckpointAnalysis) -> bool:
    """No dependence path between any two members, self-paths included."""
    return violating_pair(candidate, analysis) is None


@dataclass(frozen=True)
class ExtensionResult:
    global_checkpoint: GlobalCheckpoint


def extend_to_global(candidate: Mapping[int, int], analysis: CheckpointAnalysis) -> ExtensionResult:
    """Extend a candidate set to a full consistent global checkpoint.

    Raises ConditionViolated (with a witness edge sequence) when the members
    themselves are joined by a dependence path.  Otherwise, every object not
    in the candidate gets the maximum over the members of the least rank
    whose checkpoint has no dependence path to that member (rank 0 when the
    member has rank 0).

    Those least ranks are the members' min_safe_ranks rows, so the
    extension is their element-wise maximum, taken in one pass; a single
    member's row is its own maximum.  On a member's own object the maximum
    is the member's rank: its own row gives that rank, as it has no path
    to itself, and another member's row gives no more, since the member
    has no path to it and the ranks that reach it form a prefix.
    """
    members = _resolve_candidate(candidate, analysis)
    pair = _first_violating_pair(members, analysis)
    if pair is not None:
        raise ConditionViolated(*pair, analysis.dp_witness(*pair))
    safe = [analysis.min_safe_ranks(member) for member in members]
    floor = safe[0] if len(safe) == 1 else map(max, *safe)
    chosen = tuple([table[rank] for table, rank in zip(analysis.checkpoints, floor)])
    return ExtensionResult(GlobalCheckpoint(chosen))


class OracleBoundExceeded(RuntimeError):
    pass


def enumerate_consistent_globals(
    analysis: CheckpointAnalysis, bound: int = 10**6
) -> list[GlobalCheckpoint]:
    """All consistent global checkpoints over the pattern, in rank order.

    The candidate space is the product of each object's checkpoint list;
    raises OracleBoundExceeded when it is larger than bound.
    """
    pattern = analysis.pattern
    space = 1
    for obj in range(pattern.num_objects):
        space *= len(pattern.versions[obj])
        if space > bound:
            raise OracleBoundExceeded(f"{space}+ candidate global checkpoints exceeds bound {bound}")
    base = analysis.base
    out: list[GlobalCheckpoint] = []
    for members in itertools.product(*analysis.checkpoints):
        if is_consistent_global_state({c.obj: c.version for c in members}, base):
            out.append(GlobalCheckpoint(members))
    return out


def assemble_indexed_gc(
    n: int, log: Iterable["CheckpointRecord"], analysis: CheckpointAnalysis
) -> GlobalCheckpoint | None:
    """Pick, per object, the checkpoint with protocol index n, else the first
    with a greater index; None when some object has no checkpoint indexed >= n.
    """
    picks: dict[int, "CheckpointRecord"] = {}
    for record in log:
        if record.index >= n:
            pick = picks.get(record.obj)
            if pick is None or record.index < pick.index:
                picks[record.obj] = record
    members: list[Checkpoint] = []
    for obj in range(analysis.pattern.num_objects):
        if obj not in picks:
            return None
        members.append(analysis.checkpoint_at_version(obj, picks[obj].version))
    return GlobalCheckpoint(tuple(members))
