"""Transaction-induced checkpointing protocols and their guarantee checks.

Every data manager keeps an index: the rank of its last checkpoint, starting
at 0 for the initial state.  Transaction managers piggyback, on each commit
message, the maximum index the transaction observed across the objects it
accessed.  Data managers take basic checkpoints on a timer and forced
checkpoints on commit messages:

* protocol B coarsens coordination with a parameter z >= 1: it forces only
  when the piggybacked maximum, rounded down to a multiple of z, exceeds the
  current index, and that rounded value becomes the forced checkpoint's
  index.  The guard compares coordination epochs (index divided by z), so
  per-object indices stay strictly increasing even when basic checkpoints
  interleave.  No other state is kept: there is no threshold.

* protocol A is protocol B with z = 1: it forces a checkpoint (of the
  pre-commit state) whenever its index is below the piggybacked maximum,
  adopting that maximum as the new index.  One forcing rule serves both;
  SimConfig.z gives the z a run uses, and forced_index is the rule's one
  statement, which the simulator's event loop applies to plain ints.

Commit metadata travels with every lock release the committing transaction
owes: write-set data managers receive it on the commit message that applies
the write, read-set data managers on the read-lock release notification.
Both apply the same forcing rule; only the write path advances the version.
Without the read path, a chain of serialization conflicts through a
read-write pair would not relay the maximum index, and the index-ordering
guarantees below fail.

Guarantees checked over a simulation trace: no checkpoint has a dependence
path to itself; a dependence path between checkpoints implies strictly
increasing protocol indices; equal-index assemblies (exact, and gap-filled
when z is 1, as under protocol A) are consistent global checkpoints.  All of
this is restricted to indices that are multiples of z, and read from one
plain (object, rank, index, version) row per scoped record, made in the one
pass over the checkpoint log that also counts kinds.  The path checks make
no pairwise pass: a checkpoint's dependence paths reach, per object, every
rank from some least rank on, so each checkpoint gets one bar, the least
index logged at or above those ranks, and CheckpointAnalysis.min_reached
gives every bar in one scalar fold over the SCCs of its transaction graph.
Only a row whose index is not below its bar calls min_reachable_ranks, the
first call of which builds every reach column, so a clean trace builds none.
Those ranks give its offending pairs and, when it reaches its own rank, its
self-path: a checkpoint on a Z-cycle reaches its own index, so it is never
below its bar.  Both assembly checks share one sweep from the highest index
down, and each complete assembly is one consistency test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .dependence import CheckpointAnalysis, CheckpointPattern, ExecutionAnalysis
from .theory import is_consistent_global_state

if TYPE_CHECKING:  # pragma: no cover
    from .sim import Trace

PROTOCOL_A = "A"
PROTOCOL_B = "B"

KIND_INITIAL = "initial"
KIND_BASIC = "basic"
KIND_FORCED = "forced"


class CheckpointRecord(NamedTuple):
    obj: int
    index: int
    kind: str
    version: int
    time: int


def initial_record(obj: int) -> CheckpointRecord:
    return CheckpointRecord(obj, 0, KIND_INITIAL, 0, 0)


def forced_index(index: int, max_index: int, z: int) -> int | None:
    """The forcing rule: the index of the checkpoint a data manager at index
    must force on receiving max_index, or None when it forces none.  z must
    be at least 1."""
    # rounded > index is exactly "the incoming metadata names a later
    # coordination epoch than ours" (index // z < max_index // z); firing on
    # any weaker guard cannot keep equal-epoch checkpoints independent.
    rounded = (max_index // z) * z
    return rounded if rounded > index else None


@dataclass(frozen=True)
class GuaranteeReport:
    protocol: str
    z: int
    num_checkpoints: int
    counts_by_kind: Mapping[str, int]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def trace_pattern(trace: "Trace") -> tuple[ExecutionAnalysis, CheckpointAnalysis]:
    """Analysis stack for a trace, with its logged versions as the pattern."""
    base = ExecutionAnalysis(trace.execution)
    raw: dict[int, set[int]] = {obj: {0} for obj in range(trace.execution.num_objects)}
    for record in trace.checkpoint_log:
        raw[record.obj].add(record.version)
    pattern = CheckpointPattern.make(raw, base.timeline)
    return base, CheckpointAnalysis(base, pattern)


def verify_protocol_guarantees(
    trace: "Trace", analyses: tuple[ExecutionAnalysis, CheckpointAnalysis] | None = None
) -> GuaranteeReport:
    """Check every protocol guarantee the trace is supposed to satisfy.

    analyses is trace_pattern(trace), built here when not given.
    """
    z = trace.config.z
    m = trace.execution.num_objects
    base, analysis = trace_pattern(trace) if analyses is None else analyses
    pattern = analysis.pattern
    violations: list[str] = []

    # One pass over the log.  Reach is a property of a checkpoint, not of the
    # records that save it (a basic checkpoint often re-saves a version), so
    # each scoped record becomes one plain (object, rank, index, version) row.
    counts = {KIND_INITIAL: 0, KIND_BASIC: 0, KIND_FORCED: 0}
    rank_at = [{version: rank for rank, version in enumerate(vs)} for vs in pattern.versions]
    indices: list[list[int]] = [[] for _ in range(m)]
    rows: list[tuple[int, int, int, int]] = []
    by_index: dict[int, list[tuple[int, int, int, int]]] = {}
    for record in trace.checkpoint_log:
        counts[record.kind] += 1
        obj, index = record.obj, record.index
        indices[obj].append(index)
        if index % z == 0:
            row = (obj, rank_at[obj][record.version], index, record.version)
            rows.append(row)
            by_index.setdefault(index, []).append(row)
    for obj, seq in enumerate(indices):
        if any(b <= a for a, b in zip(seq, seq[1:])):
            violations.append(f"object {obj}: checkpoint indices not strictly increasing: {seq}")

    # Per object and rank, the least index of a scoped record at that rank
    # or above; its least value over the ranks a checkpoint's dependence
    # paths reach is the checkpoint's bar, one scalar fold of the analysis.
    # A row whose index is below its checkpoint's bar needs no pairwise look,
    # and a row on a Z-cycle reaches its own rank, so it is never below.
    least_index = [[math.inf] * len(vs) for vs in pattern.versions]
    for obj, rank, index, _ in rows:
        if index < least_index[obj][rank]:
            least_index[obj][rank] = index
    for obj_least in least_index:
        for rank in range(len(obj_least) - 2, -1, -1):
            obj_least[rank] = min(obj_least[rank], obj_least[rank + 1])
    bar = analysis.min_reached(least_index)
    pairs: list[str] = []
    for i, (obj1, rank1, index1, _) in enumerate(rows):
        if bar[obj1][rank1] > index1:
            continue
        c1 = analysis.checkpoint(obj1, rank1)
        least = analysis.min_reachable_ranks(c1)
        if rank1 >= least[obj1]:
            violations.append(f"checkpoint {c1} (index {index1}) has a dependence path to itself")
        for j, (obj2, rank2, index2, _) in enumerate(rows):
            if j != i and rank2 >= least[obj2] and not index1 < index2:
                pairs.append(
                    f"dependence path from {c1} (index {index1}) to "
                    f"{analysis.checkpoint(obj2, rank2)} (index {index2}) without index increase"
                )
    violations.extend(pairs)

    # Both assembly checks in one sweep from the highest index down, each
    # complete assembly one consistency test.  The equal-index assembly at n
    # takes the last record at n in log order per object.  When z is 1, every
    # index is visited and the gap-filled assembly (assemble_indexed_gc(n))
    # is kept up to date: the records at n replace their objects' picks, the
    # first in log order winning.
    exact_bad: list[int] = []
    gap_bad: list[int] = []
    picks: dict[int, int] = {}
    for n in range(max(by_index, default=0), -1, -1) if z == 1 else sorted(by_index, reverse=True):
        at_n = by_index.get(n, ())
        exact = {obj: version for obj, _, _, version in at_n}
        if len(exact) == m and not is_consistent_global_state(exact, base):
            exact_bad.append(n)
        if z == 1:
            for obj, _, _, version in reversed(at_n):
                picks[obj] = version
            if len(picks) == m and not is_consistent_global_state(picks, base):
                gap_bad.append(n)
    violations.extend(f"equal-index assembly at index {n} is not consistent" for n in reversed(exact_bad))
    violations.extend(f"gap-filled assembly at index {n} is not consistent" for n in reversed(gap_bad))

    return GuaranteeReport(
        protocol=trace.config.protocol,
        z=z,
        num_checkpoints=len(trace.checkpoint_log),
        counts_by_kind=counts,
        violations=tuple(violations),
    )
