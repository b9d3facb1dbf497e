"""Committed transaction executions over versioned data objects.

An execution is modelled at the commit-atomic level: each committed
transaction is a read set plus a write set, and a total commit order.
Under a strict scheduler every write takes effect at the writer's commit
point, so the per-object access order (and with it the serialization
relation between transactions) is fully determined by the commit order.
Aborted transactions leave no version and no dependence and are not
represented.

Versions: every object starts at version 0; the k-th committed writer of
an object (in commit order) moves it from version k-1 to version k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple


class ExecutionError(ValueError):
    """The execution violates a structural invariant."""


class LocalState(NamedTuple):
    """One version of one object: version 0 is the initial state.  A
    NamedTuple: it compares equal to, orders and hashes as the tuple (obj, version)."""

    obj: int
    version: int

    def __repr__(self) -> str:
        return f"s({self.obj!r},{self.version!r})"


@dataclass(frozen=True)
class Transaction:
    id: int
    read_set: frozenset[int]
    write_set: frozenset[int]

    @staticmethod
    def make(txn_id: int, reads: Iterable[int] = (), writes: Iterable[int] = ()) -> "Transaction":
        return Transaction(txn_id, frozenset(reads), frozenset(writes))

    @property
    def access_set(self) -> frozenset[int]:
        return self.read_set | self.write_set


@dataclass(frozen=True)
class Execution:
    """m data objects (indices 0..m-1), committed transactions, total commit order."""

    num_objects: int
    transactions: tuple[Transaction, ...]
    commit_order: tuple[int, ...]


class ValidatedExecution(Execution):
    """An Execution that passed validate_execution. Construct only via it."""


def validate_execution(execution: Execution) -> ValidatedExecution:
    """Check the structural invariants and return the execution tagged valid.

    Raises ExecutionError on: duplicate transaction ids, commit_order not a
    permutation of the transaction ids, a transaction with empty read and
    write sets, or an object index outside [0, num_objects).
    """
    if execution.num_objects < 0:
        raise ExecutionError("num_objects must be non-negative")
    seen: set[int] = set()
    for txn in execution.transactions:
        if txn.id < 0:
            raise ExecutionError(f"transaction id {txn.id} is negative")
        if txn.id in seen:
            raise ExecutionError(f"duplicate transaction id {txn.id}")
        seen.add(txn.id)
        if not txn.read_set and not txn.write_set:
            raise ExecutionError(f"transaction {txn.id} has empty read and write sets")
        for obj in txn.access_set:
            if not 0 <= obj < execution.num_objects:
                raise ExecutionError(
                    f"transaction {txn.id} accesses object {obj}, "
                    f"outside [0, {execution.num_objects})"
                )
    order_seen: set[int] = set()
    for txn_id in execution.commit_order:
        if txn_id in order_seen:
            raise ExecutionError(f"duplicate transaction id {txn_id} in commit order")
        order_seen.add(txn_id)
        if txn_id not in seen:
            raise ExecutionError(f"commit order names unknown transaction {txn_id}")
    if order_seen != seen:
        missing = sorted(seen - order_seen)
        raise ExecutionError(f"transactions missing from commit order: {missing}")
    return ValidatedExecution(
        execution.num_objects, tuple(execution.transactions), tuple(execution.commit_order)
    )


class SerializationGraph:
    """The serialization order between committed transactions.

    Two transactions conflict when both access an object and at least one of
    the two accesses is a write; the earlier in commit order precedes the
    later.  The order is the transitive closure of each object's conflict
    chain (the writer of a version -> the readers of that version -> the next
    writer), so only chain steps are kept: ``successors`` maps each
    transaction to its chain successors, ascending.  ``closure`` holds one
    int per commit position, a bitset over commit positions of the
    transactions that position reaches, its own bit included; ``reaches``
    is a bit test on two distinct transactions.  Chain steps point forward
    in commit order, so the order is acyclic and the commit order is one of
    its linear extensions.
    """

    def __init__(self, execution: ValidatedExecution, successors: Mapping[int, tuple[int, ...]]):
        self.nodes: tuple[int, ...] = execution.commit_order
        self.successors = successors
        self._execution = execution
        self.position = {txn: pos for pos, txn in enumerate(self.nodes)}
        closure = [0] * len(self.nodes)
        for pos in range(len(self.nodes) - 1, -1, -1):
            reached = 1 << pos
            for nxt in successors[self.nodes[pos]]:
                reached |= closure[self.position[nxt]]
            closure[pos] = reached
        self.closure = closure

    def reaches(self, a: int, b: int) -> bool:
        """True iff a strictly precedes b in the transitive serialization
        order; no transaction reaches itself."""
        pos_a, pos_b = self.position[a], self.position[b]
        return pos_a != pos_b and self.closure[pos_a] >> pos_b & 1 == 1

    @cached_property
    def direct_edges(self) -> frozenset[tuple[int, int]]:
        """Every conflicting pair (i, j), i committed first; O(n^2), built on first use."""
        txn_by_id = {t.id: t for t in self._execution.transactions}
        order = self.nodes
        edges: set[tuple[int, int]] = set()
        for pos_i, i in enumerate(order):
            ti = txn_by_id[i]
            for j in order[pos_i + 1 :]:
                tj = txn_by_id[j]
                if (ti.write_set & tj.access_set) or (ti.read_set & tj.write_set):
                    edges.add((i, j))
        return frozenset(edges)


def build_serialization_graph(execution: ValidatedExecution) -> SerializationGraph:
    """Derive the serialization order from commit order and access sets.

    One pass in commit order links each writer to the readers of its version
    and to the next writer, and each reader to the next writer.  Read-read
    sharing does not order transactions.
    """
    txn_by_id = {t.id: t for t in execution.transactions}
    last_writer: list[int | None] = [None] * execution.num_objects
    readers: list[list[int]] = [[] for _ in range(execution.num_objects)]
    successors: dict[int, set[int]] = {t: set() for t in execution.commit_order}
    for txn_id in execution.commit_order:
        txn = txn_by_id[txn_id]
        for obj in txn.access_set:
            writer = last_writer[obj]
            if writer is not None:
                successors[writer].add(txn_id)
            if obj in txn.write_set:
                for reader in readers[obj]:
                    successors[reader].add(txn_id)
                last_writer[obj] = txn_id
                readers[obj] = []
            else:
                readers[obj].append(txn_id)
    return SerializationGraph(execution, {t: tuple(sorted(s)) for t, s in successors.items()})


@dataclass(frozen=True)
class StateTimeline:
    """Per-object version history.

    writers[x] lists object x's writers in commit order: writers[x][k]
    replaces version k of x and produces version k + 1, so x's versions are
    0..len(writers[x]).  Only the writers are kept.
    """

    num_objects: int
    writers: tuple[tuple[int, ...], ...]

    def max_version(self, obj: int) -> int:
        return len(self.writers[obj])


def assign_versions(execution: ValidatedExecution) -> StateTimeline:
    """Number versions by commit order: the k-th writer of x produces version k."""
    txn_by_id = {t.id: t for t in execution.transactions}
    writers: list[list[int]] = [[] for _ in range(execution.num_objects)]
    for txn_id in execution.commit_order:
        for obj in txn_by_id[txn_id].write_set:
            writers[obj].append(txn_id)
    return StateTimeline(execution.num_objects, tuple(map(tuple, writers)))
