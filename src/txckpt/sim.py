"""Deterministic seeded simulation of transactions over per-object data managers.

One logical event loop in integer ticks.  Transactions acquire read/write
locks on their access sets in ascending object order (which rules out
deadlock), observe each data manager's checkpoint index as a lock is granted,
perform seeded work, and commit atomically.  At commit the transaction
manager sends one message per accessed object, carrying the maximum observed
index, with a seeded delay per message: written objects get a commit message
that applies the new version, read-only ones get a lock-release notification.
Each lock is held until its data manager processes that message, so
per-object access order follows commit order even though deliveries
interleave.  Data manager timers drive basic checkpoints while an object has
no write in flight; message deliveries drive the forcing rule with the
configured protocol's z.

The loop keeps every piece of state as plain ints in per-object and
per-transaction lists: per object its checkpoint index and version, the
write-lock holder, the number of read locks, the FIFO queue of waiting
transactions and the heap sequence number of its live timer (an expiry whose
entry was superseded by a forced checkpoint's re-armed timer is dropped);
per transaction the number of locks held and the maximum index observed.
Heap entries are (time, seq, kind, txn, obj) tuples of ints, dispatched by
one loop.  A CheckpointRecord (a NamedTuple) is built only when a checkpoint
is taken.  Each logged event is one plain row (time, kind, *values) in
Trace.events: its seq is its position there, and EVENT_KEYS names its value
keys once per event kind.  Delays, jitter and arrival gaps come from
scenario.randint_draws, which draws what random.randint would without its
call stack.  The forcing decision is protocol.forced_index, the one
statement of the rule, for commit messages and read-lock releases alike.

A run is a pure function of (workload, config): identical inputs give
byte-identical traces.  So Trace.from_dict reads only the config and the
workload of a trace file, re-runs them, and returns the re-run once the
file's execution, events and checkpoint log equal it item by item, each
value of the type the re-run gives it.  _sections states those three parts
of the file's layout once, for writing and for this comparison alike.  The
config and workload are read by scenario.fields_from_json with no defaults.
"""

from __future__ import annotations

import json
import random
from collections import Counter, deque
from dataclasses import dataclass, fields
from heapq import heappop, heappush
from itertools import starmap, zip_longest
from typing import Any, Iterable, Iterator, Mapping

from .model import Execution, ValidatedExecution, validate_execution
from .protocol import (
    KIND_BASIC,
    KIND_FORCED,
    PROTOCOL_A,
    PROTOCOL_B,
    CheckpointRecord,
    forced_index,
    initial_record,
)
from .scenario import WorkloadSpec, fields_from_json, fields_to_json, randint_draws, workload_transactions
from .scenario import _expect, _known_fields, _transaction_dict

EV_TXN_BEGIN = "txn_begin"
EV_LOCK_ACQUIRED = "lock_acquired"
EV_TXN_COMMIT = "txn_commit"
EV_COMMIT_MSG = "commit_msg_delivered"
EV_TIMER = "timer_expired"
# Each event kind's data keys, sorted: the one statement of the event schema.
EVENT_KEYS: dict[str, tuple[str, ...]] = {
    EV_TXN_BEGIN: ("txn",),
    EV_LOCK_ACQUIRED: ("obj", "txn", "write"),
    EV_TXN_COMMIT: ("max_index", "txn"),
    EV_COMMIT_MSG: ("apply", "forced", "max_index", "obj", "txn"),
    EV_TIMER: ("index", "obj"),
}


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class SimConfig:
    seed: int
    num_objects: int
    protocol: str = PROTOCOL_A
    z_param: int = 1
    message_delay_range: tuple[int, int] = (1, 10)
    timer_period: int = 25
    timer_jitter: int = 0
    arrival_gap_range: tuple[int, int] = (0, 5)
    work_delay_range: tuple[int, int] = (1, 5)

    def __post_init__(self) -> None:
        if self.protocol not in (PROTOCOL_A, PROTOCOL_B):
            raise SimulationError(f"unknown protocol {self.protocol!r}")
        if self.z_param < 1:
            raise SimulationError("z_param must be at least 1")
        if self.timer_period < 1:
            raise SimulationError("timer_period must be at least 1")
        if self.timer_jitter < 0:
            raise SimulationError("timer_jitter must be non-negative")
        for name in (f.name for f in fields(self) if type(f.default) is tuple):  # as fields_from_json finds pairs
            bounds = getattr(self, name)
            if len(bounds) != 2 or not 0 <= bounds[0] <= bounds[1]:
                raise SimulationError(f"{name} must be (lo, hi) with 0 <= lo <= hi")

    @property
    def z(self) -> int:
        """The forcing rule's z: z_param under protocol B, 1 under protocol A."""
        return self.z_param if self.protocol == PROTOCOL_B else 1


def _event_dict(seq: int, row: tuple[Any, ...]) -> dict[str, int | str]:
    """The event at position seq of a trace, whose row is (time, kind, *values), as trace files hold it."""
    time, kind, *values = row
    out: dict[str, int | str] = {"time": time, "seq": seq, "kind": kind}
    out.update(zip(EVENT_KEYS[kind], values))
    return out


def _sections(trace: "Trace") -> Iterator[tuple[str, str, Iterable[Any]]]:
    """The trace file's item sections as (where, field, items as the file holds them)."""
    execution = trace.execution
    yield "trace.execution", "transactions", map(_transaction_dict, execution.transactions)
    yield "trace.execution", "commit_order", execution.commit_order
    yield "trace", "events", starmap(_event_dict, enumerate(trace.events))
    yield "trace", "checkpoint_log", map(CheckpointRecord._asdict, trace.checkpoint_log)


@dataclass(frozen=True)
class Trace:
    config: SimConfig
    workload: WorkloadSpec
    execution: ValidatedExecution
    events: tuple[tuple[Any, ...], ...]  # (time, kind, *values); seq is the position
    checkpoint_log: tuple[CheckpointRecord, ...]

    def to_dict(self) -> dict[str, Any]:
        execution = {"objects": self.execution.num_objects}
        out = {"schema_version": 1, "config": fields_to_json(self.config),
               "workload": fields_to_json(self.workload), "execution": execution}
        within = {"trace": out, "trace.execution": execution}
        for where, field, items in _sections(self):
            within[where][field] = list(items)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Trace":
        """The re-run of the trace's config and workload, if the trace equals it."""
        if not isinstance(data, Mapping) or data.get("schema_version") != 1 or _loose(data["schema_version"]):
            raise SimulationError("unsupported trace schema version")
        sections = {"schema_version", "config", "workload", "execution", "events", "checkpoint_log"}
        _known_fields(data, sections, "trace")
        cfg = dict(_expect(data, "config", Mapping, "trace"))
        cfg.pop("object_placement", None)  # written by older versions, never read
        # Unlike a workload file, a trace holds every field: no default applies.
        config = fields_from_json(SimConfig, cfg, "trace.config", defaults=False)
        stored_workload = _expect(data, "workload", Mapping, "trace")
        workload = fields_from_json(WorkloadSpec, stored_workload, "trace.workload", defaults=False)
        stored = _expect(data, "execution", Mapping, "trace")
        objects = _expect(stored, "objects", int, "trace.execution")
        for where, count in (("config", config.num_objects), ("workload", workload.num_objects)):
            if count != objects:
                raise SimulationError(
                    f"trace.{where}.num_objects: {count} disagrees with trace.execution.objects {objects}"
                )
        # Checked before the run, so that a small file cannot ask for a huge one.
        n = len(_expect(stored, "transactions", list, "trace.execution"))
        if n != workload.num_txns:
            raise SimulationError(
                f"trace.workload.num_txns: {workload.num_txns} disagrees with trace.execution's {n} transactions"
            )
        logged = len(_expect(data, "checkpoint_log", list, "trace"))
        if logged < objects:  # every run logs one initial checkpoint per object
            raise SimulationError(
                f"trace.checkpoint_log: {logged} records, fewer than trace.execution.objects {objects}"
            )
        _known_fields(stored, {"objects", "transactions", "commit_order"}, "trace.execution")
        trace = run_simulation(workload, config)
        within = {"trace": data, "trace.execution": stored}
        for where, field, items in _sections(trace):
            _expect_run(within[where], where, field, items)
        return trace

    @staticmethod
    def from_json(text: str) -> "Trace":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also an integer past the interpreter's digit limit
            raise SimulationError(f"trace: parse error: {exc}") from exc
        return Trace.from_dict(data)


_LOOSE = frozenset((bool, float))  # the JSON values that can equal an int under == without being one


def _loose(value: Any) -> bool:
    """True iff value is or holds a bool or a float."""
    if type(value) is dict:
        value = value.values()
    elif type(value) is not list:
        return type(value) in _LOOSE
    for item in value:
        kind = type(item)
        if kind in _LOOSE or (kind is list or kind is dict) and _loose(item):
            return True
    return False


def _expect_run(data: Mapping[str, Any], where: str, field: str, run: Iterable[Any]) -> None:
    """Raise unless data[field] lists the re-run's items.  Each re-run value
    is an int, a str or a list of ints, so an item that equals its re-run
    under == is exact unless it holds a bool or a float."""
    missing = object()
    for i, (got, want) in enumerate(zip_longest(_expect(data, field, list, where), run, fillvalue=missing)):
        if got != want or _loose(got):
            raise SimulationError(f"{where}.{field}[{i}]: differs from a re-run of trace.config and trace.workload")


_BEGIN, _COMMIT, _DELIVERY, _TIMER = range(4)


def run_simulation(workload: WorkloadSpec, config: SimConfig) -> Trace:
    """Simulate the workload under the configured protocol; fully deterministic."""
    if workload.num_objects != config.num_objects:
        raise SimulationError("workload and config disagree on object count")
    m = config.num_objects
    txns = workload_transactions(workload)  # transaction t is txns[t]
    n = len(txns)
    rng = random.Random(config.seed)
    z, period, jitter = config.z, config.timer_period, config.timer_jitter
    arrival_gap = randint_draws(rng, *config.arrival_gap_range)
    timer_jitter = randint_draws(rng, 0, jitter)  # drawn only when jitter is set
    message_delay = randint_draws(rng, *config.message_delay_range)
    work_delay = randint_draws(rng, *config.work_delay_range)

    # Per object: data manager, lock, and the seq of its live timer entry.
    index = [0] * m
    version = [0] * m
    writer = [-1] * m  # transaction holding the write lock, -1 when free
    readers = [0] * m  # read locks held
    queue: list[deque[int]] = [deque() for _ in range(m)]  # waiting transactions, FIFO
    live_timer = [0] * m
    # Per transaction: lock order, write set, locks held, maximum observed index.
    order = [sorted(t.access_set) for t in txns]
    writes = [t.write_set for t in txns]
    held = [0] * n
    max_seen = [0] * n

    heap: list[tuple[int, int, int, int, int]] = []  # (time, seq, kind, txn, obj)
    seq = 0
    events: list[tuple[Any, ...]] = []  # one (time, kind, *values) row per event
    log = [initial_record(obj) for obj in range(m)]
    commit_order: list[int] = []
    outstanding = 0

    clock = 0
    for t in range(n):
        clock += arrival_gap()
        heappush(heap, (clock, seq, _BEGIN, t, -1))
        seq += 1
    for obj in range(m):
        heappush(heap, (period + (timer_jitter() if jitter else 0), seq, _TIMER, -1, obj))
        live_timer[obj] = seq
        seq += 1

    while heap:
        now, entry_seq, kind, t, obj = heappop(heap)
        if kind == _TIMER:
            # A timer superseded by a forced checkpoint is dropped, and all
            # timers stop once the work is done.
            if entry_seq != live_timer[obj] or (len(commit_order) == n and not outstanding):
                continue
            deadline = now + period + (timer_jitter() if jitter else 0)
            # Basic checkpoints happen only while the data manager is idle: a
            # write in flight has already observed the current index, so a new
            # checkpoint here would not be reflected in that writer's metadata.
            if writer[obj] < 0:
                index[obj] += 1
                log.append(CheckpointRecord(obj, index[obj], KIND_BASIC, version[obj], now))
                events.append((now, EV_TIMER, index[obj], obj))
            heappush(heap, (deadline, seq, _TIMER, -1, obj))
            live_timer[obj] = seq
            seq += 1
            continue
        if kind == _COMMIT:
            commit_order.append(t)
            events.append((now, EV_TXN_COMMIT, max_seen[t], t))
            # Commit metadata rides every lock release this transaction owes:
            # commit messages to written objects, release notifications to
            # read-only ones.  Locks free only when the message lands, so
            # per-object processing order matches commit order.
            for dest in order[t]:
                heappush(heap, (now + message_delay(), seq, _DELIVERY, t, dest))
                seq += 1
            outstanding += len(order[t])
            continue
        if kind == _BEGIN:
            events.append((now, EV_TXN_BEGIN, t))
            granted = False
        else:
            outstanding -= 1
            apply_write = obj in writes[t]
            deadline = now + period + (timer_jitter() if jitter else 0)  # drawn on every delivery
            forced = forced_index(index[obj], max_seen[t], z)
            if forced is not None:
                # The forced checkpoint saves the state before the write applies.
                log.append(CheckpointRecord(obj, forced, KIND_FORCED, version[obj], now))
                index[obj] = forced
                heappush(heap, (deadline, seq, _TIMER, -1, obj))
                live_timer[obj] = seq
                seq += 1
            events.append((now, EV_COMMIT_MSG, int(apply_write), int(forced is not None), max_seen[t], obj, t))
            if apply_write:
                version[obj] += 1
                writer[obj] = -1
            else:
                readers[obj] -= 1
            t = -1
        # A beginning transaction t takes locks in order until one must wait;
        # with all of them it schedules its commit.  After a delivery, each
        # queued request on obj that has become compatible is granted in FIFO
        # order, and its transaction goes on the same way (granted: its next
        # lock was just granted from the queue).
        while True:
            if t >= 0:
                wset = writes[t]
                for lock in order[t][held[t]:]:
                    write = lock in wset
                    if not granted and (queue[lock] or writer[lock] >= 0 or (write and readers[lock])):
                        queue[lock].append(t)
                        break
                    granted = False
                    if write:
                        writer[lock] = t
                    else:
                        readers[lock] += 1
                    if index[lock] > max_seen[t]:
                        max_seen[t] = index[lock]
                    events.append((now, EV_LOCK_ACQUIRED, lock, t, int(write)))
                    held[t] += 1
                else:
                    heappush(heap, (now + work_delay(), seq, _COMMIT, t, -1))
                    seq += 1
            if kind == _BEGIN:
                break
            waiting = queue[obj]
            if not waiting or writer[obj] >= 0 or (readers[obj] and obj in writes[waiting[0]]):
                break
            t = waiting.popleft()
            granted = True

    execution = validate_execution(Execution(m, tuple(txns), tuple(commit_order)))
    writers = Counter(obj for txn in txns for obj in txn.write_set)
    for obj in range(m):
        if version[obj] != writers[obj]:
            raise SimulationError(f"object {obj}: undelivered writes at end of run")
    return Trace(config, workload, execution, tuple(events), tuple(log))
