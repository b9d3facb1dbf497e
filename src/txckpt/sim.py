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

A run is a pure function of (workload, config): identical inputs give
byte-identical traces.
"""

from __future__ import annotations

import heapq
import json
import random
from collections import Counter, deque
from dataclasses import dataclass, fields
from typing import Any, Mapping, NamedTuple

from .model import Execution, Transaction, ValidatedExecution, validate_execution
from .protocol import (
    KIND_BASIC,
    KIND_FORCED,
    KIND_INITIAL,
    PROTOCOL_A,
    PROTOCOL_B,
    CheckpointRecord,
    CommitMessage,
    DataManagerState,
    dm_on_commit,
    dm_on_release,
    dm_on_timer,
    initial_record,
    tm_commit_metadata,
)
from .scenario import WorkloadSpec, workload_from_dict, workload_transactions
from .scenario import _execution_from_dict, _expect, _int_list, _records

EV_TXN_BEGIN = "txn_begin"
EV_LOCK_ACQUIRED = "lock_acquired"
EV_TXN_COMMIT = "txn_commit"
EV_COMMIT_MSG = "commit_msg_delivered"
EV_TIMER = "timer_expired"


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
        for name in ("message_delay_range", "arrival_gap_range", "work_delay_range"):
            bounds = getattr(self, name)
            if len(bounds) != 2 or not 0 <= bounds[0] <= bounds[1]:
                raise SimulationError(f"{name} must be (lo, hi) with 0 <= lo <= hi")

    @property
    def z(self) -> int:
        """The forcing rule's z: z_param under protocol B, 1 under protocol A."""
        return self.z_param if self.protocol == PROTOCOL_B else 1


class SimEvent(NamedTuple):
    """One logged event; data holds its (key, value) pairs sorted by key."""

    time: int
    seq: int
    kind: str
    data: tuple[tuple[str, int], ...]

    def to_dict(self) -> dict[str, int | str]:
        out: dict[str, int | str] = {"time": self.time, "seq": self.seq, "kind": self.kind}
        out.update(self.data)
        return out


@dataclass(frozen=True)
class Trace:
    config: SimConfig
    workload: WorkloadSpec
    execution: ValidatedExecution
    events: tuple[SimEvent, ...]
    checkpoint_log: tuple[CheckpointRecord, ...]

    def to_dict(self) -> dict[str, Any]:
        cfg = {f.name: getattr(self.config, f.name) for f in fields(self.config)}
        cfg["message_delay_range"] = list(self.config.message_delay_range)
        cfg["arrival_gap_range"] = list(self.config.arrival_gap_range)
        cfg["work_delay_range"] = list(self.config.work_delay_range)
        wl = {f.name: getattr(self.workload, f.name) for f in fields(self.workload)}
        wl["ops_per_txn"] = list(self.workload.ops_per_txn)
        return {
            "schema_version": 1,
            "config": cfg,
            "workload": wl,
            "execution": {
                "objects": self.execution.num_objects,
                "transactions": [
                    {"id": t.id, "reads": sorted(t.read_set), "writes": sorted(t.write_set)}
                    for t in self.execution.transactions
                ],
                "commit_order": list(self.execution.commit_order),
            },
            "events": [e.to_dict() for e in self.events],
            "checkpoint_log": [
                {"obj": r.obj, "index": r.index, "kind": r.kind, "version": r.version, "time": r.time}
                for r in self.checkpoint_log
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Trace":
        if not isinstance(data, Mapping) or data.get("schema_version") != 1:
            raise SimulationError("unsupported trace schema version")
        cfg = dict(_expect(data, "config", Mapping, "trace"))
        cfg.pop("object_placement", None)  # written by older versions, never read
        known = [f.name for f in fields(SimConfig)]
        unknown = set(cfg) - set(known)
        if unknown:
            raise SimulationError(f"trace.config: unknown fields {sorted(unknown)}")
        for name in known:
            if name.endswith("_range"):
                cfg[name] = tuple(_int_list(cfg.get(name), f"trace.config.{name}"))
            elif name != "protocol":
                _expect(cfg, name, int, "trace.config")
        config = SimConfig(**cfg)
        workload = workload_from_dict(_expect(data, "workload", Mapping, "trace"))
        execution = _execution_from_dict(_expect(data, "execution", Mapping, "trace"), "trace.execution")
        events = []
        for i, e in enumerate(_records(data, "events", "trace")):
            where = f"trace.events[{i}]"
            time, seq, kind = (_expect(e, k, t, where) for k, t in (("time", int), ("seq", int), ("kind", str)))
            rest = sorted((k, _expect(e, k, int, where)) for k in e if k not in ("time", "seq", "kind"))
            events.append(SimEvent(time, seq, kind, tuple(rest)))
        last_version = Counter(obj for txn in execution.transactions for obj in txn.write_set)
        log = []
        for i, r in enumerate(_records(data, "checkpoint_log", "trace")):
            where = f"trace.checkpoint_log[{i}]"
            obj, index, version, time = (_expect(r, k, int, where) for k in ("obj", "index", "version", "time"))
            if r.get("kind") not in (KIND_INITIAL, KIND_BASIC, KIND_FORCED):
                raise SimulationError(f"{where}: unknown kind {r.get('kind')!r}")
            if not 0 <= obj < execution.num_objects:
                raise SimulationError(f"{where}: object {obj} out of range")
            if not 0 <= version <= last_version[obj]:
                raise SimulationError(
                    f"{where}: version {version} outside object {obj}'s versions 0..{last_version[obj]}"
                )
            log.append(CheckpointRecord(obj, index, r["kind"], version, time))
        return Trace(config, workload, execution, tuple(events), tuple(log))

    @staticmethod
    def from_json(text: str) -> "Trace":
        return Trace.from_dict(json.loads(text))


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


class _Simulation:
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
        self.events: list[SimEvent] = []
        self.log: list[CheckpointRecord] = [initial_record(o) for o in range(config.num_objects)]
        self.commit_order: list[int] = []
        self.outstanding_msgs = 0

    # -- plumbing --------------------------------------------------------

    def _schedule(self, time: int, kind: str, payload: tuple) -> None:
        heapq.heappush(self.heap, (time, self.seq, kind, payload))
        self.seq += 1

    def _record(self, kind: str, data: tuple[tuple[str, int], ...]) -> None:
        """Log an event; each call site writes data already sorted by key."""
        self.events.append(SimEvent(self.now, len(self.events), kind, data))

    def _next_deadline(self) -> int:
        jitter = self.rng.randint(0, self.config.timer_jitter) if self.config.timer_jitter else 0
        return self.now + self.config.timer_period + jitter

    def _work_done(self) -> bool:
        return len(self.commit_order) == len(self.txns) and self.outstanding_msgs == 0

    # -- locking -----------------------------------------------------------

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
        """Request the next lock; True when granted immediately."""
        obj = run.order[run.pos]
        lock = self.locks[obj]
        if not lock.queue and lock.free_for(run.mode(obj)):
            self._grant(run.txn.id, obj)
            return True
        lock.queue.append((run.txn.id, run.mode(obj)))
        return False

    def _pump(self, obj: int) -> None:
        """Grant queued requests that became compatible, in FIFO order."""
        lock = self.locks[obj]
        while lock.queue:
            txn_id, mode = lock.queue[0]
            if not lock.free_for(mode):
                break
            lock.queue.popleft()
            self._grant(txn_id, obj)
            self._advance(self.txns[txn_id])

    def _advance(self, run: _TxnRun) -> None:
        """Acquire locks until one must wait; with all of them, schedule the
        commit.  A transaction holding every lock is never queued again, so
        this happens once per transaction."""
        while run.pos < len(run.order):
            if not self._try_acquire(run):
                return
        delay = self.rng.randint(*self.config.work_delay_range)
        self._schedule(self.now + delay, EV_TXN_COMMIT, (run.txn.id,))

    # -- event handlers ------------------------------------------------------

    def _on_begin(self, txn_id: int) -> None:
        self._record(EV_TXN_BEGIN, (("txn", txn_id),))
        self._advance(self.txns[txn_id])

    def _on_commit(self, txn_id: int) -> None:
        run = self.txns[txn_id]
        self.commit_order.append(txn_id)
        msgs = tm_commit_metadata(run.txn, run.observed)
        self._record(EV_TXN_COMMIT, (("max_index", msgs[0].max_index), ("txn", txn_id)))
        lo, hi = self.config.message_delay_range
        # Commit metadata rides every lock release this transaction owes:
        # commit messages to written objects, release notifications to
        # read-only ones.  Locks free only when the message lands, so
        # per-object processing order matches commit order.
        for msg in msgs:
            self.outstanding_msgs += 1
            self._schedule(self.now + self.rng.randint(lo, hi), EV_COMMIT_MSG, (msg,))

    def _on_delivery(self, msg: CommitMessage) -> None:
        self.outstanding_msgs -= 1
        txn_id, obj = msg.txn, msg.dest
        apply_write = int(obj in self.txns[txn_id].txn.write_set)
        step = dm_on_commit if apply_write else dm_on_release
        deadline = self._next_deadline()  # drawn on every delivery: it advances the jitter RNG
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
            # Basic checkpoints happen only while the data manager is idle: a
            # write in flight has already observed the current index, so a new
            # checkpoint here would not be reflected in that writer's metadata.
            self._schedule(deadline, EV_TIMER, (obj, gen))
            return
        dm, record = dm_on_timer(self.dms[obj], self.now)
        self.dms[obj] = dm
        self.log.append(record)
        self._record(EV_TIMER, (("index", dm.index), ("obj", obj)))
        self._schedule(deadline, EV_TIMER, (obj, gen))

    # -- main loop -------------------------------------------------------

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
        return Trace(
            self.config,
            self.workload,
            execution,
            tuple(self.events),
            tuple(self.log),
        )


def run_simulation(workload: WorkloadSpec, config: SimConfig) -> Trace:
    """Simulate the workload under the configured protocol; fully deterministic."""
    return _Simulation(workload, config).run()
