"""Scenario and workload files, bundled example scenarios, seeded generators.

Scenario files are JSON with integer fields only:

    {
      "objects": 3,
      "object_names": ["x", "y", "z"],          # optional
      "transactions": [
        {"id": 1, "reads": [0], "writes": [1, 2]},
        {"id": 2, "reads": [1], "writes": [0]}
      ],
      "commit_order": [1, 2],
      "checkpoints": {"x": [0, 1], "y": [0, 1], "z": [0, 1]}   # optional
    }

Checkpoint keys may be object names or decimal indices, one key per object;
version 0 and the object's last version are implied for every object and
added on load (CheckpointPattern.make).  Unknown fields are rejected.

Workload files describe random-workload parameters for the generator and the
simulator: WorkloadSpec's fields, a missing one taking its default.  Its and
sim.SimConfig's fields, JSON types and defaults are stated once, in the
classes, and fields_from_json and fields_to_json read and write by them.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields
from math import ceil, inf
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from .dependence import CheckpointPattern, PatternError
from .model import (
    Execution,
    ExecutionError,
    Transaction,
    ValidatedExecution,
    assign_versions,
    validate_execution,
)


class ScenarioError(ValueError):
    """Scenario or workload file failed to parse or validate."""


def parse_decimal(text: str) -> int:
    """text read as ASCII digits after an optional '-'; ValueError otherwise."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal: {text!r}")
    return int(text)


def resolve_object(token: str, names: Sequence[str]) -> int:
    """The object token names: one of names, else a decimal index in 0..len(names)-1."""
    if token in names:
        return names.index(token)
    try:
        idx = parse_decimal(token)
    except ValueError:
        raise ScenarioError(f"unknown object {token!r}") from None
    if not 0 <= idx < len(names):
        raise ScenarioError(f"object index {idx} out of range")
    return idx


@dataclass(frozen=True)
class Scenario:
    execution: ValidatedExecution
    pattern: CheckpointPattern
    object_names: tuple[str, ...]


def _expect(data: Mapping[str, Any], field: str, kind: type | tuple[type, ...], where: str,
            default: Any = None) -> Any:
    """data[field], which must be of kind (never a bool); default when absent, if not None."""
    if field not in data:
        if default is None:
            raise ScenarioError(f"{where}: missing field {field!r}")
        return default
    value = data[field]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ScenarioError(f"{where}.{field}: expected {getattr(kind, '__name__', 'number')}")
    return value


def _known_fields(data: Mapping[str, Any], known: set[str], where: str) -> None:
    """Raise unless every key of data is one of known."""
    if not data.keys() <= known:
        raise ScenarioError(f"{where}: unknown fields {sorted(data.keys() - known)}")


def _int_list(value: Any, where: str) -> list[int]:
    if not isinstance(value, list) or any(isinstance(v, bool) or not isinstance(v, int) for v in value):
        raise ScenarioError(f"{where}: expected a list of integers")
    return list(value)


def _transaction_dict(txn: Transaction) -> dict[str, Any]:
    """A transaction as scenario and trace files hold it."""
    return {"id": txn.id, "reads": sorted(txn.read_set), "writes": sorted(txn.write_set)}


def scenario_from_dict(data: Mapping[str, Any], name: str = "scenario") -> Scenario:
    _known_fields(data, {"objects", "object_names", "transactions", "commit_order", "checkpoints"}, name)
    num_objects = _expect(data, "objects", int, name)
    txns = []
    for i, raw in enumerate(_expect(data, "transactions", list, name, [])):
        at = f"{name}.transactions[{i}]"
        if not isinstance(raw, Mapping):
            raise ScenarioError(f"{at}: expected an object")
        _known_fields(raw, {"id", "reads", "writes"}, at)
        reads, writes = (_int_list(raw.get(k, []), f"{at}.{k}") for k in ("reads", "writes"))
        txns.append(Transaction.make(_expect(raw, "id", int, at), reads, writes))
    order = _int_list(data.get("commit_order", []), f"{name}.commit_order")
    try:
        execution = validate_execution(Execution(num_objects, tuple(txns), tuple(order)))
    except ExecutionError as exc:
        raise ScenarioError(f"{name}: {exc}") from exc
    names = data.get("object_names", [str(i) for i in range(num_objects)])
    if not isinstance(names, list) or len(names) != num_objects or not all(isinstance(s, str) for s in names):
        raise ScenarioError(f"{name}.object_names: expected {num_objects} strings")
    if len(set(names)) != num_objects:
        raise ScenarioError(f"{name}.object_names: names must be unique")
    timeline = assign_versions(execution)
    raw_ckpt = data.get("checkpoints", {})
    if not isinstance(raw_ckpt, Mapping):
        raise ScenarioError(f"{name}.checkpoints: expected a mapping")
    by_obj: dict[int, list[int]] = {}
    for key, versions in raw_ckpt.items():
        try:
            obj = resolve_object(key, names)
        except ScenarioError as exc:
            raise ScenarioError(f"{name}.checkpoints: {exc}") from None
        if obj in by_obj:
            raise ScenarioError(f"{name}.checkpoints: object {key!r} appears twice")
        by_obj[obj] = _int_list(versions, f"{name}.checkpoints[{key!r}]")
    try:
        pattern = CheckpointPattern.make(by_obj, timeline)
    except PatternError as exc:
        raise ScenarioError(f"{name}.checkpoints: {exc}") from exc
    return Scenario(execution, pattern, tuple(names))


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    execution = scenario.execution
    return {
        "objects": execution.num_objects,
        "object_names": list(scenario.object_names),
        "transactions": [_transaction_dict(t) for t in sorted(execution.transactions, key=lambda t: t.id)],
        "commit_order": list(execution.commit_order),
        "checkpoints": {
            scenario.object_names[obj]: list(versions)
            for obj, versions in enumerate(scenario.pattern.versions)
        },
    }


@contextmanager
def reading_json(path: str | Path) -> Iterator[None]:
    """Turn a failure to read or parse the file at path as UTF-8 JSON inside
    the block into ScenarioError.  Any ValueError is a parse error there."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"{path}: parse error: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario file, or a bundled scenario by name."""
    name = str(path)
    if name.startswith("builtin:"):
        return builtin_scenario(name.split(":", 1)[1])
    p = Path(path)
    if not p.exists() and name in BUILTIN_SCENARIOS:
        return builtin_scenario(name)
    with reading_json(p):
        data = json.loads(p.read_text(encoding="utf-8"))
    if not isinstance(data, Mapping):
        raise ScenarioError(f"{p}: expected a JSON object")
    return scenario_from_dict(data, name=p.stem)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n")


# Bundled scenarios.  fig1a/fig1b: two transactions with a read-write conflict
# on x, under the two possible serialization orders, every state checkpointed.
# fig3: seven transactions over u, z, y, x whose checkpoint pattern exhibits a
# dependence path between checkpoints with no happened-before relation.
BUILTIN_SCENARIOS: dict[str, dict[str, Any]] = {
    "fig1a": {
        "objects": 3,
        "object_names": ["x", "y", "z"],
        "transactions": [
            {"id": 1, "reads": [0], "writes": [1, 2]},
            {"id": 2, "reads": [1], "writes": [0]},
        ],
        "commit_order": [1, 2],
        "checkpoints": {"x": [0, 1], "y": [0, 1], "z": [0, 1]},
    },
    "fig1b": {
        "objects": 3,
        "object_names": ["x", "y", "z"],
        "transactions": [
            {"id": 1, "reads": [0], "writes": [1, 2]},
            {"id": 2, "reads": [1], "writes": [0]},
        ],
        "commit_order": [2, 1],
        "checkpoints": {"x": [0, 1], "y": [0, 1], "z": [0, 1]},
    },
    "fig3": {
        "objects": 4,
        "object_names": ["u", "z", "y", "x"],
        "transactions": [
            {"id": 1, "reads": [0], "writes": [0]},
            {"id": 2, "reads": [1], "writes": [1]},
            {"id": 3, "reads": [1], "writes": [1, 3]},
            {"id": 4, "reads": [0, 1], "writes": [1]},
            {"id": 5, "reads": [1], "writes": [1, 2]},
            {"id": 6, "reads": [2], "writes": [2]},
            {"id": 7, "reads": [3], "writes": [3]},
        ],
        "commit_order": [1, 2, 3, 7, 4, 5, 6],
        "checkpoints": {"u": [0], "z": [0, 4], "y": [0, 2], "x": [0, 2]},
    },
}


def builtin_scenario(name: str) -> Scenario:
    try:
        data = BUILTIN_SCENARIOS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown builtin scenario {name!r}; available: {sorted(BUILTIN_SCENARIOS)}"
        ) from None
    return scenario_from_dict(data, name=name)


@dataclass(frozen=True)
class WorkloadSpec:
    num_objects: int
    num_txns: int
    ops_per_txn: tuple[int, int] = (1, 3)
    write_probability: float = 0.5
    access_skew: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_objects < 1:
            raise ScenarioError("num_objects must be at least 1")
        if self.num_txns < 0:
            raise ScenarioError("num_txns must be non-negative")
        lo, hi = self.ops_per_txn
        if not 1 <= lo <= hi:
            raise ScenarioError("ops_per_txn range must satisfy 1 <= lo <= hi")
        if not 0.0 <= self.write_probability <= 1.0:
            raise ScenarioError("write_probability must lie in [0, 1]")
        if not self.access_skew >= 0.0:  # also rejects NaN
            raise ScenarioError("access_skew must be non-negative")
        if self.access_skew == inf:  # m ** inf is inf or, for one object, 1.0: no OverflowError
            raise ScenarioError("access_skew must be finite")
        try:  # the largest power workload_transactions' skew weights take
            float(self.num_objects) ** self.access_skew
        except OverflowError:
            raise ScenarioError("num_objects ** access_skew exceeds the float range") from None


def fields_from_json(cls: type, data: Any, where: str, defaults: bool = True) -> Any:
    """The dataclass cls built from the JSON object data by cls's fields.

    A field's JSON type is that of its default: [lo, hi] of ints for a
    tuple, any number for a float (read as a float), a string for a string,
    and an int where there is no default.  A missing field takes its default
    when defaults is set, and is an error otherwise.
    """
    if not isinstance(data, Mapping):
        raise ScenarioError(f"{where}: expected an object")
    known = fields(cls)
    _known_fields(data, {f.name for f in known}, where)
    values: dict[str, Any] = {}
    for f in known:
        if f.name not in data:
            if defaults and f.default is not MISSING:
                continue
            raise ScenarioError(f"{where}: missing field {f.name!r}")
        kind = int if f.default is MISSING else type(f.default)
        if kind is tuple:
            values[f.name] = tuple(_int_list(data[f.name], f"{where}.{f.name}"))
            if len(values[f.name]) != 2:
                raise ScenarioError(f"{where}.{f.name}: expected [lo, hi]")
        elif kind is float:
            try:
                values[f.name] = float(_expect(data, f.name, (int, float), where))
            except OverflowError:  # a JSON integer beyond the float range
                raise ScenarioError(f"{where}.{f.name}: out of the float range") from None
        else:
            values[f.name] = _expect(data, f.name, kind, where)
    return cls(**values)


def fields_to_json(obj: Any) -> dict[str, Any]:
    """The dataclass instance obj as fields_from_json reads it: tuples as lists."""
    return {name: list(value) if isinstance(value, tuple) else value for name, value in asdict(obj).items()}


def load_workload(path: str | Path) -> WorkloadSpec:
    p = Path(path)
    with reading_json(p):
        data = json.loads(p.read_text(encoding="utf-8"))
    return fields_from_json(WorkloadSpec, data, p.stem)


def randint_draws(rng: random.Random, lo: int, hi: int) -> Callable[[], int]:
    """A function drawing what rng.randint(lo, hi) draws, word for word.

    It runs the rejection loop CPython's randint runs (3.10 to 3.13): redraw
    getrandbits(k), k the bit length of the width, until it is below the
    width.  A width of one still draws.  lo <= hi.
    """
    getrandbits = rng.getrandbits
    n = hi - lo + 1
    k = n.bit_length()

    def draw() -> int:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return lo + r

    return draw


def _weighted_distinct(rng: random.Random, weights: list[float], k: int) -> list[int]:
    pool = list(range(len(weights)))
    live = list(weights)
    chosen: list[int] = []
    for _ in range(min(k, len(pool))):
        total = sum(live)
        r = rng.random() * total
        acc = 0.0
        pick = len(live) - 1
        for idx, w in enumerate(live):
            acc += w
            if r <= acc:
                pick = idx
                break
        chosen.append(pool.pop(pick))
        live.pop(pick)
    return chosen


def _uniform_distinct(rng: random.Random, m: int, k: int) -> list[int]:
    """_weighted_distinct over m unit weights, from the same draws: the scan's
    running sums are then exact integers, so it picks ceil(r) - 1 (0 at r = 0)."""
    pool = list(range(m))
    draw = rng.random
    picks = []
    for size in range(m, m - min(k, m), -1):
        picks.append(pool.pop((ceil(draw() * size) or 1) - 1))
    return picks


def workload_transactions(spec: WorkloadSpec) -> list[Transaction]:
    """Seeded access sets for the workload; ids are 0..num_txns-1."""
    rng = random.Random(spec.seed)
    draw = rng.random
    m, skew, p = spec.num_objects, spec.access_skew, spec.write_probability
    if skew:
        weights = [1.0 / (i + 1) ** skew for i in range(m)]
    ops = randint_draws(rng, *spec.ops_per_txn)
    txns = []
    for txn_id in range(spec.num_txns):
        objs = _weighted_distinct(rng, weights, ops()) if skew else _uniform_distinct(rng, m, ops())
        reads, writes = [], []
        for obj in objs:
            if draw() < p:
                writes.append(obj)
                if draw() < 0.5:
                    reads.append(obj)
            else:
                reads.append(obj)
        txns.append(Transaction(txn_id, frozenset(reads), frozenset(writes)))
    return txns


def generate_random(
    spec: WorkloadSpec, max_checkpoints_per_object: int = 3
) -> tuple[ValidatedExecution, CheckpointPattern]:
    """Seeded random execution plus checkpoint pattern.

    Per object, the pattern holds version 0, up to
    max_checkpoints_per_object - 1 versions sampled from 1..last, and the
    last version, which CheckpointPattern.make adds.
    """
    rng = random.Random(spec.seed ^ 0x5CE9A210)
    txns = workload_transactions(spec)
    order = [t.id for t in txns]
    rng.shuffle(order)
    execution = validate_execution(Execution(spec.num_objects, tuple(txns), tuple(order)))
    timeline = assign_versions(execution)
    raw: dict[int, list[int]] = {}
    for obj in range(spec.num_objects):
        top = timeline.max_version(obj)
        extra = rng.randint(0, max(0, max_checkpoints_per_object - 1))
        raw[obj] = sorted(rng.sample(range(1, top + 1), min(extra, top)))
    return execution, CheckpointPattern.make(raw, timeline)
