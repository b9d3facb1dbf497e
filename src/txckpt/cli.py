"""Command-line interface.

Subcommands: analyze, check, extend, simulate, verify.  A command that
parses prints one JSON report to stdout (schema_version 1, stable key order)
and exits with 0 when the queried property holds, 1 when it does not, 2 on
input errors.  A usage error (argparse's, or verify with no mode or two)
prints the usage text to stderr and exits 2 with no report.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Sequence

from .dependence import AnalysisError, Checkpoint, CheckpointAnalysis, DependenceEdge, ExecutionAnalysis
from .model import ExecutionError, LocalState
from .protocol import KIND_BASIC, KIND_FORCED, KIND_INITIAL, PROTOCOL_A, PROTOCOL_B
from .protocol import trace_pattern, verify_protocol_guarantees
from .scenario import (
    Scenario,
    ScenarioError,
    WorkloadSpec,
    generate_random,
    load_scenario,
    load_workload,
    parse_decimal,
    reading_json,
    resolve_object,
)
from .sim import SimConfig, SimulationError, Trace, run_simulation
from .theory import (
    ConditionViolated,
    GlobalCheckpoint,
    OracleBoundExceeded,
    enumerate_consistent_globals,
    extend_to_global,
    is_consistent_global_state,
    theorem_condition,
    violating_pair,
)

SCHEMA_VERSION = 1

# Options that count something; a negative value is an input error.
COUNT_OPTIONS = ("max_states", "oracle_bound", "sim_batch", "theorem_batch", "spot_samples")


class InputError(ValueError):
    pass


def _state_str(names: Sequence[str], obj: int, version: int) -> str:
    return f"{names[obj]}:{version}"


def _edge_dict(edge: DependenceEdge, names: Sequence[str]) -> dict[str, Any]:
    return {
        "source": _state_str(names, edge.source.obj, edge.source.version),
        "target": _state_str(names, edge.target.obj, edge.target.version),
        "kind": edge.kind,
        "via": list(edge.via),
    }


def _violation_dict(
    source: Checkpoint, target: Checkpoint, witness: Sequence[DependenceEdge], names: Sequence[str]
) -> dict[str, Any]:
    return {
        "from": _state_str(names, source.obj, source.version),
        "to": _state_str(names, target.obj, target.version),
        "witness": [_edge_dict(e, names) for e in witness],
    }


def _parse_members(scenario: Scenario, tokens: Sequence[str]) -> dict[int, int]:
    members: dict[int, int] = {}
    for token in tokens:
        if ":" not in token:
            raise InputError(f"candidate member {token!r} is not of the form object:rank")
        name, _, rank_text = token.partition(":")
        obj = resolve_object(name, scenario.object_names)
        try:
            rank = parse_decimal(rank_text)
        except ValueError:
            raise InputError(f"candidate member {token!r}: rank must be an integer") from None
        if obj in members:
            raise InputError(f"object {name!r} appears twice in the candidate set")
        members[obj] = rank
    return members


def _scenario_analysis(scenario: Scenario) -> CheckpointAnalysis:
    return CheckpointAnalysis(ExecutionAnalysis(scenario.execution), scenario.pattern)


def cmd_analyze(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    scenario = load_scenario(args.scenario)
    analysis = _scenario_analysis(scenario)
    base = analysis.base
    names = scenario.object_names
    # A writer of |W| objects has |W|^2 black edges; each ordered pair of
    # writers joined by the serialization order has |Wi| * |Wj| dashed ones.
    width = {t.id: len(t.write_set) for t in scenario.execution.transactions if t.write_set}
    counts = {
        "black": sum(w * w for w in width.values()),
        "dashed": sum(
            wi * wj for i, wi in width.items() for j, wj in width.items() if base.graph.reaches(i, j)
        ),
    }
    # Each checkpoint's interval runs up to the next one; every object's last
    # checkpoint saves its last version, so its interval is that one state.
    intervals = {
        names[obj]: [[s, e] for s, e in zip(vs, [v - 1 for v in vs[1:]] + [vs[-1]])]
        for obj, vs in enumerate(analysis.pattern.versions)
    }
    results: dict[str, Any] = {
        "objects": {names[o]: base.timeline.max_version(o) + 1 for o in range(len(names))},
        "serialization_edges": sorted([list(e) for e in base.graph.direct_edges]),
        "edge_counts": counts,
        "black_edges_per_txn": {
            str(t.id): len(t.write_set) ** 2 for t in scenario.execution.transactions
        },
        "intervals": intervals,
    }
    total_states = sum(base.timeline.max_version(o) + 1 for o in range(len(names)))
    if total_states <= args.max_states:
        states = [LocalState(o, v) for o in range(len(names)) for v in range(base.timeline.max_version(o) + 1)]
        results["happened_before"] = [
            [_state_str(names, *a), _state_str(names, *b)]
            for a in states
            for b in states
            if a != b and base.happened_before(a, b)
        ]
    else:
        results["happened_before_omitted"] = total_states
    return {"results": results, "ok": True}, 0


def cmd_check(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    scenario = load_scenario(args.scenario)
    analysis = _scenario_analysis(scenario)
    members = _parse_members(scenario, args.members)
    names = scenario.object_names
    resolved = {
        names[obj]: {"rank": rank, "version": analysis.checkpoint(obj, rank).version}
        for obj, rank in sorted(members.items())
    }
    pair = violating_pair(members, analysis)
    holds = pair is None
    results: dict[str, Any] = {"members": resolved, "condition_holds": holds}
    if pair is not None:
        results["violation"] = _violation_dict(*pair, analysis.dp_witness(*pair), names)
    oracle: dict[str, Any] = {"checked": False}
    try:
        globals_ = enumerate_consistent_globals(analysis, bound=args.oracle_bound)
        extendable = any(gc.contains(members) for gc in globals_)
        oracle = {"checked": True, "extendable": extendable, "agrees": extendable == holds}
    except OracleBoundExceeded:
        pass
    results["oracle"] = oracle
    ok = holds and oracle.get("agrees", True)
    return {"results": results, "ok": ok}, 0 if holds else 1


def cmd_extend(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    scenario = load_scenario(args.scenario)
    analysis = _scenario_analysis(scenario)
    members = _parse_members(scenario, args.members)
    names = scenario.object_names
    try:
        extension = extend_to_global(members, analysis)
    except ConditionViolated as exc:
        results = {
            "condition_holds": False,
            "violation": _violation_dict(exc.source, exc.target, exc.witness, names),
        }
        return {"results": results, "ok": False}, 1
    gc = extension.global_checkpoint
    consistent = is_consistent_global_state(gc.states(), analysis.base)
    # Per object outside the candidate, the least rank with no dependence
    # path to each member; the extension took the largest of these.
    safe = [(obj, analysis.min_safe_ranks(gc.members[obj])) for obj in sorted(members)]
    results = {
        "condition_holds": True,
        "global_checkpoint": {
            names[c.obj]: {"rank": c.rank, "version": c.version} for c in gc.members
        },
        "min_safe_ranks": {
            names[obj]: {names[m]: ranks[obj] for m, ranks in safe}
            for obj in range(len(names)) if obj not in members
        },
        "consistent": consistent,
    }
    return {"results": results, "ok": consistent}, 0 if consistent else 1


def _config_from_args(args: argparse.Namespace, num_objects: int) -> SimConfig:
    return SimConfig(
        seed=args.seed,
        num_objects=num_objects,
        protocol=args.protocol,
        z_param=args.z,
        message_delay_range=tuple(args.delay),
        timer_period=args.timer,
        timer_jitter=args.jitter,
    )


def _workload_from_args(args: argparse.Namespace) -> WorkloadSpec:
    if args.workload:
        return load_workload(args.workload)
    return WorkloadSpec(
        num_objects=args.objects,
        num_txns=args.txns,
        ops_per_txn=tuple(args.ops),
        write_probability=args.write_prob,
        access_skew=args.skew,
        seed=args.wseed,
    )


def _trace_summary(trace: Trace) -> dict[str, Any]:
    totals = dict.fromkeys((KIND_INITIAL, KIND_BASIC, KIND_FORCED), 0)
    per_obj = {obj: dict.fromkeys(totals, 0) for obj in range(trace.execution.num_objects)}
    for record in trace.checkpoint_log:
        per_obj[record.obj][record.kind] += 1
        totals[record.kind] += 1
    return {
        "transactions": len(trace.execution.transactions),
        "events": len(trace.events),
        "checkpoints_per_object": {str(obj): counts for obj, counts in per_obj.items()},
        "checkpoint_totals": totals,
    }


def cmd_simulate(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    workload = _workload_from_args(args)
    config = _config_from_args(args, workload.num_objects)
    trace = run_simulation(workload, config)
    if args.out:
        try:
            Path(args.out).write_text(trace.to_json())
        except OSError as exc:
            raise InputError(f"cannot write trace {args.out}: {exc}") from exc
    results = _trace_summary(trace)
    results["trace_file"] = args.out or ""
    return {"results": results, "ok": True}, 0


def _single_members(analysis: CheckpointAnalysis) -> list[dict[int, int]]:
    """One candidate per checkpoint, in object and rank order."""
    pattern = analysis.pattern
    return [{obj: rank} for obj in range(pattern.num_objects) for rank in pattern.ranks(obj)]


def _disagreements(
    candidates: Sequence[dict[int, int]], analysis: CheckpointAnalysis, globals_: Sequence[GlobalCheckpoint]
) -> list[dict[int, int]]:
    """The candidates on which the dependence-path condition and the
    brute-force oracle (membership in some consistent global checkpoint)
    disagree, in candidate order."""
    return [c for c in candidates if theorem_condition(c, analysis) != any(gc.contains(c) for gc in globals_)]


def _theorem_spot_checks(analysis: CheckpointAnalysis, seed: int, bound: int, samples: int) -> dict[str, Any]:
    # The enumerator tests the bound before any query builds a reach column.
    try:
        globals_ = enumerate_consistent_globals(analysis, bound=bound)
    except OracleBoundExceeded:
        return {"checked": False, "reason": "candidate space beyond bound"}
    rng = random.Random(seed)
    num_objects = analysis.pattern.num_objects
    candidates = _single_members(analysis)
    for _ in range(samples):
        if num_objects < 2:
            break
        a, b = rng.sample(range(num_objects), 2)
        candidates.append(
            {
                a: rng.randrange(len(analysis.pattern.versions[a])),
                b: rng.randrange(len(analysis.pattern.versions[b])),
            }
        )
    disagreements = _disagreements(candidates, analysis, globals_)
    return {"checked": True, "candidates": len(candidates), "disagreements": len(disagreements)}


def cmd_verify(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    if args.trace:
        with reading_json(args.trace):
            text = Path(args.trace).read_text(encoding="utf-8")
        trace = Trace.from_json(text)
        analysis = trace_pattern(trace)[1]
        report = verify_protocol_guarantees(trace, analysis)
        spot = _theorem_spot_checks(analysis, trace.config.seed, args.oracle_bound, args.spot_samples)
        ok = report.ok and spot.get("disagreements", 0) == 0
        results = {
            "protocol": report.protocol,
            "z": report.z,
            "checkpoints": report.num_checkpoints,
            "violations": list(report.violations),
            "theorem_spot_checks": spot,
        }
        return {"results": results, "ok": ok}, 0 if ok else 1
    workload = _workload_from_args(args)
    if args.sim_batch:
        config = _config_from_args(args, workload.num_objects)
        violations: list[str] = []
        forced_total = 0
        for i in range(args.sim_batch):
            trace = run_simulation(
                replace(workload, seed=workload.seed + i), replace(config, seed=config.seed + i)
            )
            report = verify_protocol_guarantees(trace)
            forced_total += report.counts_by_kind[KIND_FORCED]
            violations.extend(f"run {i}: {v}" for v in report.violations)
        results = {
            "runs": args.sim_batch,
            "violations": violations,
            "forced_total": forced_total,
        }
        return {"results": results, "ok": not violations}, 0 if not violations else 1
    # theorem batch over random instances
    disagreements = []
    for i in range(args.theorem_batch):
        execution, pattern = generate_random(replace(workload, seed=workload.seed + i))
        analysis = CheckpointAnalysis(ExecutionAnalysis(execution), pattern)
        globals_ = enumerate_consistent_globals(analysis, bound=args.oracle_bound)
        singles = _single_members(analysis)
        pairs = [a | b for a, b in itertools.combinations(singles, 2) if a.keys() != b.keys()]
        disagreements.extend(
            {"instance": i, "candidate": {str(k): v for k, v in candidate.items()}}
            for candidate in _disagreements(singles + pairs, analysis, globals_)
        )
    results = {"instances": args.theorem_batch, "disagreements": disagreements}
    return {"results": results, "ok": not disagreements}, 0 if not disagreements else 1


# Option defaults are the dataclasses' own, but for --objects, --txns,
# --write-prob and --seed, which have no class default or a CLI one.
def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--objects", type=int, default=4)
    parser.add_argument("--txns", type=int, default=12)
    parser.add_argument("--ops", type=int, nargs=2, default=WorkloadSpec.ops_per_txn, metavar=("LO", "HI"))
    parser.add_argument("--write-prob", type=float, default=0.6)
    parser.add_argument("--skew", type=float, default=WorkloadSpec.access_skew)
    parser.add_argument("--wseed", type=int, default=WorkloadSpec.seed, help="workload generation seed")


def _add_sim_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--protocol", choices=[PROTOCOL_A, PROTOCOL_B], default=SimConfig.protocol)
    parser.add_argument("--z", type=int, default=SimConfig.z_param)
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument("--timer", type=int, default=SimConfig.timer_period, help="basic checkpoint timer period")
    parser.add_argument("--jitter", type=int, default=SimConfig.timer_jitter, help="timer jitter upper bound")
    parser.add_argument("--delay", type=int, nargs=2, default=SimConfig.message_delay_range, metavar=("LO", "HI"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="txckpt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="derived relations of a scenario")
    p.add_argument("scenario")
    p.add_argument("--max-states", type=int, default=40,
                   help="emit the happened-before matrix only up to this many states")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="can these checkpoints join one consistent global checkpoint?")
    p.add_argument("scenario")
    p.add_argument("members", nargs="+", metavar="OBJ:RANK")
    p.add_argument("--oracle-bound", type=int, default=10**6)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("extend", help="build a consistent global checkpoint around the candidates")
    p.add_argument("scenario")
    p.add_argument("members", nargs="+", metavar="OBJ:RANK")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("simulate", help="run one seeded simulation")
    p.add_argument("--workload", help="workload JSON file (overrides inline parameters)")
    _add_workload_args(p)
    _add_sim_args(p)
    p.add_argument("--out", help="write the trace JSON here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="check protocol guarantees on traces or random batches")
    p.add_argument("trace", nargs="?", help="trace JSON file")
    p.add_argument("--sim-batch", type=int, default=0, help="simulate and verify this many seeded runs")
    p.add_argument("--theorem-batch", type=int, default=0,
                   help="check condition/oracle agreement on this many random instances")
    _add_workload_args(p)
    _add_sim_args(p)
    p.add_argument("--oracle-bound", type=int, default=10**5)
    p.add_argument("--spot-samples", type=int, default=50)
    p.set_defaults(func=cmd_verify, workload=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and sum(map(bool, (args.trace, args.sim_batch, args.theorem_batch))) != 1:
        parser.error("verify needs exactly one of a trace file, --sim-batch, or --theorem-batch")
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
    }
    try:
        for name in COUNT_OPTIONS:
            value = getattr(args, name, 0)
            if value < 0:
                raise InputError(f"--{name.replace('_', '-')} must be non-negative, got {value}")
        body, code = args.func(args)
    except (
        AnalysisError, ScenarioError, ExecutionError, SimulationError, InputError, OracleBoundExceeded
    ) as exc:
        report["error"] = str(exc)
        report["ok"] = False
        print(json.dumps(report, indent=2, sort_keys=True))
        return 2
    report.update(body)
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
