#!/usr/bin/env python3
"""txckpt benchmark: seeded closed-loop workloads over the library's public API.

One workload run, timed (end-to-end metrics) or traced (per-layer metrics):

    python3 benchmark/run.py --workload verify_batch --seed 1 --seconds 55 --trace 0

Every workload, each in its own process, as a table of all metrics with units:

    python3 benchmark/run.py --workload all --seed 1 --seconds 55

The ROADMAP size ladder, traced, one capped process per rung:

    python3 benchmark/run.py --ladder

The library is imported from ``src/`` next to this directory.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans, the answer store and
ladder results go under ``--out`` (default ``benchmark/out``).  ``--tiny
--seconds 0`` is a smoke run: tiny inputs and only the minimum number of
operations.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "model.build_serialization_graph_s": "s",
    "model.assign_versions_s": "s",
    "model.serialization_edges": "count",
    "model.states": "count",
    "dependence.execution_analysis_s": "s",
    "dependence.checkpoint_analysis_s": "s",
    "dependence.dp_witness_s": "s",
    "dependence.dp_witness_calls": "count",
    "dependence.edges": "count",
    "dependence.interval_nodes": "count",
    "theory.theorem_condition_s": "s",
    "theory.extend_to_global_s": "s",
    "theory.is_consistent_global_state_s": "s",
    "theory.enumerate_consistent_globals_s": "s",
    "theory.candidate_space": "count",
    "theory.consistent_frac": "ratio",
    "theory.condition_holds_frac": "ratio",
    "protocol.trace_pattern_s": "s",
    "protocol.guarantee_checks_s": "s",
    "protocol.checkpoints": "count",
    "protocol.forced_frac": "ratio",
    "protocol.scoped_pairs": "count",
    "sim.run_simulation_s": "s",
    "sim.trace_to_json_s": "s",
    "sim.trace_from_json_s": "s",
    "sim.events": "count",
    "sim.trace_kb": "KiB",
    "scenario.generate_random_s": "s",
    "cli.simulate_s": "s",
    "cli.verify_trace_s": "s",
    "cli.theorem_batch_s": "s",
    "tracing.overhead_frac": "ratio",
    "tracing.missing_layers": "count",
}

# Ratios pooled over the run: numerator and denominator counters.
POOLED = {
    "protocol.forced_frac": ("protocol.forced", "protocol.checkpoints"),
    "theory.consistent_frac": ("theory.consistent", "theory.candidate_space"),
    "theory.condition_holds_frac": ("theory.holds", "theory.conditions"),
}

SETUP_REPS = 5
IMPORT_REPS = 5
# op_p90_ms needs at least ten operations beyond the 90th percentile.  Every
# run, traced or not, completes this many, and the digest of their answers is
# what the answer store compares between runs of one seed.
MIN_OPS = 100
# The timed phase runs operations 0..n-1 (n is the workload's ``block_ops``)
# in at least this many rounds, and each operation's latency is its fastest
# round.  The CPU a shared host gives the benchmark slows by up to 1.5x for
# spells of milliseconds to minutes; an operation much shorter than a round
# needs only one of its rounds outside a spell, so its fastest round varies
# far less from run to run than any single round does.
MIN_ROUNDS = 2
# The traced run repeats at most this many operations: enough for stable
# per-layer medians while keeping the span list small.
TRACE_MAX_OPS = 600
CLI_REPS = 5
# Random instances of ``verify --theorem-batch``, small enough for the
# brute-force oracle to enumerate every global checkpoint.
THEOREM_SIZE = {"objects": 5, "txns": 8}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                        help="directory for spans, the answer store and ladder results")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for smoke tests")
    parser.add_argument("--ladder", action="store_true", help="run the ROADMAP size ladder")
    parser.add_argument("--rung", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.workload or args.ladder or args.rung):
        parser.error("give --workload NAME|all or --ladder")
    return args


def import_library() -> None:
    """Put the checkout's src/ first on the path; fail when it is absent."""
    if not (SRC / "txckpt" / "__init__.py").is_file():
        sys.exit(f"benchmark: no txckpt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import txckpt

    if Path(txckpt.__file__).resolve().parent != SRC / "txckpt":
        sys.exit(f"benchmark: imported txckpt from {txckpt.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Process start plus ``import txckpt``, in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import txckpt"
    start = perf_counter()
    subprocess.run([sys.executable, "-I", "-c", code], check=True)
    return perf_counter() - start


def code_digest() -> str:
    """Digest of the library and of the workload definitions."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "txckpt").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


class Pass:
    """Results of one sequence of operations 0..n-1."""

    def __init__(self) -> None:
        self.latency = array("d")
        self.failed = 0
        self.answers = hashlib.sha256()
        self.inputs = hashlib.sha256()
        # Answer digest of operations 0..MIN_OPS-1, once they are done.
        self.prefix: str | None = None
        self.counters: list[dict[str, float]] = []


def run_op(wl: Any, tracer: Any, i: int) -> tuple[Any, Any, str | None, float]:
    inp = wl.prepare(i)
    root = tracer.open("op")
    start = perf_counter()
    try:
        result, error = wl.op(tracer, inp), None
    except Exception:  # an operation that raises counts as failed; the loop goes on
        result, error = None, traceback.format_exc()
    end = perf_counter()
    tracer.close(root, start, end)
    return inp, result, error, end - start


def judge(wl: Any, i: int, inp: Any, result: Any, error: str | None) -> tuple[bool, str, str]:
    """(correct, answer, inputs) of one operation; a failure is reported on stderr."""
    verdict = (False, f"error {i}", "")
    if error is None:
        try:
            verdict = wl.check(inp, result)
            error = None if verdict[0] else f"output check failed: {verdict[1][:2000]}"
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        print(f"{wl.name}: operation {i} failed\n{error}", file=sys.stderr)
    return verdict


def counters_of(fn: Any, missing: list[str], *args: Any) -> dict[str, float]:
    """Counters from public results; an attribute a later library lacks is reported."""
    try:
        return fn(*args)
    except AttributeError as exc:
        if str(exc) not in missing:
            missing.append(str(exc))
        return {}


def run_pass(wl: Any, tracer: Any, seconds: float, max_ops: float, min_ops: int,
             missing: list[str]) -> Pass:
    """Operations 0, 1, ... until ``seconds`` have passed and ``min_ops`` are
    done, or until ``max_ops`` are done."""
    done = Pass()
    start = perf_counter()
    i = 0
    while i < max_ops and (perf_counter() - start < seconds or i < min_ops):
        inp, result, error, dt = run_op(wl, tracer, i)
        ok, answer, inputs = judge(wl, i, inp, result, error)
        done.latency.append(dt)
        done.failed += not ok
        done.answers.update(answer.encode() + b"\n")
        done.inputs.update(inputs.encode() + b"\n")
        if i + 1 == MIN_OPS:
            done.prefix = done.answers.hexdigest()
        if tracer.enabled:
            if ok:
                done.counters.append(counters_of(wl.op_counters, missing, result, tracer.kept))
            tracer.kept.clear()
        i += 1
    return done


def run_rounds(wl: Any, tracer: Any, seconds: float, ops: int,
               missing: list[str]) -> tuple[list[Pass], array]:
    """Operations 0..ops-1 in rounds, until MIN_ROUNDS rounds have run and
    another round would end after ``seconds``.  Returns the rounds and each
    operation's fastest latency over them."""
    start = perf_counter()
    rounds = [run_pass(wl, tracer, 0.0, ops, ops, missing)]
    best = array("d", rounds[0].latency)
    while (len(rounds) < MIN_ROUNDS
           or (perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds):
        done = run_pass(wl, tracer, 0.0, ops, ops, missing)
        rounds.append(done)
        best = array("d", map(min, best, done.latency))
    return rounds, best


def setup_phase(wl: Any, tracer: Any, missing: list[str]) -> tuple[list[float], list[dict[str, float]], int, int]:
    """Set up SETUP_REPS times, each with its warm-up operations.

    Returns the set-up times, the set-up counters (traced run only), the
    number of warm-up operations and how many of them failed.  A warm-up
    operation must give the same answer in every repetition.
    """
    times: list[float] = []
    counters: list[dict[str, float]] = []
    first: list[str] = []
    attempted = failed = 0
    for rep in range(SETUP_REPS):
        wl.shared = None  # release the previous repetition's state first
        root = tracer.open("setup")
        start = perf_counter()
        wl.setup(tracer)
        warm = [run_op(wl, tracer, i) for i in range(wl.warmup_ops)]
        end = perf_counter()
        tracer.close(root, start, end)
        times.append(end - start)
        if tracer.enabled:
            counters.append(counters_of(wl.setup_counters, missing, tracer.kept))
            tracer.kept.clear()
        for i, (inp, result, error, _) in enumerate(warm):
            ok, answer, _ = judge(wl, i, inp, result, error)
            if rep == 0:
                first.append(answer)
            ok = ok and answer == first[i]
            attempted += 1
            failed += not ok
    return times, counters, attempted, failed


def check_store(out: Path, wl: Any, tiny: bool, prefix: str) -> int:
    """Compare the answer digest of the first MIN_OPS operations with the one
    an earlier run of the same code, workload, size and seed stored; 1 if it
    differs.  Runs are pure functions of their inputs, so it never should,
    traced or not.  The first run of a seed stores its digest.
    """
    name = f"{wl.name}{'-tiny' if tiny else ''}-{wl.seed}-{code_digest()}.txt"
    path = out / "answers" / name
    if path.exists():
        return int(path.read_text() != prefix)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(prefix)
    tmp.replace(path)
    return 0


def theorem_counters(kept: dict[str, Any]) -> dict[str, float]:
    """Candidate space and consistent global checkpoints of the last instance;
    empty when a wrapped layer that records them is missing."""
    analysis = kept.get("dependence.checkpoint_analysis")
    globals_ = kept.get("theory.enumerate_consistent_globals")
    if analysis is None or globals_ is None:
        return {}
    return {
        "theory.candidate_space": math.prod(len(v) for v in analysis.pattern.versions),
        "theory.consistent": len(globals_),
    }


def cli_probe(tracer: Any, seed: int, out: Path, tiny: bool,
              missing: list[str]) -> tuple[int, int, float, list[dict[str, float]]]:
    """In-process ``txckpt simulate --out`` and ``txckpt verify FILE`` at the
    verify_batch size, and ``txckpt verify --theorem-batch 1`` on a random
    5x8 instance; each must exit 0 with ``ok`` true.

    The trace is simulated with protocol B (``z=4``, timer 20 with jitter 4),
    the one place the benchmark runs protocol B and trace I/O.  The theorem
    batch is the one place it runs the brute-force oracle.  Returns the calls
    made, the calls failed, the mean trace file size in KiB and the theorem
    batch counters.
    """
    from txckpt import cli
    from workloads import VerifyBatch

    size = VerifyBatch.TINY if tiny else VerifyBatch.FULL
    path = out / "cli" / f"trace-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    failed = 0
    kib: list[float] = []
    counters: list[dict[str, float]] = []
    for rep in range(CLI_REPS):
        s = str(seed + rep)
        simulate = ["simulate", "--objects", str(size["objects"]), "--txns", str(size["txns"]),
                    "--ops", "1", "4", "--write-prob", "0.6", "--protocol", "B", "--z", "4",
                    "--timer", "20", "--jitter", "4", "--seed", s, "--wseed", s, "--out", str(path)]
        theorem = ["verify", "--theorem-batch", "1", "--objects", str(THEOREM_SIZE["objects"]),
                   "--txns", str(THEOREM_SIZE["txns"]), "--ops", "1", "3", "--write-prob", "0.6",
                   "--wseed", s]
        for name, argv in (("cli.simulate", simulate), ("cli.verify_trace", ["verify", str(path)]),
                           ("cli.theorem_batch", theorem)):
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                try:
                    code = tracer.call(name, cli.main, argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
            try:
                ok = json.loads(captured.getvalue()).get("ok") is True
            except ValueError:
                ok = False
            if code != 0 or not ok:
                print(f"cli probe {argv} exited {code}:\n{captured.getvalue()}", file=sys.stderr)
                failed += 1
            elif name == "cli.theorem_batch":
                counters.append(counters_of(theorem_counters, missing, tracer.kept))
            tracer.kept.clear()
        kib.append(path.stat().st_size / 1024 if path.exists() else 0.0)
    return 3 * CLI_REPS, failed, statistics.mean(kib), counters


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Any, op_counters: list[dict[str, float]],
                  setup_counters: list[dict[str, float]], cli_counters: list[dict[str, float]],
                  missing: list[str]) -> dict[str, float]:
    """Per-layer values from the spans and counters of the traced run.

    A ``_s`` metric is the median self time per operation, over the
    operations that entered the layer.  A layer no operation entered falls
    back to the set-up repetitions (query_mix builds its analysis there), then
    to the CLI probe calls (trace I/O), and reads 0 when none did.  Counts are means per operation with the same
    fallback; ratios are pooled over the run.
    """
    from tracing import roots

    op_roots, setup_roots, cli_layers, cli_roots = [], [], [], {}
    for name, duration, layers in roots(tracer.spans):
        if name == "op":
            op_roots.append(layers)
        elif name == "setup":
            setup_roots.append(layers)
        else:
            cli_layers.append(layers)
            cli_roots.setdefault(name, []).append(duration)
    values: dict[str, float] = {}
    for metric in PER_LAYER:
        if metric.endswith("_s") and not metric.startswith("cli."):
            span = metric[:-2]
            per_root = ([layers[span][0] for layers in group if span in layers]
                        for group in (op_roots, setup_roots, cli_layers))
            values[metric] = median_or_zero(next((v for v in per_root if v), []))
    values["cli.simulate_s"] = median_or_zero(cli_roots.get("cli.simulate", []))
    values["cli.verify_trace_s"] = median_or_zero(cli_roots.get("cli.verify_trace", []))
    values["cli.theorem_batch_s"] = median_or_zero(cli_roots.get("cli.theorem_batch", []))
    values["dependence.dp_witness_calls"] = (
        sum(layers.get("dependence.dp_witness", (0.0, 0))[1] for layers in op_roots)
        / max(1, len(op_roots))
    )

    def counted(name: str) -> tuple[float, int]:
        """Sum of a counter and the number of rows, from the operations, else
        set-up, else the CLI probes."""
        for rows in (op_counters, setup_counters, cli_counters):
            present = [row[name] for row in rows if name in row]
            if present:
                return float(sum(present)), len(rows)
        return 0.0, 1

    for metric, unit in PER_LAYER.items():
        if metric in POOLED:
            num, den = (counted(name)[0] for name in POOLED[metric])
            values[metric] = num / den if den else 0.0
        elif unit != "s" and metric not in values:
            total, rows = counted(metric)
            values[metric] = total / rows
    values["tracing.missing_layers"] = len(tracer.missing) + len(missing)
    return values


def run_workload(args: argparse.Namespace) -> dict[str, Any]:
    from tracing import NullTracer, Tracer, instrument
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    missing: list[str] = []
    untraced = NullTracer()
    tracer = Tracer() if args.trace else untraced
    import_s = [] if args.trace else [import_seconds() for _ in range(IMPORT_REPS)]
    inf = float("inf")

    with instrument(tracer) if args.trace else contextlib.nullcontext():
        setup_s, setup_counters, attempted, failed = setup_phase(wl, tracer, missing)

    if not args.trace:
        passes, best = run_rounds(wl, untraced, args.seconds,
                                  MIN_OPS if args.tiny else wl.block_ops, missing)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        timed = passes[0]
    else:
        # Reference pass untraced, then the same operations traced: the
        # difference is the tracing overhead, and the answers must agree.
        reference = run_pass(wl, untraced, args.seconds / 2, TRACE_MAX_OPS, MIN_OPS, missing)
        with instrument(tracer):
            timed = run_pass(wl, tracer, inf, len(reference.latency), 0, missing)
            cli_attempted, cli_failed, trace_kb, cli_counters = cli_probe(
                tracer, args.seed, args.out, args.tiny, missing)
        attempted += cli_attempted
        failed += cli_failed
        passes = [reference, timed]

    for done in passes:
        attempted += len(done.latency)
        failed += done.failed
    mismatched = check_store(args.out, wl, args.tiny, timed.prefix)
    answer_digest = timed.answers.hexdigest()
    agree = all(p.answers.hexdigest() == answer_digest for p in passes)
    details: dict[str, Any] = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "operations": sum(len(p.latency) for p in passes),
        "answer_digest": answer_digest,
        "input_digest": timed.inputs.hexdigest(),
        "store_mismatches": mismatched,
        "failed_op_frac": failed / max(1, attempted),
    }

    if not args.trace:
        lat = sorted(best)
        values = {
            "setup_s": statistics.median(import_s) + statistics.median(setup_s),
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": percentile(lat, 0.9) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        details.update(import_s=statistics.median(import_s), setup_reps_s=setup_s,
                       rounds=len(passes), distinct_ops=len(lat),
                       beyond_p90=sum(1 for x in lat if x > percentile(lat, 0.9)))
    else:
        values = layer_metrics(tracer, timed.counters, setup_counters, cli_counters, missing)
        values["sim.trace_kb"] = trace_kb
        ref, traced = sum(reference.latency), sum(timed.latency)
        values["tracing.overhead_frac"] = traced / ref - 1 if ref else 0.0
        units = PER_LAYER
        details.update(missing=tracer.missing + missing, spans=len(tracer.spans))
        tracer.write(args.out / "spans" / f"{wl.name}-{args.seed}.jsonl",
                     {"workload": wl.name, "seed": args.seed})

    correct = failed == 0 and mismatched == 0 and agree
    for name, unit in units.items():
        print(f"{wl.name:14s} {name:38s} {values[name]:14.6g} {unit}")
    print(f"{wl.name:14s} {'failed_op_frac':38s} {details['failed_op_frac']:14.6g} ratio")
    print("details: " + json.dumps(details, sort_keys=True))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so each reads its own peak memory."""
    from workloads import WORKLOADS

    results: dict[str, Any] = {}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        cmd += ["--tiny"] if args.tiny else []
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"benchmark: workload {name} exited {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_library()
    sys.path.insert(0, str(BENCH_DIR))
    if args.rung:
        from ladder import run_rung

        return run_rung(args.rung)
    if args.ladder:
        from ladder import run_ladder, table

        results = run_ladder(BENCH_DIR / "run.py", args.out)
        path = args.out / "ladder.json"
        path.write_text(json.dumps(results, indent=2) + "\n")
        print(table(results))
        print(json.dumps({"ladder": str(path), "rungs": [[r["rung"], r["status"]] for r in results]}))
        return 0 if not any(r["status"].startswith("failed") for r in results) else 1
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
