"""The ROADMAP size ladder: per-layer times and size counters at fixed sizes.

Each rung is one traced pipeline on ``WorkloadSpec(n, t, ops_per_txn=(1, 4),
write_probability=0.6, seed=1)`` with ``SimConfig(seed=1, protocol="A",
timer_period=20)``: simulate, ExecutionAnalysis, trace_pattern and
verify_protocol_guarantees, each timed on its own as in the ROADMAP's
baseline table.  A rung runs in its own process under a time and a memory
cap.  It prints one JSON line per finished step, so a rung that hits a cap
keeps the steps it finished and is recorded as capped, not failed.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from txckpt import dependence, protocol, sim

from tracing import Tracer, instrument, roots
from workloads import analysis_counters, sim_inputs, trace_counters

MEMORY_EXIT = 3
# The ROADMAP's rungs, and the time and address-space cap of each rung's
# process.  64x2000 outgrows the memory cap on a small machine; it is then
# recorded as capped, with the steps it finished.
RUNGS = ("8x100", "16x400", "32x1000", "64x2000")
CAP_S = 600.0
MEM_MB = 2048


def parse_rung(text: str) -> tuple[int, int]:
    objects, _, txns = text.partition("x")
    return int(objects), int(txns)


def run_rung(text: str) -> int:
    """Child side: run one rung and print a JSON line per finished step."""
    objects, txns = parse_rung(text)
    spec, config = sim_inputs(objects, txns, 1, protocol="A", timer_period=20)
    tracer = Tracer()

    def step(name: str, fn: Callable[[], Any], counters: Callable[[Any, dict], dict]) -> Any:
        root = tracer.open(name)
        start = perf_counter()
        result = fn()
        end = perf_counter()
        tracer.close(root, start, end)
        layers = roots(tracer.spans)[-1][2]
        row = {
            "step": name,
            "wall_s": end - start,
            "self_s": {layer: self_s for layer, (self_s, _) in sorted(layers.items())},
            "counters": counters(result, tracer.kept),
        }
        tracer.kept.clear()
        print(json.dumps(row), flush=True)
        return result

    try:
        with instrument(tracer):
            trace = step("simulate", lambda: sim.run_simulation(spec, config),
                         lambda t, kept: trace_counters(t))
            step("execution_analysis", lambda: dependence.ExecutionAnalysis(trace.execution),
                 lambda r, kept: analysis_counters(kept))
            step("trace_pattern", lambda: protocol.trace_pattern(trace),
                 lambda r, kept: analysis_counters(kept))
            step("verify", lambda: protocol.verify_protocol_guarantees(trace),
                 lambda r, kept: {"ok": r.ok, "violations": len(r.violations)})
    except MemoryError:
        return MEMORY_EXIT
    return 0


def run_ladder(run_py: Path, out: Path, rungs: tuple[str, ...] = RUNGS,
               cap_s: float = CAP_S) -> list[dict]:
    """Parent side: one capped child process per rung, one after another.

    Only the benchmark's tests pass other ``rungs`` and ``cap_s``, to see a
    rung finish and one hit its time cap within seconds.
    """
    limit = MEM_MB * 2**20

    def cap_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    results = []
    for rung in rungs:
        log = out / "ladder" / f"{rung}.jsonl"
        log.parent.mkdir(parents=True, exist_ok=True)
        with log.open("w") as fh:
            proc = subprocess.Popen([sys.executable, str(run_py), "--rung", rung],
                                    stdout=fh, preexec_fn=cap_memory)
            try:
                code = proc.wait(timeout=cap_s)
                status = ("done" if code == 0 else
                          f"capped: memory {MEM_MB} MiB" if code == MEMORY_EXIT else
                          f"failed: exit {code}")
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                status = f"capped: time {cap_s:g} s"
        # A step killed by a cap never printed its line; a line is whole or absent.
        steps = [json.loads(line) for line in log.read_text().splitlines() if line.endswith("}")]
        results.append({"rung": rung, "status": status, "steps": steps})
    return results


def table(results: list[dict]) -> str:
    """The ROADMAP baseline table: wall time per step and the edge count."""
    head = ("rung", "simulate", "dependence edges", "ExecutionAnalysis", "trace_pattern",
            "verify_protocol_guarantees", "status")
    lines = [" | ".join(head)]
    for rung in results:
        by_step = {s["step"]: s for s in rung["steps"]}

        def wall(name: str) -> str:
            return f"{by_step[name]['wall_s']:.3f} s" if name in by_step else "-"

        edges = by_step.get("execution_analysis", {}).get("counters", {}).get("dependence.edges")
        lines.append(" | ".join((
            rung["rung"], wall("simulate"), "-" if edges is None else f"{edges:,}",
            wall("execution_analysis"), wall("trace_pattern"), wall("verify"), rung["status"],
        )))
    return "\n".join(lines)
