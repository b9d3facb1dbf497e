"""The benchmark's workloads: shared set-up, one operation, its output check.

Each workload is a closed loop with one client in one process: the next
operation starts only after the previous one has returned, as a caller of a
batch tool waits for each answer.  Operation ``i`` of a run with seed ``S``
draws its inputs from seed ``S + i``, so every run of one seed does identical
work.  The workloads reach the library only through its public functions,
making the same calls ``txckpt.cli`` makes.

An operation is split in three so that only library work is timed:
``prepare`` builds its inputs, ``op`` makes the library calls (timed), and
``check`` judges the result and renders the answer and the inputs as text for
the run's digests.  ``op_counters`` and ``setup_counters`` read size counters
from public results after the timed part; only the traced run calls them.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Any, Mapping

from txckpt import protocol, scenario, sim, theory

from tracing import NullTracer

TRACE_SEED = 1


def sim_inputs(objects: int, txns: int, seed: int, **config: Any) -> tuple[Any, Any]:
    """The ROADMAP's fixed workload shape; both seeds equal, as in ``verify --sim-batch``."""
    spec = scenario.WorkloadSpec(
        objects, txns, ops_per_txn=(1, 4), write_probability=0.6, seed=seed
    )
    return spec, sim.SimConfig(seed=seed, num_objects=objects, **config)


def trace_counters(trace: Any) -> dict[str, float]:
    log = trace.checkpoint_log
    return {
        "sim.events": len(trace.events),
        "protocol.checkpoints": len(log),
        "protocol.forced": sum(1 for r in log if r.kind == protocol.KIND_FORCED),
    }


def analysis_counters(kept: Mapping[str, Any]) -> dict[str, float]:
    """Sizes of the last ExecutionAnalysis and CheckpointAnalysis built.

    Dependence edges are counted by arithmetic, not read from the analysis:
    a writer of |W| objects contributes |W|^2 black edges, and each ordered
    pair of writers joined by the serialization order contributes
    |W_i| * |W_j| dashed edges.
    """
    out: dict[str, float] = {}
    base = kept.get("dependence.execution_analysis")
    if base is not None:
        timeline, graph = base.timeline, base.graph
        width = Counter(txn for writers in timeline.writers for txn in writers)
        black = sum(w * w for w in width.values())
        dashed = sum(
            wi * wj
            for i, wi in width.items()
            for j, wj in width.items()
            if graph.reaches(i, j)
        )
        out["model.serialization_edges"] = len(graph.direct_edges)
        out["model.states"] = sum(timeline.max_version(o) + 1 for o in range(timeline.num_objects))
        out["dependence.edges"] = black + dashed
    analysis = kept.get("dependence.checkpoint_analysis")
    if analysis is not None:
        out["dependence.interval_nodes"] = sum(len(v) for v in analysis.pattern.versions)
    return out


class Workload:
    name = ""
    warmup_ops = 1
    # Distinct operations the timed phase repeats in rounds.
    block_ops = 100
    FULL: dict[str, int] = {}
    TINY: dict[str, int] = {}

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.size = self.TINY if tiny else self.FULL
        self.shared: Any = None

    def setup(self, tr: NullTracer) -> None:
        """Build what every operation shares; called several times per run."""

    def prepare(self, i: int) -> Any:
        """The inputs of operation i, drawn from seed ``self.seed + i``."""
        raise NotImplementedError

    def op(self, tr: NullTracer, inp: Any) -> Any:
        """The timed library calls of one operation."""
        raise NotImplementedError

    def check(self, inp: Any, result: Any) -> tuple[bool, str, str]:
        """(output is correct, answer text, input text)."""
        raise NotImplementedError

    def op_counters(self, result: Any, kept: Mapping[str, Any]) -> dict[str, float]:
        return {}

    def setup_counters(self, kept: Mapping[str, Any]) -> dict[str, float]:
        return {}


class VerifyBatch(Workload):
    name = "verify_batch"
    FULL = {"objects": 8, "txns": 120}
    TINY = {"objects": 4, "txns": 20}

    def prepare(self, i: int) -> Any:
        return sim_inputs(self.size["objects"], self.size["txns"], self.seed + i,
                          protocol="A", timer_period=20)

    def op(self, tr: NullTracer, inp: Any) -> Any:
        trace = tr.call("sim.run_simulation", sim.run_simulation, *inp)
        report = tr.call("protocol.guarantee_checks", protocol.verify_protocol_guarantees, trace)
        return trace, report

    def check(self, inp: Any, result: Any) -> tuple[bool, str, str]:
        trace, report = result
        return report.ok, repr(report), repr(trace.execution.transactions)

    def op_counters(self, result: Any, kept: Mapping[str, Any]) -> dict[str, float]:
        trace, report = result
        scoped = sum(1 for r in trace.checkpoint_log if r.index % report.z == 0)
        return {
            **trace_counters(trace),
            **analysis_counters(kept),
            "protocol.scoped_pairs": scoped * (scoped - 1),
        }


class QueryMix(Workload):
    """check and extend queries against one shared analysis.

    Operations come in pairs: operation 2j asks ``check`` and operation 2j+1
    asks ``extend`` for the same candidate, drawn from seed S + 2j, so the two
    answers can be compared.  Even pairs take their members from an
    ``assemble_indexed_gc`` global checkpoint (the condition must hold); odd
    pairs take uniformly random ranks (it mostly fails).
    """

    name = "query_mix"
    warmup_ops = 4
    block_ops = 3000
    FULL = {"objects": 12, "txns": 200}
    TINY = {"objects": 4, "txns": 30}

    def setup(self, tr: NullTracer) -> None:
        # One fixed trace (the ROADMAP's seed 1); the run's seed picks the
        # queries.  A seed-dependent trace moved the latencies by about 30%
        # from seed to seed, as its interval graph changed shape.
        spec, config = sim_inputs(self.size["objects"], self.size["txns"], TRACE_SEED,
                                  protocol="A", timer_period=20)
        trace = tr.call("sim.run_simulation", sim.run_simulation, spec, config)
        base, analysis = protocol.trace_pattern(trace)
        log = trace.checkpoint_log
        assemblies = [
            gc
            for n in range(max(r.index for r in log) + 1)
            if (gc := theory.assemble_indexed_gc(n, log, analysis)) is not None
        ]
        self.shared = (trace, base, analysis, assemblies)
        self.last_check: tuple[dict[int, int], bool] | None = None

    def setup_counters(self, kept: Mapping[str, Any]) -> dict[str, float]:
        return {**trace_counters(self.shared[0]), **analysis_counters(kept)}

    def prepare(self, i: int) -> Any:
        pair = i // 2
        _, _, analysis, assemblies = self.shared
        rng = random.Random(self.seed + 2 * pair)
        num_objects = analysis.pattern.num_objects
        objs = sorted(rng.sample(range(num_objects), rng.randint(2, min(4, num_objects))))
        from_assembly = pair % 2 == 0
        if from_assembly:
            gc = assemblies[rng.randrange(len(assemblies))]
            members = {o: gc.members[o].rank for o in objs}
        else:
            members = {o: rng.randrange(len(analysis.pattern.versions[o])) for o in objs}
        return ("check" if i % 2 == 0 else "extend"), from_assembly, members

    def op(self, tr: NullTracer, inp: Any) -> Any:
        kind, _, members = inp
        _, base, analysis, _ = self.shared
        if kind == "check":
            # As cmd_check does without the oracle: the first violating pair
            # in member order, and its witness path.
            if tr.call("theory.theorem_condition", theory.theorem_condition, members, analysis):
                return True, None
            for a, b in itertools.product(sorted(members.items()), repeat=2):
                src, dst = analysis.checkpoint(*a), analysis.checkpoint(*b)
                if analysis.dp_reachable(src, dst):
                    return False, (src, dst, analysis.dp_witness(src, dst))
            return False, None
        try:
            extension = tr.call("theory.extend_to_global", theory.extend_to_global, members, analysis)
        except theory.ConditionViolated as exc:
            return False, (exc.source, exc.target, exc.witness)
        gc = extension.global_checkpoint
        consistent = tr.call("theory.is_consistent_global_state",
                             theory.is_consistent_global_state, gc.states(), base)
        return True, (gc, consistent)

    def check(self, inp: Any, result: Any) -> tuple[bool, str, str]:
        kind, from_assembly, members = inp
        holds, detail = result
        ok = holds or (not from_assembly and detail is not None)
        if kind == "check":
            self.last_check = (members, holds)
            answer = repr((kind, holds, detail))
        else:
            if self.last_check is not None and self.last_check[0] == members:
                ok = ok and self.last_check[1] == holds
            if holds:
                gc, consistent = detail
                ok = ok and consistent and gc.contains(members)
                answer = repr((kind, gc.rank_vector(), consistent))
            else:
                answer = repr((kind, detail))
        return ok, answer, repr((kind, sorted(members.items())))

    def op_counters(self, result: Any, kept: Mapping[str, Any]) -> dict[str, float]:
        return {"theory.conditions": 1, "theory.holds": int(result[0])}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (VerifyBatch, QueryMix)
}
