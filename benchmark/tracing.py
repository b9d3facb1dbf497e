"""Span recording for the traced benchmark run.

Spans are recorded only from the benchmark's own files: around the public
calls a workload makes (``Tracer.call``) and around public library functions
that the library calls internally, which ``instrument`` wraps for the length
of a traced phase and restores afterwards.  Spans stay in memory as
``[name, parent, start, end]`` lists and are written out when the run ends.

A layer's self time is its span's duration minus the durations of its child
spans.  Children of one span run one after another (there are no threads), so
their durations never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

# Library-internal calls that the workloads cannot wrap at their own call
# sites: (span name, module, attribute path).  The attribute is looked up
# where the calling library code resolves it, so the wrapper sees every call.
# A target that a later version of the library no longer has is reported as
# missing instead of failing the run.
INTERNAL_TARGETS = (
    ("model.build_serialization_graph", "txckpt.dependence", "build_serialization_graph"),
    ("model.assign_versions", "txckpt.dependence", "assign_versions"),
    ("dependence.execution_analysis", "txckpt.dependence", "ExecutionAnalysis.__init__"),
    ("dependence.checkpoint_analysis", "txckpt.dependence", "CheckpointAnalysis.__init__"),
    ("dependence.dp_witness", "txckpt.dependence", "CheckpointAnalysis.dp_witness"),
    ("protocol.trace_pattern", "txckpt.protocol", "trace_pattern"),
    # Called by ``txckpt simulate --out``, ``txckpt verify FILE`` and
    # ``txckpt verify --theorem-batch``, which the traced run drives in
    # process.  The CLI module binds the last two names at import.
    ("sim.trace_to_json", "txckpt.sim", "Trace.to_json"),
    ("sim.trace_from_json", "txckpt.sim", "Trace.from_json"),
    ("scenario.generate_random", "txckpt.cli", "generate_random"),
    ("theory.enumerate_consistent_globals", "txckpt.cli", "enumerate_consistent_globals"),
)


class NullTracer:
    """The untraced run: calls go straight through and nothing is recorded."""

    enabled = False

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)

    def open(self, name: str) -> int:
        return -1

    def close(self, sid: int, start: float, end: float) -> None:
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        # The object each wrapped internal call produced last (the instance
        # for __init__), so counters can be read from public results after
        # the operation without repeating any call.
        self.kept: dict[str, Any] = {}
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else None, 0.0, 0.0])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, start: float, end: float) -> None:
        span = self.spans[sid]
        span[2] = start
        span[3] = end
        self._stack.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        sid = self.open(name)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid, start, perf_counter())

    def write(self, path: Path, header: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        body = dict(header, missing=self.missing, fields=["name", "parent", "start", "end"])
        with path.open("w") as fh:
            fh.write(json.dumps(body) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(tracer: Tracer, name: str, fn: Callable[..., Any], keep_self: bool) -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        result = tracer.call(name, fn, *args, **kwargs)
        tracer.kept[name] = args[0] if keep_self else result
        return result

    return traced


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap every INTERNAL_TARGETS entry with a span while the block runs."""
    undo: list[tuple[Any, str, Any]] = []
    try:
        for name, module_name, path in INTERNAL_TARGETS:
            *owner_path, attr = path.split(".")
            try:
                owner: Any = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                if f"{module_name}.{path}" not in tracer.missing:
                    tracer.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(original, staticmethod):
                wrapped: Any = staticmethod(_wrap(tracer, name, original.__func__, False))
            else:
                wrapped = _wrap(tracer, name, original, keep_self=attr == "__init__")
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def roots(spans: list[list[Any]]) -> list[tuple[str, float, dict[str, tuple[float, int]]]]:
    """Per root span, in order: (name, duration, {layer: (self seconds, calls)}).

    The root's own entry is left out; its self time is the benchmark's glue.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    root_of: list[int] = []
    out: list[tuple[str, float, dict[str, tuple[float, int]]]] = []
    index_of_root: dict[int, int] = {}
    for sid, (name, parent, start, end) in enumerate(spans):
        if parent is None:
            root_of.append(sid)
            index_of_root[sid] = len(out)
            out.append((name, end - start, {}))
            continue
        root = root_of[parent]
        root_of.append(root)
        layers = out[index_of_root[root]][2]
        self_s, calls = layers.get(name, (0.0, 0))
        layers[name] = (self_s + (end - start) - child_time[sid], calls + 1)
    return out
