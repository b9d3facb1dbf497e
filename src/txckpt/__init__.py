"""Consistency analysis and protocol simulation for per-object data checkpoints."""

from .dependence import (
    BLACK,
    DASHED,
    AnalysisError,
    Checkpoint,
    CheckpointAnalysis,
    CheckpointPattern,
    DependenceEdge,
    ExecutionAnalysis,
)
from .model import (
    Execution,
    ExecutionError,
    LocalState,
    SerializationGraph,
    StateTimeline,
    Transaction,
    ValidatedExecution,
    assign_versions,
    build_serialization_graph,
    validate_execution,
)
from .protocol import (
    KIND_BASIC,
    KIND_FORCED,
    KIND_INITIAL,
    PROTOCOL_A,
    PROTOCOL_B,
    CheckpointRecord,
    GuaranteeReport,
    trace_pattern,
    verify_protocol_guarantees,
)
from .scenario import (
    BUILTIN_SCENARIOS,
    Scenario,
    ScenarioError,
    WorkloadSpec,
    builtin_scenario,
    generate_random,
    load_scenario,
    load_workload,
    save_scenario,
)
from .sim import SimConfig, SimulationError, Trace, run_simulation
from .theory import (
    ConditionViolated,
    ExtensionResult,
    GlobalCheckpoint,
    OracleBoundExceeded,
    assemble_indexed_gc,
    enumerate_consistent_globals,
    extend_to_global,
    is_consistent_global_state,
    theorem_condition,
)

__version__ = "0.1.0"
