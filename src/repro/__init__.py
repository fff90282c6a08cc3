"""Predicate control for active debugging of distributed programs.

A full reproduction of Tarafdar & Garg (IPPS 1998): the deposet trace
model, predicate detection, off-line and on-line predicate control for
disjunctive predicates, the NP-hardness machinery for general predicates,
controlled replay, and the ``(n-1)``-mutual-exclusion application --
everything running on a deterministic discrete-event simulator.

Quickstart::

    from repro import (
        ComputationBuilder, at_least_one, control_disjunctive, replay,
        possibly_bad,
    )

    b = ComputationBuilder(2, start_vars=[{"up": True}, {"up": True}])
    b.local(0, up=False); b.local(0, up=True)   # P0 briefly down
    b.local(1, up=False); b.local(1, up=True)   # P1 briefly down
    trace = b.build()

    safety = at_least_one(2, "up")
    print(possibly_bad(trace, safety))          # the bug's witness cut
    control = control_disjunctive(trace, safety).control
    fixed = replay(trace, control).deposet      # re-run, bug impossible
    assert possibly_bad(fixed, safety) is None

See ``examples/`` for the paper's Figure-4 walkthrough, the mutual
exclusion evaluation, and the NP-hardness demonstration.
"""

from repro.causality import CausalOrder, StateRef
from repro.core import (
    ControlRelation,
    OfflineResult,
    control_disjunctive,
    control_general,
    control_from_sequence,
    crossable,
    definitely_violated,
    deposet_satisfies,
    is_feasible,
    overlap,
    verify_control,
)
from repro.core.online import Handoff, OnlineDisjunctiveControl
from repro.core.separated import clauses_mutually_separated, control_cnf
from repro.debug import DebugSession, at_least_one, happens_before, mutual_exclusion
from repro.detection import (
    IncrementalDetector,
    Violation,
    ViolationMonitor,
    WatchResult,
    decode_assignment,
    definitely,
    definitely_exhaustive,
    possibly,
    possibly_bad,
    possibly_exhaustive,
    sat_to_sgsd,
    sgsd,
    sgsd_feasible,
    violating_cuts,
)
from repro.errors import (
    AssumptionViolationError,
    InterferenceError,
    MalformedTraceError,
    NoControllerExistsError,
    NotDisjunctiveError,
    OnlineControlError,
    PredicateError,
    ReplayDeadlockError,
    ReproError,
    SimulationError,
)
from repro.mutex import MutexReport, run_mutex_workload
from repro.obs import (
    METRICS,
    TRACER,
    MetricsRegistry,
    TraceEvent,
    Tracer,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.predicates import (
    And,
    DisjunctivePredicate,
    FalseInterval,
    LocalPredicate,
    Not,
    Or,
    as_disjunctive,
    false_intervals,
)
from repro.recovery import (
    CheckpointPlan,
    RecoveryAnalysis,
    periodic_checkpoints,
    recover_and_replay,
    recovery_line,
)
from repro.replay import ReplayResult, replay
from repro.sat import CNF, dpll_solve, random_ksat
from repro.sim import Observer, System, TransitionGuard
from repro.store import CausalIndex, TraceStore
from repro.trace import (
    ComputationBuilder,
    CutLattice,
    Deposet,
    DeposetStats,
    MessageArrow,
    deposet_from_dict,
    deposet_stats,
    deposet_to_dict,
    dump_deposet,
    ingest_event_stream,
    load_deposet,
    load_deposet_meta,
    prefix_at,
    read_event_stream,
    render_deposet,
    write_event_stream,
)

__version__ = "1.0.0"

__all__ = [
    # causality
    "CausalOrder", "StateRef",
    # trace model & storage
    "ComputationBuilder", "CutLattice", "Deposet", "MessageArrow",
    "TraceStore", "CausalIndex",
    "deposet_from_dict", "deposet_to_dict", "dump_deposet", "load_deposet",
    "load_deposet_meta", "write_event_stream", "ingest_event_stream",
    "read_event_stream", "render_deposet", "DeposetStats", "deposet_stats",
    "prefix_at",
    # observability (the flight recorder)
    "TRACER", "Tracer", "TraceEvent", "METRICS", "MetricsRegistry",
    "write_jsonl", "read_jsonl", "to_chrome_trace", "write_chrome_trace",
    # predicates
    "And", "DisjunctivePredicate", "FalseInterval", "LocalPredicate",
    "Not", "Or", "as_disjunctive", "false_intervals",
    # detection
    "possibly", "definitely",
    "possibly_bad", "possibly_exhaustive", "definitely_exhaustive",
    "violating_cuts", "sgsd", "sgsd_feasible", "sat_to_sgsd",
    "decode_assignment", "Violation", "ViolationMonitor",
    "IncrementalDetector", "WatchResult",
    # control
    "ControlRelation", "OfflineResult", "control_disjunctive",
    "control_general", "control_from_sequence", "control_cnf",
    "clauses_mutually_separated", "crossable", "overlap",
    "deposet_satisfies", "verify_control", "is_feasible",
    "definitely_violated",
    "OnlineDisjunctiveControl", "Handoff",
    # replay & simulation
    "replay", "ReplayResult", "System", "TransitionGuard", "Observer",
    # debugging
    "DebugSession", "at_least_one", "mutual_exclusion", "happens_before",
    # mutex application
    "MutexReport", "run_mutex_workload",
    # recovery application
    "CheckpointPlan", "RecoveryAnalysis", "periodic_checkpoints",
    "recovery_line", "recover_and_replay",
    # SAT substrate
    "CNF", "dpll_solve", "random_ksat",
    # errors
    "ReproError", "MalformedTraceError", "PredicateError",
    "NotDisjunctiveError", "NoControllerExistsError", "InterferenceError",
    "ReplayDeadlockError", "SimulationError", "OnlineControlError",
    "AssumptionViolationError",
]
