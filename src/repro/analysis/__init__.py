"""Static analysis of traces, control relations, and predicates.

The ``repro lint`` subsystem: proves or refutes the pipeline's standing
assumptions over a recorded trace -- deposet axioms D1--D3, channel
integrity, non-interference of the control relation, predicate class --
without executing any detector, controller, or replay, and explains every
violation with a concrete witness.

Entry points: :func:`lint_trace` / :func:`lint_deposet` run all passes
and return a :class:`Report`; :func:`classify` is the predicate
classifier the detection engine's ``auto`` mode routes through; the rule
catalogue lives in :data:`RULES` (documented in ``docs/ANALYSIS.md``).
"""

from repro.analysis.classifier import (
    Classification,
    PredicateClass,
    classify,
    raw_class,
    semantically_regular,
)
from repro.analysis.findings import RULES, Finding, Report, Rule, Severity
from repro.analysis.fingerprint import (
    apply_baseline,
    apply_suppressions,
    fingerprint,
    load_baseline,
    suppressions_from_obs,
    write_baseline,
)
from repro.analysis.incremental import RULE_MODES, RuleMode, StreamingLinter
from repro.analysis.raw import (
    RawTrace,
    StreamParser,
    load_raw,
    parse_batch,
    parse_stream,
    parse_stream_lines,
)
from repro.analysis.reporters import REPORTERS, render_json, render_sarif, render_text
from repro.analysis.runner import (
    lint_deposet,
    lint_raw,
    lint_trace,
    run_deep_passes,
    run_rules,
)
from repro.analysis.storelint import gate_findings, lint_store

__all__ = [
    "Classification",
    "Finding",
    "PredicateClass",
    "RawTrace",
    "Report",
    "REPORTERS",
    "RULES",
    "RULE_MODES",
    "Rule",
    "RuleMode",
    "Severity",
    "StreamParser",
    "StreamingLinter",
    "apply_baseline",
    "apply_suppressions",
    "classify",
    "fingerprint",
    "gate_findings",
    "lint_deposet",
    "lint_raw",
    "lint_store",
    "lint_trace",
    "load_baseline",
    "load_raw",
    "parse_batch",
    "parse_stream",
    "parse_stream_lines",
    "raw_class",
    "render_json",
    "render_sarif",
    "render_text",
    "run_deep_passes",
    "run_rules",
    "semantically_regular",
    "suppressions_from_obs",
    "write_baseline",
]
