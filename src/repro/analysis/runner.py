"""Lint orchestration: parse leniently, run the passes, build the report.

Pass order and gating:

1. **parse** -- lenient parsing (:mod:`repro.analysis.raw`) collects
   structural (T001) and stream delivery-order (T009) findings.
2. **sanitizer** -- T002..T011 over the raw trace; always runs when a raw
   trace exists.
3. The deep passes need a *validated* deposet of the underlying
   computation (messages only -- the control relation under scrutiny is
   deliberately left out).  Construction is attempted after the
   sanitizer; when it fails (the trace has structural errors), the
   **control**, **classifier**, and **races** passes are recorded as
   skipped rather than crashing on garbage.
4. **control** -- C101..C107 (C104/C106/C107 only with a predicate).
5. **classifier** -- P201..P203, only with a predicate.
6. **races** -- R301..R303.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.analysis.findings import Finding, Report
from repro.analysis.raw import RawTrace, load_raw, parse_batch
from repro.analysis.sanitizer import sanitize
from repro.errors import ReproError
from repro.predicates.base import Predicate
from repro.trace.deposet import Deposet

__all__ = [
    "lint_raw",
    "lint_trace",
    "lint_deposet",
    "run_rules",
    "run_deep_passes",
]

DEEP_PASSES = ("control", "classifier", "races")


def lint_raw(
    raw: Optional[RawTrace],
    report: Report,
    predicate: Optional[Predicate] = None,
) -> Report:
    """Run all passes over an already-parsed raw trace, into ``report``."""
    if raw is None:
        report.skipped.extend(("sanitizer",) + DEEP_PASSES)
        return report

    report.passes.append("sanitizer")
    report.extend(sanitize(raw))

    return run_deep_passes(raw, report, predicate=predicate)


def run_deep_passes(
    raw: RawTrace,
    report: Report,
    predicate: Optional[Predicate] = None,
) -> Report:
    """The deep passes (control / classifier / races) over ``raw``, into
    ``report`` -- including the validated-deposet gate.  Shared between
    the batch pipeline above and the streaming linter's finalize
    (:mod:`repro.analysis.incremental`): these passes are whole-trace by
    nature, so both pipelines run the identical code."""
    dep = _underlying_deposet(raw, report)
    if dep is None:
        report.skipped.extend(DEEP_PASSES)
        return report

    from repro.analysis.control import analyze_control

    report.passes.append("control")
    report.extend(analyze_control(raw, dep, predicate=predicate))

    if predicate is not None:
        from repro.analysis.classifier import analyze_predicate

        report.passes.append("classifier")
        report.extend(analyze_predicate(dep, predicate))
    else:
        report.skipped.append("classifier")

    from repro.analysis.races import detect_races

    report.passes.append("races")
    report.extend(detect_races(dep))
    return report


def run_rules(
    raw: Optional[RawTrace],
    *,
    predicate: Optional[Predicate] = None,
    parse_findings: Sequence[Finding] = (),
    source: str = "<raw>",
    fmt: str = "",
) -> Report:
    """The canonical batch entry point over a parsed raw trace: a full
    report (parse + sanitizer + deep passes) from ``raw`` and the parse
    findings that produced it.  The streaming linter's prefix-identity
    contract is stated against this function."""
    report = Report(
        source=source, format=fmt or (raw.format if raw is not None else "")
    )
    report.passes.append("parse")
    report.extend(list(parse_findings))
    return lint_raw(raw, report, predicate=predicate)


def _underlying_deposet(raw: RawTrace, report: Report) -> Optional[Deposet]:
    """The validated *underlying* computation (control arrows excluded --
    judging them is the control pass's job, and an interfering relation
    must produce a C101 finding, not a constructor crash).

    ``None`` when construction fails.  The constructor and the
    sanitizer share one judge of the axioms (:mod:`repro.causality.axioms`),
    so a failure comes with a sanitizer error; one that did not would be
    reported as T001 -- still a finding, never a crash.
    """
    from repro.trace.states import MessageArrow

    try:
        return Deposet(
            raw.states,
            [
                MessageArrow(m.src, m.dst, payload=m.payload, tag=m.tag)
                for m in raw.messages
            ],
            (),
            proc_names=raw.proc_names or None,
            timestamps=raw.timestamps,
        )
    except ReproError as exc:
        if not any(f.severity.name == "ERROR" for f in report.findings):
            report.add(
                Finding(
                    "T001",
                    f"trace could not be validated: {exc}",
                )
            )
        return None


def lint_trace(
    path: Union[str, Path],
    predicate: Optional[Predicate] = None,
) -> Report:
    """Lint a trace file (either format).  Never raises on bad content --
    only on OS-level errors."""
    raw, fmt, findings = load_raw(path)
    report = Report(source=str(path), format=fmt)
    report.passes.append("parse")
    report.extend(findings)
    return lint_raw(raw, report, predicate=predicate)


def lint_deposet(
    dep: Deposet,
    predicate: Optional[Predicate] = None,
    source: str = "<deposet>",
    obs: Optional[Dict[str, Any]] = None,
) -> Report:
    """Lint an in-memory deposet (round-trips through the batch schema so
    every pass sees the same shape a file would produce)."""
    from repro.trace.io import FORMAT, deposet_to_dict

    raw, findings = parse_batch(deposet_to_dict(dep, obs=obs), source=source)
    report = Report(source=source, format=FORMAT)
    report.passes.append("parse")
    report.extend(findings)
    return lint_raw(raw, report, predicate=predicate)
