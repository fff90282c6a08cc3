"""Lint orchestration: parse, run the passes, build the report.

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

That lenient route is for untrusted files (``repro lint FILE``).  A trace
the strict readers already accepted -- an in-memory :class:`Deposet`
(:func:`lint_deposet`, the replay gate) or a stream a session applied
(:class:`~repro.analysis.incremental.StreamingLinter`) -- is linted
straight from that trace: T001--T006, T008, T009, T011, C101 and C103
cannot occur on it, so only T007 and T010 are checked before
:func:`run_deep_passes`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from repro.analysis.findings import Finding, Report
from repro.analysis.raw import RawArrow, RawTrace, load_raw
from repro.analysis.sanitizer import sanitize, t007_findings, t010_findings
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

    dep = _underlying_deposet(raw, report)
    if dep is None:
        report.skipped.extend(DEEP_PASSES)
        return report
    return run_deep_passes(dep, raw.control, report, predicate=predicate)


def run_deep_passes(
    dep: Deposet,
    control: Sequence[RawArrow],
    report: Report,
    predicate: Optional[Predicate] = None,
) -> Report:
    """The deep passes (control / classifier / races), into ``report``.

    ``dep`` is the validated *underlying* computation (no control
    relation); ``control`` is the declared control relation, each arrow
    with its location.  Lenient file lint, :func:`lint_deposet` and the
    streaming linter's report all end here."""
    from repro.analysis.control import analyze_control

    report.passes.append("control")
    report.extend(analyze_control(dep, control, predicate=predicate))

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
) -> Report:
    """Lint an in-memory deposet, straight from the deposet.

    The constructor already enforced everything the parse pass and most
    of the sanitizer check, so this runs T007, T010 and the deep passes
    over ``dep.without_control()`` and ``dep``'s control relation.
    Locations are the JSON paths a file of ``dep`` would give
    (``messages[k]``, ``control[k]``), and ``passes`` are a file's."""
    from repro.trace.io import FORMAT

    report = Report(source=source, format=FORMAT)
    report.passes.extend(("parse", "sanitizer"))
    messages = [RawArrow(m.src, m.dst, location=f"messages[{k}]", tag=m.tag)
                for k, m in enumerate(dep.messages)]
    report.extend(t007_findings(messages))
    if dep.timestamps is not None:
        report.extend(t010_findings(dep.timestamps, messages))
    control = [RawArrow(a, b, location=f"control[{k}]")
               for k, (a, b) in enumerate(dep.control_arrows)]
    return run_deep_passes(dep.without_control(), control, report,
                           predicate=predicate)
