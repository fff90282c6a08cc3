"""Lint directly from a durable trace store (``repro lint --store``).

``repro lint --store sqlite:PATH[@branch]`` opens the commit chain the
active-debugging loop writes (PR 9), snapshots the named branch, and
runs the full rule set over it -- including ``candidate-K`` control
branches, whose recorded control relation is exactly what C101
(interference) and C104 (Lemma-2 obstruction) judge.  That makes the
linter a cheap admission gate in front of ``repro replay --store``: an
interfering or obstructed candidate is rejected before a controlled
re-execution is spent on it (see :func:`gate_findings`).

Finding witnesses carry ``{branch}@c{commit}`` locations (instead of a
file:lineno that does not exist for a database), while fingerprints stay
location-independent -- the same corruption linted from a file and from
a branch shares one baseline entry.

Errors are typed and CLI-mapped to exit 3: a fresh/missing database
raises :class:`~repro.errors.StorageError` (``no such trace store``), an
unknown branch raises :class:`~repro.errors.UnknownBranchError`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.analysis.findings import Finding, Report
from repro.analysis.runner import lint_deposet
from repro.errors import StorageError
from repro.predicates.base import Predicate

__all__ = ["lint_store", "gate_findings", "GATE_RULES"]

#: Rules that make a candidate branch unreplayable: an interfering
#: control relation (C101) cannot be enforced without deadlock, and a
#: Lemma-2 obstruction (C104) proves no controller exists at all.
GATE_RULES = ("C101", "C104")


def lint_store(
    target: str,
    branch: Optional[str] = None,
    predicate: Union[Predicate, str, None] = None,
) -> Tuple[Report, str, int]:
    """Lint one branch of a trace store.

    ``target`` is a ``--store`` target (``sqlite:PATH``); ``branch``
    defaults to ``main``.  ``predicate`` may be a parsed predicate or a
    CLI spec string (parsed against the branch's process count).
    Returns ``(report, branch, commit_id)`` -- the report's witnesses
    carry ``{branch}@c{commit}`` locations.  Inline suppressions in the
    branch's ``obs`` block are honoured, like file-mode ``repro lint``.
    """
    from repro.store.trace_store import TraceStore, parse_store_target

    scheme, _ = parse_store_target(target)
    if scheme != "sqlite":
        raise StorageError(
            f"lint --store needs a durable backend, got {target!r} "
            "(use sqlite:PATH[@branch])"
        )
    store = TraceStore.open(target, branch=branch or "main", create=False)
    try:
        branch_name = str(store.branch_name)
        if store.head is None:
            raise StorageError(
                f"{target}@{branch_name} has no commits to lint"
            )
        dep = store.snapshot()
        obs = store.obs
        commit = int(store.head)
    finally:
        store.close()

    if isinstance(predicate, str):
        from repro.cli import parse_predicate  # lazy: cli imports are heavy

        predicate = parse_predicate(predicate, dep.n)
    source = f"{target}@{branch_name}"
    report = lint_deposet(dep, predicate=predicate, source=source)
    anchor = f"{branch_name}@c{commit}"
    for f in report.findings:
        f.location = anchor if f.location is None else f"{anchor}/{f.location}"
    from repro.analysis.fingerprint import (
        apply_suppressions,
        suppressions_from_obs,
    )

    apply_suppressions(report, suppressions_from_obs(obs))
    return report, branch_name, commit


def gate_findings(report: Report) -> List[Finding]:
    """The findings that must refuse a replay (see :data:`GATE_RULES`)."""
    return [f for f in report.findings if f.rule_id in GATE_RULES]
