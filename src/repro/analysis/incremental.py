"""Online lint over ``repro-events/1``: an accepted stream, linted from its store.

``repro watch --lint`` and ``repro serve --lint`` lint a stream while it
arrives.  Every record a session lints was first accepted by the strict
reader (:func:`~repro.trace.io.apply_stream_record`), so a
:class:`StreamingLinter` keeps no copy of the trace: it reads the
session's :class:`~repro.store.TraceStore` and keeps only what the store
lacks --

* each declared arrow's location (``file:lineno``), including control
  records the store dropped as repeats (C105 reports them);
* the T007 channel state: per directed channel, its messages by send;
* whether every event record carried ``time`` (one without it drops the
  timestamp channel, so T010 is not judged);
* the findings it streamed.

Rule modes (:data:`RULE_MODES`, rendered into docs/ANALYSIS.md):

* **T007 streams** at the record that crosses.  On an accepted stream a
  message arrives after its send completed, into the newest state of its
  receiver, so the inversions it closes are exactly the messages on its
  channel sent after it.
* :meth:`StreamingLinter.report` runs **T010 and the deep passes**
  (:func:`~repro.analysis.runner.run_deep_passes`) over
  ``store.snapshot()``.
* T001--T006, T008, T009, T011, C101 and C103 **cannot occur** on an
  accepted stream: the strict reader rejects the record that would
  carry them, and the session ends with that error.

Prefix identity: on every prefix of every stream the strict reader
accepts, :meth:`~StreamingLinter.report` equals batch
:func:`~repro.analysis.runner.run_rules` over the lenient parse of that
prefix -- the same findings as a multiset, the same ``passes`` and
``skipped`` (pinned by ``tests/analysis/test_incremental.py``).

A linter built without a store (``StreamingLinter(source=, predicate=)``
fed through :meth:`~StreamingLinter.feed_record` or
:meth:`~StreamingLinter.feed_line`) opens an in-memory store from the
header with :func:`~repro.trace.io.stream_store_from_header` and applies
each record with :func:`~repro.trace.io.apply_stream_record`: the strict
path a session takes.  A record it rejects becomes exactly one finding,
the error's rule, location and text, and every later record is ignored,
as ``watch --lint`` and ``serve --lint`` end the session there.

Work accounting: every record updates both the global
``analysis.lint.work.*`` metrics and the linter's own :attr:`work` dict
(``records``, ``events``, ``arrows``, ``channel_cmps``, ``findings``);
T007's channel comparisons are output-sensitive, so the per-record cost
does not grow with the stream.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.findings import Finding, Report
from repro.analysis.raw import RawArrow
from repro.analysis.runner import DEEP_PASSES, run_deep_passes
from repro.analysis.sanitizer import t007_finding, t010_findings
from repro.causality.relations import CycleError
from repro.errors import MalformedTraceError
from repro.obs.metrics import METRICS
from repro.predicates.base import Predicate
from repro.store.trace_store import TraceStore
from repro.trace.io import (
    STREAM_FORMAT, apply_stream_record, stream_store_from_header,
)

__all__ = [
    "RuleMode",
    "RULE_MODES",
    "StreamingLinter",
    "LINT_STATE_FORMAT",
]

#: Snapshot format marker for :meth:`StreamingLinter.snapshot`.
LINT_STATE_FORMAT = "repro-lint-state/2"
#: The previous format (a lenient mirror of the whole trace), still
#: restorable so a session checkpointed by an older server resumes.
_LINT_STATE_V1 = "repro-lint-state/1"

_GLOBALS = {
    key: METRICS.counter(f"analysis.lint.work.{key}")
    for key in ("records", "events", "arrows", "channel_cmps", "findings")
}


@dataclass(frozen=True)
class RuleMode:
    """How one catalogue rule runs on a stream."""

    mode: str  # "incremental" (at its record) | "finalize" (in report())
    reason: str


_REJECTED = "cannot occur on an accepted stream: the strict reader rejects "

#: Per-rule streaming mode, with the argument for it.  Kept in sync with
#: the catalogue by ``tests/analysis/test_incremental.py`` and rendered
#: into docs/ANALYSIS.md.
RULE_MODES: Dict[str, RuleMode] = {
    "T001": RuleMode("incremental", _REJECTED + "a record the decoder "
                     "cannot use, at its line"),
    "T002": RuleMode("incremental", "cannot occur on a stream: a recv "
                     "enters a state with index >= 1, and a ctl arrow "
                     "into an initial state is C103"),
    "T003": RuleMode("incremental", "cannot occur on a stream: a message "
                     "whose source has not completed is a T009 at its "
                     "record"),
    "T004": RuleMode("incremental", _REJECTED + "a second message on one "
                     "event (D3) at its record"),
    "T005": RuleMode("incremental", _REJECTED + "an arrow naming a state "
                     "that does not exist at its record"),
    "T006": RuleMode("incremental", _REJECTED + "a message along one "
                     "process at its record"),
    "T007": RuleMode("incremental",
                     "streams at the record that crosses: an accepted "
                     "message enters its receiver's newest state after its "
                     "send completed, so its inversions are the channel's "
                     "messages sent after it"),
    "T008": RuleMode("finalize", "cannot occur on a stream: it needs "
                     "recorded vector clocks (batch documents only)"),
    "T009": RuleMode("incremental", _REJECTED + "the out-of-order record"),
    "T010": RuleMode("finalize",
                     "judged over the snapshot's timestamps: a later record "
                     "without 'time' drops the timestamp channel"),
    "T011": RuleMode("incremental", "cannot occur on a stream: a message "
                     "cycle needs a receive before its send, a T009 at its "
                     "record"),
    "C101": RuleMode("incremental", _REJECTED + "a ctl record that "
                     "interferes with the causality so far"),
    "C102": RuleMode("finalize", "transitive redundancy is whole-relation"),
    "C103": RuleMode("incremental", _REJECTED + "an unenforceable ctl "
                     "record"),
    "C104": RuleMode("finalize",
                     "Lemma 2 overlap is judged over complete "
                     "false-intervals"),
    "C105": RuleMode("finalize", "duplicate detection over every declared "
                     "ctl record keeps batch attribution order"),
    "C106": RuleMode("finalize", "needs predicate truth over final states"),
    "C107": RuleMode("finalize", "final states are only known at the end"),
    "P201": RuleMode("finalize", "predicate classification is per-trace"),
    "P202": RuleMode("finalize", "predicate classification is per-trace"),
    "P203": RuleMode("finalize", "routing estimate uses final lattice size"),
    "R301": RuleMode("finalize", "concurrency is judged over final clocks"),
    "R302": RuleMode("finalize", "concurrency is judged over final clocks"),
    "R303": RuleMode("finalize", "concurrency is judged over final clocks"),
}


class StreamingLinter:
    """Online lint over a ``repro-events/1`` record stream.

    A session hands the linter its store (:meth:`attach`), applies each
    record to it and then calls :meth:`feed_applied`; a linter with no
    store applies records itself (:meth:`feed_record`,
    :meth:`feed_line`).  Each record returns the findings it streams, and
    :meth:`report` assembles, at any prefix, a report whose findings equal
    batch :func:`~repro.analysis.runner.run_rules` over that prefix (as a
    multiset; the streamed ones are grouped first).

    The linter survives the serving layer's durable checkpoints via
    :meth:`snapshot`/:meth:`restore`, next to the session's store.
    """

    def __init__(
        self,
        source: str = "<stream>",
        predicate: Optional[Predicate] = None,
    ) -> None:
        self.source = source
        self.predicate = predicate
        #: the trace being linted: a session's store, or the one this
        #: linter opened from the header
        self.store: Optional[TraceStore] = None
        #: per-linter work units (the global registry aggregates across
        #: concurrently-live linters; tests read this one)
        self.work: Dict[str, int] = {}
        #: findings streamed so far: T007, or a rejected record's error
        self.streamed: List[Finding] = []
        #: the declared messages with their locations, in store order
        self.messages: List[RawArrow] = []
        #: every declared control arrow with its location, repeats included
        self.control: List[RawArrow] = []
        #: no event record so far lacked ``time`` (else T010 is not judged)
        self.timed = True
        #: a record was rejected: later records are ignored
        self.rejected = False
        self.records = 0
        self.lineno = 0
        self._owns_store = False
        #: channel -> (send indices, messages), sorted by send
        self._channels: Dict[Tuple[int, int],
                             Tuple[List[int], List[RawArrow]]] = {}
        #: message locations of a restored state, until :meth:`attach`
        self._unplaced: List[Optional[str]] = []

    def attach(self, store: TraceStore) -> None:
        """Lint the trace ``store`` holds; its owner applies each record
        and then calls :meth:`feed_applied`.  The message arrows and the
        T007 channel state are rebuilt from the store's messages, with
        the locations a :meth:`restore` brought."""
        self.store = store
        locations, self._unplaced = self._unplaced, []
        self.messages, self._channels = [], {}
        for k, m in enumerate(store.messages):
            where = locations[k] if k < len(locations) else None
            self._add_message(RawArrow(m.src, m.dst, location=where,
                                       tag=m.tag), emit=False)

    # -- feeding --------------------------------------------------------------

    def feed_line(
        self, line: str, where: Optional[str] = None
    ) -> List[Finding]:
        """Lint one raw stream line; returns this record's findings."""
        if not line.strip():
            self.lineno += 1
            return []
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            where = self._where(where)
            if self.rejected:
                return self._count_record()
            return self._reject(MalformedTraceError(
                f"not valid JSON ({exc})", rule="T001"), where)
        return self.feed_record(rec, where)

    def feed_record(
        self, rec: Any, where: Optional[str] = None
    ) -> List[Finding]:
        """Apply one decoded record to this linter's own store (the
        header opens it), then lint it; returns its findings.  A record
        the strict reader rejects is one finding, and later records are
        ignored."""
        where = self._where(where)
        if self.rejected:
            return self._count_record()
        try:
            if self.store is None:
                self.attach(stream_store_from_header(rec, where))
                self._owns_store = True
                kind = "header"
            else:
                kind = apply_stream_record(self.store, rec, where)
        except MalformedTraceError as exc:
            return self._reject(exc, where)
        return self.feed_applied(rec, kind, where)

    def feed_applied(
        self, rec: Dict[str, Any], kind: str, where: str
    ) -> List[Finding]:
        """Lint one record the store already applied: ``kind`` is what
        :func:`~repro.trace.io.apply_stream_record` returned (``"header"``
        for the header).  Returns the findings it streams."""
        self._count_record()
        found: List[Finding] = []
        if kind == "ev" or kind == "recv":
            self._count("events", 1)
            if rec.get("time") is None:
                self.timed = False
            if kind == "recv":
                proc = rec["p"]
                dst = (proc, self.store.state_counts[proc] - 1)
                found = self._add_message(
                    RawArrow(tuple(rec["src"]), dst, location=where,
                             tag=rec.get("tag")), emit=True)
        elif kind == "ctl":
            self._count("arrows", 1)
            self.control.append(RawArrow(tuple(rec["src"]),
                                         tuple(rec["dst"]), location=where))
        elif kind == "header":
            self._count("events", self.store.n)
        if found:
            self.streamed.extend(found)
            self._count("findings", len(found))
        return found

    def _count(self, key: str, units: int) -> None:
        """Work accounting, on :attr:`work` and the global registry."""
        self.work[key] = self.work.get(key, 0) + units
        _GLOBALS[key].inc(units)

    def _where(self, where: Optional[str]) -> str:
        self.lineno += 1
        return f"{self.source}:{self.lineno}" if where is None else where

    def _count_record(self) -> List[Finding]:
        """Count one record; the findings of one that adds none."""
        self.records += 1
        self._count("records", 1)
        return []

    def _reject(self, exc: MalformedTraceError, where: str) -> List[Finding]:
        """The strict error as a finding, with lint's rule and text.  An
        interfering ctl record is the one rejection without a rule: the
        store's cycle check, lint's C101."""
        location = exc.location or where
        text = str(exc)
        if text.startswith(f"{location}: "):
            text = text[len(location) + 2:]
        rule = exc.rule or (
            "C101" if isinstance(exc.__cause__, CycleError) else "T001")
        self.rejected = True
        self._count_record()
        found = [Finding(rule, text, location=location, states=exc.states,
                         arrows=exc.arrows)]
        self.streamed.extend(found)
        self._count("findings", 1)
        return found

    def _add_message(self, arrow: RawArrow, emit: bool) -> List[Finding]:
        """File one message under its channel; with ``emit``, its T007
        inversions: the channel's messages sent after it (it is the
        newest delivery, so each one was delivered before it)."""
        (sp, si), (dp, _) = arrow.src, arrow.dst
        keys, members = self._channels.setdefault((sp, dp), ([], []))
        pos = bisect.bisect_right(keys, si)
        found: List[Finding] = []
        if emit:
            self._count("arrows", 1)
            later = members[pos:]
            self._count("channel_cmps", len(later))
            found = [t007_finding(sp, dp, arrow, other) for other in later]
        keys.insert(pos, si)
        members.insert(pos, arrow)
        self.messages.append(arrow)
        return found

    # -- results --------------------------------------------------------------

    def findings(self) -> List[Finding]:
        """Everything streamed so far; the rules :meth:`report` runs are
        *not* in here."""
        return list(self.streamed)

    def report(self) -> Report:
        """A full report over the current prefix: the streamed findings,
        then T010 and the deep passes over ``store.snapshot()``.

        Before a header there is nothing to lint (T001, empty stream);
        after a rejected record the trace is not one the deep passes
        accept, so they are skipped."""
        report = Report(source=self.source, format=STREAM_FORMAT)
        report.passes.append("parse")
        report.extend(self.streamed)
        if self.store is None:
            if not self.rejected:
                report.add(Finding("T001", "empty stream (no header)",
                                   location=self.source))
            report.skipped.extend(("sanitizer",) + DEEP_PASSES)
            return report
        report.passes.append("sanitizer")
        if self.rejected:
            report.skipped.extend(DEEP_PASSES)
            return report
        dep = self.store.snapshot()
        if self.timed and dep.timestamps is not None:
            report.extend(t010_findings(dep.timestamps, self.messages))
        return run_deep_passes(dep.without_control(), self.control, report,
                               predicate=self.predicate)

    # -- durable state capture ------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable linter state: the streamed findings and the
        arrow locations, no states.  A session checkpoints its store next
        to it; a linter that opened its own store carries it here."""
        state: Dict[str, Any] = {
            "format": LINT_STATE_FORMAT,
            "source": self.source,
            "findings": [f.to_dict() for f in self.streamed],
            "messages": [a.location for a in self.messages],
            "control": [[list(a.src), list(a.dst), a.location]
                        for a in self.control],
            "timed": self.timed,
            "rejected": self.rejected,
            "lineno": self.lineno,
        }
        if self._owns_store:
            state["store"] = self.store.freeze()
        return state

    @classmethod
    def restore(
        cls,
        state: Dict[str, Any],
        predicate: Optional[Predicate] = None,
    ) -> "StreamingLinter":
        """Rebuild a linter mid-stream from a :meth:`snapshot`.  The
        channel state comes back when the store does: at once when the
        state carries the linter's own store, else on :meth:`attach`.
        Feeding the remaining records then produces exactly the findings
        the original would have (pinned by tests/serve/test_serve_lint.py).

        A ``repro-lint-state/1`` state (a lenient mirror of the trace)
        gives its findings and the locations in its ``parser.raw``
        block; its states are not read."""
        fmt = state.get("format")
        if fmt == _LINT_STATE_V1:
            return cls._restore_v1(state, predicate)
        if fmt != LINT_STATE_FORMAT:
            raise ValueError(
                f"unknown lint state format {fmt!r}; "
                f"expected {LINT_STATE_FORMAT!r}"
            )
        linter = cls(source=str(state.get("source", "<stream>")),
                     predicate=predicate)
        linter.streamed = [Finding.from_dict(d) for d in state["findings"]]
        linter._unplaced = list(state["messages"])
        linter.control = [RawArrow(tuple(s), tuple(d), location=where)
                          for s, d, where in state["control"]]
        linter.timed = bool(state["timed"])
        linter.rejected = bool(state["rejected"])
        linter.lineno = int(state.get("lineno", 0))
        if "store" in state:
            linter.attach(TraceStore.restore(state["store"]))
            linter._owns_store = True
        return linter

    @classmethod
    def _restore_v1(
        cls, state: Dict[str, Any], predicate: Optional[Predicate]
    ) -> "StreamingLinter":
        parser = state["parser"]
        linter = cls(source=str(parser.get("source", "<stream>")),
                     predicate=predicate)
        linter.streamed = [
            Finding.from_dict(d)
            for key in ("parse_findings", "incremental_findings")
            for d in state.get(key, ())
        ]
        linter.lineno = int(parser.get("lineno", 0))
        raw = parser.get("raw")
        if raw is not None:
            linter._unplaced = [m.get("location") for m in raw["messages"]]
            linter.control = [
                RawArrow(tuple(c["src"]), tuple(c["dst"]),
                         location=c.get("location"))
                for c in raw["control"]
            ]
            # The mirror dropped its timestamps when a record had no time.
            linter.timed = raw.get("timestamps") is not None
        return linter
