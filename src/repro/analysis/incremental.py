"""The streaming rule engine: online lint over ``repro-events/1``.

``repro lint`` (PR 5) certifies a trace in batch, after the fact; the
detection pipeline (PRs 4/6/7) went streaming long ago.  This module
closes the gap: a :class:`StreamingLinter` consumes the same records
``repro watch`` and ``repro serve`` consume and emits findings *as the
corruption arrives*, with O(delta) work per record for every rule that
admits it.

Architecture
------------

* :class:`IncrementalRule` is the protocol: ``on_event`` / ``on_arrow``
  react to the delta one record appended, ``on_epoch_reset`` reacts to a
  causality rewrite of the prefix, ``finalize`` runs once over the whole
  trace.  A rule that is inherently whole-trace implements only
  ``finalize`` -- and says so in its :data:`RULE_MODES` metadata.
* The mode split is *proved*, not guessed (pinned by the hypothesis
  prefix-identity suite in ``tests/analysis/test_incremental.py``):

  - **incremental**: T001/T009 (lenient parse, via the
    :class:`~repro.analysis.raw.StreamParser` mirror) and T002/T004/
    T006/T007 -- exactly the sanitizer rules that are monotone in
    arrival order.  On a clean stream every cross-process arrow's
    source event has completed at arrival (else T009 fired), so arrows
    activate in list order and the accumulated findings equal batch
    :func:`~repro.analysis.sanitizer.sanitize` restricted to those
    rules, on every prefix, by construction (both sides build findings
    through the shared constructors in ``sanitizer.py``).
  - **finalize**: T003 (only decidable at end of input -- a source
    state is "final" until the next event), T005 (endpoints heal as
    states arrive), T008 (needs recorded clocks; batch format only),
    T010 (retracts when the timestamp channel is dropped mid-stream),
    T011 (a cycle in clean arrival order is impossible; the witness
    search is whole-trace), and the entire C/P/R families (whole-trace
    passes over the validated deposet).

* Arrival-order violations (any T009) or an epoch reset set the
  ``dirty`` flag: the incremental engine's activation bookkeeping is no
  longer trustworthy, so affected rules degrade to finalize -- the
  report recomputes them via a full :func:`sanitize` -- while parse
  findings keep streaming.  Correctness is never lost, only latency.

Work accounting: every feed updates both the global
``analysis.lint.work.*`` metrics and the linter's own :attr:`work`
dict; the per-record cost of the incremental rules is independent of
the prefix length (heap pops and channel comparisons are
output-sensitive), which the metrics test pins.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Protocol, Tuple

from repro.analysis.findings import Finding, Report
from repro.analysis.raw import RawArrow, RawTrace, StreamParser, Ref
from repro.analysis.runner import DEEP_PASSES, run_deep_passes
from repro.analysis.sanitizer import axiom_finding, sanitize, t007_finding
from repro.causality.axioms import (
    MESSAGE, arrow_problems, claim_events, d3_problems,
)
from repro.obs.metrics import METRICS
from repro.predicates.base import Predicate
from repro.trace.io import STREAM_FORMAT

__all__ = [
    "IncrementalRule",
    "RuleMode",
    "RULE_MODES",
    "INCREMENTAL_SANITIZER_IDS",
    "StreamingLinter",
    "LINT_STATE_FORMAT",
]

#: Snapshot format marker for :meth:`StreamingLinter.snapshot`.
LINT_STATE_FORMAT = "repro-lint-state/1"

_W_RECORDS = METRICS.counter("analysis.lint.work.records")
_W_EVENTS = METRICS.counter("analysis.lint.work.events")
_W_ARROWS = METRICS.counter("analysis.lint.work.arrows")
_W_HEAP = METRICS.counter("analysis.lint.work.heap_ops")
_W_CHANNEL = METRICS.counter("analysis.lint.work.channel_cmps")
_W_FINDINGS = METRICS.counter("analysis.lint.work.findings")
_GLOBALS = {
    "records": _W_RECORDS,
    "events": _W_EVENTS,
    "arrows": _W_ARROWS,
    "heap_ops": _W_HEAP,
    "channel_cmps": _W_CHANNEL,
    "findings": _W_FINDINGS,
}


class IncrementalRule(Protocol):
    """One rule (or rule family) ported to the streaming engine.

    ``on_event``/``on_arrow`` receive the delta a single stream record
    appended and return the findings it provably causes on every later
    prefix; ``on_epoch_reset`` invalidates order-dependent internal
    state after a causality rewrite; ``finalize`` runs whole-trace
    checks once at end of input.  Implementations must do O(delta) work
    per ``on_*`` call (amortized, output-sensitive).
    """

    #: rule ids this implementation is responsible for
    rule_ids: Tuple[str, ...]

    def on_event(self, ref: Ref, raw: RawTrace) -> List[Finding]:
        """A state ``ref = (proc, index)`` was appended."""
        ...

    def on_arrow(
        self, arrow: RawArrow, kind: str, raw: RawTrace
    ) -> List[Finding]:
        """An arrow arrived (``kind`` is ``"message"`` or ``"control"``)."""
        ...

    def on_epoch_reset(self) -> None:
        """The prefix's causality was rewritten; drop derived state."""
        ...

    def finalize(self, raw: RawTrace) -> List[Finding]:
        """Whole-trace checks at end of input."""
        ...


@dataclass(frozen=True)
class RuleMode:
    """How one catalogue rule runs in the streaming engine."""

    mode: str  # "incremental" | "finalize"
    reason: str


#: Per-rule streaming mode, with the argument for it.  Kept in sync with
#: the catalogue by ``tests/analysis/test_incremental.py`` and rendered
#: into docs/ANALYSIS.md.
RULE_MODES: Dict[str, RuleMode] = {
    "T001": RuleMode("incremental",
                     "structural parse check; local to one record"),
    "T002": RuleMode("incremental",
                     "monotone once both endpoints exist (a stream recv "
                     "always creates its target at index >= 1, so this "
                     "fires on batch documents only)"),
    "T003": RuleMode("finalize",
                     "'source is the final state' is undecidable before "
                     "end of input: the next record may complete it"),
    "T004": RuleMode("incremental",
                     "event roles are claimed in arrival order, which on "
                     "a clean stream equals batch list order"),
    "T005": RuleMode("finalize",
                     "endpoints heal: a state that does not exist at this "
                     "prefix may be appended by the next record"),
    "T006": RuleMode("incremental",
                     "same-process arrows are condemned forever once both "
                     "endpoints exist (pending-activation heap)"),
    "T007": RuleMode("incremental",
                     "FIFO inversions are monotone over the activated "
                     "channel members; new pairs are output-sensitive"),
    "T008": RuleMode("finalize",
                     "needs recorded vector clocks (batch format only) "
                     "and a structurally sound whole trace"),
    "T009": RuleMode("incremental",
                     "arrival-order check; fires at the offending record "
                     "(and degrades order-dependent rules to finalize)"),
    "T010": RuleMode("finalize",
                     "non-monotone: the timestamp channel is dropped "
                     "entirely when any record omits 'time'"),
    "T011": RuleMode("finalize",
                     "a causality cycle cannot form in clean arrival "
                     "order; the minimal-witness search is whole-trace"),
    "C101": RuleMode("finalize",
                     "interference is judged over the complete control "
                     "relation and event graph"),
    "C102": RuleMode("finalize", "transitive redundancy is whole-relation"),
    "C103": RuleMode("finalize",
                     "enforceability depends on final state counts (D2 "
                     "generalised)"),
    "C104": RuleMode("finalize",
                     "Lemma 2 overlap is judged over complete "
                     "false-intervals"),
    "C105": RuleMode("finalize", "duplicate detection over the whole "
                     "relation keeps batch attribution order"),
    "C106": RuleMode("finalize", "needs predicate truth over final states"),
    "C107": RuleMode("finalize", "final states are only known at the end"),
    "P201": RuleMode("finalize", "predicate classification is per-trace"),
    "P202": RuleMode("finalize", "predicate classification is per-trace"),
    "P203": RuleMode("finalize", "routing estimate uses final lattice size"),
    "R301": RuleMode("finalize", "concurrency is judged over final clocks"),
    "R302": RuleMode("finalize", "concurrency is judged over final clocks"),
    "R303": RuleMode("finalize", "concurrency is judged over final clocks"),
}

#: Sanitizer rules the streaming engine owns; the report() assembly
#: filters these out of the finalize-time sanitize() to avoid
#: double-counting.
INCREMENTAL_SANITIZER_IDS = frozenset({"T002", "T004", "T006", "T007"})

EventRef = Tuple[int, int]


class _SanitizerEngine:
    """T002/T004/T006/T007 over the arrival order, in O(delta) per record.

    Activation model: an arrow participates in a rule only once the
    prefix contains the states the batch rule would require --

    * *endpoint* level (``counts[sp] >= si + 1``): both endpoints exist;
      drives T006 (same-process), T002 (initial-state target) and the
      T004 role table.
    * *order* level (``counts[sp] >= si + 2`` plus ``di >= 1`` and not a
      degenerate same-process arrow): the arrow is in
      :func:`~repro.analysis.sanitizer.valid_arrows`; drives T007.

    Arrows below a threshold wait in per-source-process min-heaps and
    are popped as states arrive (each arrow is pushed/popped at most
    twice: O(delta) amortized).  On a clean stream both levels are
    reached at arrival for every cross-process arrow -- the heaps only
    ever hold same-process arrows pointing at states not yet streamed,
    which batch meanwhile reports as T005 (finalize-mode), so the
    prefix identity is exact.
    """

    rule_ids = ("T002", "T004", "T006", "T007")

    def __init__(self, account: "_Account") -> None:
        self._account = account
        self._counts: List[int] = []
        self._seq = 0
        #: event -> the arrow that claimed it first, in activation order
        self._roles: Dict[EventRef, RawArrow] = {}
        #: channel -> activated arrows sorted by source state index
        self._channels: Dict[Tuple[int, int], List[RawArrow]] = {}
        self._channel_keys: Dict[Tuple[int, int], List[int]] = {}
        self._channel_max_dst: Dict[Tuple[int, int], int] = {}
        #: per source process: heap of (threshold, seq, level, arrow)
        self._pending: Dict[int, List[Tuple[int, int, str, RawArrow]]] = {}

    def _ensure(self, n: int) -> None:
        while len(self._counts) < n:
            self._counts.append(0)

    # -- IncrementalRule ------------------------------------------------------

    def on_event(self, ref: Ref, raw: RawTrace) -> List[Finding]:
        self._ensure(raw.n)
        p = ref[0]
        self._counts[p] = max(self._counts[p], ref[1] + 1)
        self._account.add("events", 1)
        out: List[Finding] = []
        heap = self._pending.get(p)
        while heap and heap[0][0] <= self._counts[p]:
            _, _, level, arrow = heapq.heappop(heap)
            self._account.add("heap_ops", 1)
            self._advance(arrow, level, out, emit=True)
        return out

    def on_arrow(
        self, arrow: RawArrow, kind: str, raw: RawTrace
    ) -> List[Finding]:
        self._ensure(raw.n)
        self._account.add("arrows", 1)
        if kind != "message":
            # control arrows drive no incremental rule (T005/C103 are
            # finalize-mode)
            return []
        out: List[Finding] = []
        self._admit(arrow, out, emit=True)
        return out

    def on_epoch_reset(self) -> None:
        # The linter marks itself dirty and stops feeding us; drop
        # everything so a stale activation can never leak.
        self._roles.clear()
        self._channels.clear()
        self._channel_keys.clear()
        self._channel_max_dst.clear()
        self._pending.clear()

    def finalize(self, raw: RawTrace) -> List[Finding]:
        return []  # everything this engine owns was emitted on arrival

    # -- rebuild (restore path) ----------------------------------------------

    def rebuild(self, raw: RawTrace) -> None:
        """Reconstruct activation state from a restored mirror.

        The engine's end-of-prefix state is a function of the prefix
        content alone (not of the arrival interleaving), so replaying
        ``raw.messages`` in list order with emission suppressed lands on
        exactly the state the live run had at snapshot time.
        """
        self._counts = list(raw.state_counts)
        sink: List[Finding] = []
        for arrow in raw.messages:
            self._admit(arrow, sink, emit=False)

    # -- activation machinery -------------------------------------------------

    def _admit(
        self, arrow: RawArrow, out: List[Finding], emit: bool
    ) -> None:
        (sp, si), (dp, di) = arrow.src, arrow.dst
        n = len(self._counts)
        if not (0 <= sp < n and 0 <= dp < n) or si < 0 or di < 0:
            return  # permanent T005 territory (finalize)
        self._seq += 1
        if self._counts[sp] >= si + 1:
            self._advance(arrow, "endpoint", out, emit)
        else:
            heapq.heappush(
                self._pending.setdefault(sp, []),
                (si + 1, self._seq, "endpoint", arrow),
            )
            self._account.add("heap_ops", 1)

    def _advance(
        self, arrow: RawArrow, level: str, out: List[Finding], emit: bool
    ) -> None:
        (sp, si), (dp, di) = arrow.src, arrow.dst
        if level == "endpoint":
            self._endpoint_activate(arrow, out, emit)
            # chain into the order level
            if di < 1 or (sp == dp and si >= di):
                return  # never in valid_arrows; T007 does not apply
            if self._counts[sp] >= si + 2:
                self._order_activate(arrow, out, emit)
            else:
                self._seq += 1
                heapq.heappush(
                    self._pending.setdefault(sp, []),
                    (si + 2, self._seq, "order", arrow),
                )
                self._account.add("heap_ops", 1)
        else:
            self._order_activate(arrow, out, emit)

    def _endpoint_activate(
        self, arrow: RawArrow, out: List[Finding], emit: bool
    ) -> None:
        if arrow.dst[1] >= self._counts[arrow.dst[0]]:
            return  # dst missing: cannot happen for streamed recvs
        if emit:
            # T003 is finalize-mode: the source may still complete.
            out.extend(
                axiom_finding(p, arrow)
                for p in arrow_problems(MESSAGE, arrow.src, arrow.dst,
                                        self._counts)
                if p[0] != "T003"
            )
            out.extend(axiom_finding(p, arrow, prev)
                       for p, prev in d3_problems(self._roles, arrow))
        claim_events(self._roles, arrow)

    def _order_activate(
        self, arrow: RawArrow, out: List[Finding], emit: bool
    ) -> None:
        (sp, si), (dp, di) = arrow.src, arrow.dst
        chan = (sp, dp)
        members = self._channels.setdefault(chan, [])
        keys = self._channel_keys.setdefault(chan, [])
        max_dst = self._channel_max_dst.get(chan, -1)
        if emit:
            if di > max_dst:
                # fast path: this delivery is the newest on the channel,
                # so the inversions are exactly the members sent after it
                # -- a suffix of the src-sorted list, each one a finding
                # (output-sensitive work).
                pos = bisect.bisect_right(keys, si)
                for other in members[pos:]:
                    self._account.add("channel_cmps", 1)
                    if other.src[1] > si:  # strict: equal sends never pair
                        out.append(t007_finding(sp, dp, arrow, other))
            else:
                # late activation (same-process pending arrows only):
                # general scan, O(channel)
                for other in members:
                    self._account.add("channel_cmps", 1)
                    if other.src[1] < si and other.dst[1] > di:
                        out.append(t007_finding(sp, dp, other, arrow))
                    elif other.src[1] > si and other.dst[1] < di:
                        out.append(t007_finding(sp, dp, arrow, other))
        pos = bisect.bisect_right(keys, si)
        members.insert(pos, arrow)
        keys.insert(pos, si)
        self._channel_max_dst[chan] = max(max_dst, di)


class _Account:
    """Work accounting fanned out to the global registry and a local dict."""

    def __init__(self, work: Dict[str, int]) -> None:
        self.work = work

    def add(self, key: str, units: int) -> None:
        self.work[key] = self.work.get(key, 0) + units
        counter = _GLOBALS.get(key)
        if counter is not None:
            counter.inc(units)


class StreamingLinter:
    """Online lint over a ``repro-events/1`` record stream.

    Feed it the same lines/records the ingestion layer consumes; each
    feed returns the findings that record provably causes (parse
    findings plus incremental-rule findings), and :meth:`report`
    assembles, at any prefix, a report whose findings equal batch
    :func:`~repro.analysis.runner.run_rules` over that prefix (as a
    multiset; the streamed ones are grouped first).  ``finalize``-mode
    rules run inside :meth:`report`/:meth:`finalize` only.

    The linter survives the serving layer's durable checkpoints via
    :meth:`snapshot`/:meth:`restore` (same contract as
    :class:`~repro.detection.incremental.IncrementalDetector`).
    """

    def __init__(
        self,
        source: str = "<stream>",
        predicate: Optional[Predicate] = None,
    ) -> None:
        self.parser = StreamParser(source=source)
        self.predicate = predicate
        #: per-linter work units (the global registry aggregates across
        #: concurrently-live linters; tests read this one)
        self.work: Dict[str, int] = {}
        self._account = _Account(self.work)
        self.engine = _SanitizerEngine(self._account)
        self.parse_findings: List[Finding] = []
        self.incremental_findings: List[Finding] = []
        self.dirty = False
        self.dirty_reason: Optional[str] = None
        self.records = 0
        self.epoch_resets = 0

    @property
    def source(self) -> str:
        return self.parser.source

    # -- feeding --------------------------------------------------------------

    def feed_line(
        self, line: str, where: Optional[str] = None
    ) -> List[Finding]:
        """Lint one raw stream line; returns this record's findings."""
        return self._after_feed(self.parser.feed_line(line, where))

    def feed_record(
        self, rec: Any, where: Optional[str] = None
    ) -> List[Finding]:
        """Lint one decoded record (``dict``); returns its findings."""
        return self._after_feed(self.parser.feed_record(rec, where))

    def _after_feed(self, parse_findings: List[Finding]) -> List[Finding]:
        self.records += 1
        self._account.add("records", 1)
        self.parse_findings.extend(parse_findings)
        emitted = list(parse_findings)
        if any(f.rule_id == "T009" for f in parse_findings):
            self._mark_dirty("arrival-order violation (T009)")
        if self.dirty or self.parser.raw is None:
            self._account.add("findings", len(emitted))
            return emitted
        raw = self.parser.raw
        new: List[Finding] = []
        for ref in self.parser.delta_states:
            new.extend(self.engine.on_event(ref, raw))
        for a in self.parser.delta_messages:
            new.extend(self.engine.on_arrow(a, "message", raw))
        for a in self.parser.delta_control:
            new.extend(self.engine.on_arrow(a, "control", raw))
        self.incremental_findings.extend(new)
        emitted.extend(new)
        self._account.add("findings", len(emitted))
        return emitted

    def on_epoch_reset(self) -> None:
        """The underlying store rewrote causality (arrow insert): the
        arrival-order bookkeeping is stale, so the order-dependent rules
        degrade to finalize for the rest of this stream."""
        self.epoch_resets += 1
        self.engine.on_epoch_reset()
        self._mark_dirty("epoch reset")

    def _mark_dirty(self, reason: str) -> None:
        if not self.dirty:
            self.dirty = True
            self.dirty_reason = reason

    # -- results --------------------------------------------------------------

    def findings(self) -> List[Finding]:
        """Everything streamed so far (parse + incremental rules); the
        finalize-mode rules are *not* in here -- ask :meth:`report`."""
        return list(self.parse_findings) + list(self.incremental_findings)

    def report(self) -> Report:
        """A full report over the current prefix.

        Findings equal batch :func:`~repro.analysis.runner.run_rules`
        over the same prefix as a multiset: when clean, the streamed
        incremental findings are used as-is and only the finalize-mode
        rules are computed here; when dirty, the whole sanitizer reruns
        batch-style (correctness over latency).
        """
        raw = self.parser.raw
        parse_findings = list(self.parse_findings)
        if raw is None and not self.parser.dead:
            parse_findings.append(
                Finding("T001", "empty stream (no header)",
                        location=self.parser.source)
            )
        report = Report(source=self.parser.source, format=STREAM_FORMAT)
        report.passes.append("parse")
        report.extend(parse_findings)
        if raw is None:
            report.skipped.extend(("sanitizer",) + DEEP_PASSES)
            return report
        report.passes.append("sanitizer")
        if self.dirty:
            report.extend(sanitize(raw))
        else:
            report.extend(self.incremental_findings)
            report.extend(
                f for f in sanitize(raw)
                if f.rule_id not in INCREMENTAL_SANITIZER_IDS
            )
        return run_deep_passes(raw, report, predicate=self.predicate)

    def finalize(self) -> Report:
        """End-of-stream report (alias of :meth:`report`; named for
        symmetry with the detection pipeline)."""
        return self.report()

    # -- durable state capture ------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable linter state; pair with the session's store
        checkpoint exactly like the detector's snapshot."""
        return {
            "format": LINT_STATE_FORMAT,
            "parser": self.parser.snapshot(),
            "parse_findings": [f.to_dict() for f in self.parse_findings],
            "incremental_findings": [
                f.to_dict() for f in self.incremental_findings
            ],
            "dirty": self.dirty,
            "dirty_reason": self.dirty_reason,
            "records": self.records,
            "epoch_resets": self.epoch_resets,
        }

    @classmethod
    def restore(
        cls,
        state: Dict[str, Any],
        predicate: Optional[Predicate] = None,
    ) -> "StreamingLinter":
        """Rebuild a linter mid-stream from a :meth:`snapshot`; feeding
        the remaining records produces exactly the findings the original
        would have (pinned by tests/serve/test_serve_lint.py)."""
        if state.get("format") != LINT_STATE_FORMAT:
            raise ValueError(
                f"unknown lint state format {state.get('format')!r}; "
                f"expected {LINT_STATE_FORMAT!r}"
            )
        linter = cls(predicate=predicate)
        linter.parser = StreamParser.restore(state["parser"])
        linter.parse_findings = [
            Finding.from_dict(d) for d in state.get("parse_findings", ())
        ]
        linter.incremental_findings = [
            Finding.from_dict(d)
            for d in state.get("incremental_findings", ())
        ]
        linter.dirty = bool(state.get("dirty", False))
        linter.dirty_reason = state.get("dirty_reason")
        linter.records = int(state.get("records", 0))
        linter.epoch_resets = int(state.get("epoch_resets", 0))
        if not linter.dirty and linter.parser.raw is not None:
            linter.engine.rebuild(linter.parser.raw)
        return linter
