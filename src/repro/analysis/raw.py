"""Lenient trace parsing for the static analyzer.

The strict loaders (:func:`repro.trace.load_deposet`,
:func:`repro.trace.ingest_event_stream`) raise on the first violation of
D1--D3 or causal delivery order -- correct for consumers, useless for a
linter that must *report* every violation with a witness.  This module
parses both trace formats into a :class:`RawTrace` -- an unvalidated bag
of states, message arrows, and control arrows, each remembering where in
the input it came from (JSON path or ``file:lineno``) -- collecting
problems as findings instead of raising.

Structure is checked by the same decoders the strict loaders use
(:mod:`repro.trace.decode`): every problem they report becomes a T001
at its location, with the text a strict load raises, and the decoded
parts are kept with their repairs (a broken arrow is skipped, a broken
variable map becomes ``{}``).  The stream's causal delivery order is a
T009 from the axiom judge the strict store raises
(:mod:`repro.causality.axioms`), at the record that breaks it.  This
module owns only what the strict loaders do not check at all: the
recorded ``clocks`` block of a document.

The analysis passes then check the deposet axioms over the raw trace,
with the judge the deposet constructor uses; a real (validated)
:class:`~repro.trace.deposet.Deposet` is constructed only once the
sanitizer reports no errors, gating the deep passes.

This lenient route serves untrusted files only (``repro lint FILE``).  A
trace the strict readers accepted is linted from that trace itself
(:func:`~repro.analysis.runner.lint_deposet`,
:class:`~repro.analysis.incremental.StreamingLinter`); of this module
those share only :class:`RawArrow`, an arrow with where it was declared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.findings import Finding
from repro.causality.axioms import CONTROL, MESSAGE, arrow_problems
from repro.errors import UnknownTraceFormatError
from repro.trace.decode import (
    FORMAT,
    STREAM_FORMAT,
    Problem,
    decode_document,
    decode_stream_header,
    decode_stream_record,
)

__all__ = [
    "RawArrow",
    "RawTrace",
    "StreamParser",
    "parse_batch",
    "parse_stream",
    "parse_stream_lines",
    "load_raw",
]

Ref = Tuple[int, int]


@dataclass
class RawArrow:
    """A message or control arrow, plus where the input declared it."""

    src: Ref
    dst: Ref
    location: Optional[str] = None
    tag: Optional[str] = None
    payload: Any = None

    @property
    def pair(self) -> Tuple[Ref, Ref]:
        return (self.src, self.dst)


@dataclass
class RawTrace:
    """An unvalidated trace: shape only, no axiom enforcement."""

    source: str
    format: str
    proc_names: List[str] = field(default_factory=list)
    #: ``states[i][a]`` is the variable assignment of state ``(i, a)``.
    states: List[List[Dict[str, Any]]] = field(default_factory=list)
    messages: List[RawArrow] = field(default_factory=list)
    control: List[RawArrow] = field(default_factory=list)
    timestamps: Optional[List[List[float]]] = None
    #: Recorded vector clocks (``clocks[i][a]`` for state ``(i, a)``),
    #: when the producer emitted a ``"clocks"`` block.
    clocks: Optional[List[List[List[int]]]] = None
    obs: Optional[Dict[str, Any]] = None

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def state_counts(self) -> Tuple[int, ...]:
        return tuple(len(s) for s in self.states)

    def has_state(self, ref: Ref) -> bool:
        proc, index = ref
        return 0 <= proc < self.n and 0 <= index < len(self.states[proc])


def _t001(location: Optional[str], message: str) -> Finding:
    return Finding("T001", message, location=location)


def _t001s(problems: Sequence[Problem]) -> List[Finding]:
    return [_t001(location, message) for location, message in problems]


# -- batch documents ---------------------------------------------------------


def parse_batch(
    data: Any, source: str = "<trace>"
) -> Tuple[Optional[RawTrace], List[Finding]]:
    """Leniently parse a ``repro-deposet/1`` document.

    Returns ``(raw, findings)``; ``raw`` is ``None`` only when the
    document is too broken to analyse at all (not an object, or no usable
    ``states`` list).  Every problem the shared decoder reports is a
    T001; broken messages/arrows are skipped and the rest of the trace
    is still analysed.
    """
    parts, problems = decode_document(data)
    findings = _t001s(problems)
    if parts is None:
        return None, findings
    raw = RawTrace(
        source=source,
        format=FORMAT,
        proc_names=[str(x) for x in parts.proc_names or ()],
        states=parts.states,
        messages=[
            RawArrow(src, dst, location=path, tag=tag, payload=payload)
            for path, src, dst, tag, payload in parts.messages
        ],
        control=[
            RawArrow(src, dst, location=path)
            for path, src, dst in parts.control
        ],
        timestamps=parts.timestamps,
        obs=parts.obs,
    )
    n, counts = raw.n, raw.state_counts
    clocks = data.get("clocks")
    if clocks is not None:
        # recorded clocks are lint-only (T008): the strict loader ignores them
        if not isinstance(clocks, list) or len(clocks) != n:
            findings.append(_t001("clocks", f"expected {n} per-process rows"))
        else:
            bad = [
                i for i, row in enumerate(clocks)
                if not (isinstance(row, list) and len(row) == counts[i]
                        and all(isinstance(v, list) and len(v) == n
                                and all(type(c) is int for c in v)
                                for v in row))
            ]
            findings.extend(
                _t001(f"clocks[{i}]", f"expected {counts[i]} vectors of {n} ints")
                for i in bad
            )
            if not bad:
                raw.clocks = clocks
    return raw, findings


# -- event streams -----------------------------------------------------------


class StreamParser:
    """Incremental lenient parser for ``repro-events/1`` streams.

    The single source of truth for the stream-side lenient-parse
    semantics: :func:`parse_stream` drains a file through one instance,
    one line at a time.

    Where :func:`repro.trace.ingest_event_stream` raises, it reports: a
    decoder problem is a T001, an arrow whose source event has not
    completed when its target record arrives (the causal delivery order
    :class:`~repro.store.index.CausalIndex` enforces) is a T009.  Every
    witness carries ``source:lineno``.
    """

    def __init__(self, source: str = "<stream>") -> None:
        self.source = source
        self.raw: Optional[RawTrace] = None
        self.findings: List[Finding] = []
        self.vars_now: List[Dict[str, Any]] = []
        #: a header was seen but unusable; the batch parser stops there
        self.dead = False
        self.lineno = 0

    def feed_line(
        self, line: str, where: Optional[str] = None
    ) -> List[Finding]:
        """Parse one raw stream line; returns the findings it produced."""
        self.lineno += 1
        where = f"{self.source}:{self.lineno}" if where is None else where
        line = line.strip()
        if self.dead or not line:
            return []
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            return self._emit(_t001(where, f"not valid JSON ({exc})"))
        return self._feed(rec, where)

    def _emit(self, *found: Finding) -> List[Finding]:
        self.findings.extend(found)
        return list(found)

    def _feed(self, rec: Any, where: str) -> List[Finding]:
        if self.raw is None:
            return self._feed_header(rec, where)
        raw = self.raw
        kind, fields, problems = decode_stream_record(rec, raw.n, where)
        out = _t001s(problems) if problems else []
        if kind == "ev" or kind == "recv":
            proc = fields["proc"]
            if "vars" in fields:
                self.vars_now[proc] = dict(fields["vars"])
            else:
                self.vars_now[proc] = {**self.vars_now[proc], **fields["updates"]}
            raw.states[proc].append(dict(self.vars_now[proc]))
            new_index = len(raw.states[proc]) - 1
            if raw.timestamps is not None:
                t = fields["time"]
                if t is not None:
                    raw.timestamps[proc].append(float(t))
                else:
                    raw.timestamps = None  # incomplete -- drop the channel
            src = fields.get("received_from")
            if src is not None:
                arrow = RawArrow(
                    src, (proc, new_index), location=where,
                    tag=fields["tag"], payload=fields["payload"],
                )
                raw.messages.append(arrow)
                _check_delivery_order(raw, arrow, MESSAGE, where, out)
        elif kind == "ctl":
            arrow = RawArrow(fields["src"], fields["dst"], location=where)
            raw.control.append(arrow)
            _check_delivery_order(raw, arrow, CONTROL, where, out)
        elif kind == "obs":
            raw.obs = fields["obs"]
        return self._emit(*out)

    def _feed_header(self, rec: Any, where: str) -> List[Finding]:
        header, problems = decode_stream_header(rec, where)
        out = _t001s(problems) if problems else []
        if header is None:
            # only an object without a usable 'start' list ends the parse
            self.dead = isinstance(rec, dict)
            return self._emit(*out)
        self.vars_now = [dict(v) for v in header.start]
        raw = RawTrace(
            source=self.source,
            format=STREAM_FORMAT,
            proc_names=[str(x) for x in header.proc_names or ()],
            states=[[dict(v)] for v in self.vars_now],
        )
        if header.start_times is not None:
            raw.timestamps = [[float(t)] for t in header.start_times]
        self.raw = raw
        return self._emit(*out)

    def finish(self) -> Tuple[Optional[RawTrace], List[Finding]]:
        """End of input: the raw trace plus *all* accumulated findings
        (identical to a one-shot :func:`parse_stream` of the same lines)."""
        if self.raw is None and not self.dead:
            self.findings.append(_t001(self.source, "empty stream (no header)"))
            self.dead = True  # idempotent finish
        return self.raw, self.findings


def parse_stream(
    path: Union[str, Path]
) -> Tuple[Optional[RawTrace], List[Finding]]:
    """Leniently parse a ``repro-events/1`` stream file.

    One-shot wrapper over :class:`StreamParser`; see there for the
    semantics (T001 for structural problems, T009 for causal
    delivery-order violations, every witness carrying ``file:lineno``).
    """
    with open(path) as fh:
        return parse_stream_lines(fh, source=str(path))


def parse_stream_lines(
    lines: Iterable[str], source: str = "<stream>"
) -> Tuple[Optional[RawTrace], List[Finding]]:
    """Leniently parse a sequence of stream lines (the prefix-identity
    tests re-parse every prefix through this)."""
    parser = StreamParser(source=source)
    for line in lines:
        parser.feed_line(line)
    return parser.finish()


def _check_delivery_order(
    raw: RawTrace,
    arrow: RawArrow,
    what: str,
    where: str,
    findings: List[Finding],
) -> None:
    """T009 when ``arrow`` breaks causal delivery order as it arrives at
    ``where`` (the streamed judgement the strict store raises); its other
    problems are the sanitizer's, since its endpoints may still appear."""
    problems = arrow_problems(what, arrow.src, arrow.dst, raw.state_counts,
                              streamed=True)
    if problems and problems[0][0] == "T009":
        rule_id, message, states = problems[0]
        findings.append(Finding(rule_id, message, location=where,
                                states=states, arrows=(arrow.pair,)))


# -- entry point -------------------------------------------------------------


def load_raw(
    path: Union[str, Path]
) -> Tuple[Optional[RawTrace], str, List[Finding]]:
    """Sniff, then leniently parse ``path``.

    Returns ``(raw, format, findings)``.  Unreadable/unrecognisable files
    produce a ``None`` raw trace with a T001 finding rather than raising
    (except for OS-level errors, which propagate).
    """
    from repro.trace.io import sniff_trace_format

    path = Path(path)
    try:
        fmt = sniff_trace_format(path)
    except UnknownTraceFormatError as exc:
        return None, "unknown", [_t001(str(path), str(exc))]
    if fmt == STREAM_FORMAT:
        raw, findings = parse_stream(path)
        return raw, fmt, findings
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return None, fmt, [_t001(str(path), f"not valid JSON ({exc})")]
    raw, findings = parse_batch(data, source=str(path))
    return raw, fmt, findings
