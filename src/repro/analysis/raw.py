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
variable map becomes ``{}``).  On top of that this module owns only
what the strict loaders do not check themselves: the recorded
``clocks`` block of a document, and the stream's causal delivery order
(T009, reported where the strict store raises).

The analysis passes then check the deposet axioms over the raw trace; a
real (validated) :class:`~repro.trace.deposet.Deposet` is constructed only
once the sanitizer reports no errors, gating the deep passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.findings import Finding
from repro.causality.relations import StateRef
from repro.errors import UnknownTraceFormatError
from repro.trace.decode import (
    FORMAT,
    STREAM_FORMAT,
    Problem,
    decode_document,
    decode_stream_header,
    decode_stream_record,
)
from repro.trace.deposet import Deposet
from repro.trace.states import MessageArrow

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

    def to_deposet(self) -> Deposet:
        """A validated deposet (raises on axiom violations -- call only
        after the sanitizer reported no errors)."""
        return Deposet(
            self.states,
            [
                MessageArrow(
                    StateRef(*m.src), StateRef(*m.dst),
                    payload=m.payload, tag=m.tag,
                )
                for m in self.messages
            ],
            [(StateRef(*c.src), StateRef(*c.dst)) for c in self.control],
            proc_names=self.proc_names or None,
            timestamps=self.timestamps,
        )


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
    and the online linter (:mod:`repro.analysis.incremental`) keeps one
    as its *mirror* -- feeding the same records produces, by
    construction, exactly the :class:`RawTrace` and parse findings a
    batch re-parse of the prefix would.

    Where :func:`repro.trace.ingest_event_stream` raises, it reports: a
    decoder problem is a T001, an arrow whose source event has not
    completed when its target record arrives (the causal delivery order
    :class:`~repro.store.index.CausalIndex` enforces) is a T009.  Every
    witness carries ``source:lineno``.

    After each :meth:`feed_line`/:meth:`feed_record` call the
    ``delta_*`` attributes name the states and arrows that call
    appended, so an incremental consumer can react in O(delta).
    """

    def __init__(self, source: str = "<stream>") -> None:
        self.source = source
        self.raw: Optional[RawTrace] = None
        self.findings: List[Finding] = []
        self.vars_now: List[Dict[str, Any]] = []
        #: a header was seen but unusable; the batch parser stops there
        self.dead = False
        self.lineno = 0
        #: ``(proc, index)`` states appended by the last feed call
        self.delta_states: List[Ref] = []
        #: message arrows appended by the last feed call
        self.delta_messages: List[RawArrow] = []
        #: control arrows appended by the last feed call
        self.delta_control: List[RawArrow] = []

    def _begin(self, where: Optional[str]) -> str:
        self.lineno += 1
        self.delta_states = []
        self.delta_messages = []
        self.delta_control = []
        return f"{self.source}:{self.lineno}" if where is None else where

    def feed_line(
        self, line: str, where: Optional[str] = None
    ) -> List[Finding]:
        """Parse one raw stream line; returns the findings it produced."""
        where = self._begin(where)
        line = line.strip()
        if self.dead or not line:
            return []
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            return self._emit(_t001(where, f"not valid JSON ({exc})"))
        return self._feed(rec, where)

    def feed_record(
        self, rec: Any, where: Optional[str] = None
    ) -> List[Finding]:
        """Parse one already-decoded record (``dict``); same contract as
        :meth:`feed_line` minus the JSON decode."""
        where = self._begin(where)
        return [] if self.dead else self._feed(rec, where)

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
            self.delta_states.append((proc, new_index))
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
                self.delta_messages.append(arrow)
                _check_delivery_order(raw, arrow, "message", where, out)
        elif kind == "ctl":
            arrow = RawArrow(fields["src"], fields["dst"], location=where)
            raw.control.append(arrow)
            self.delta_control.append(arrow)
            _check_delivery_order(raw, arrow, "control arrow", where, out)
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
        self.delta_states = [(i, 0) for i in range(raw.n)]
        return self._emit(*out)

    def finish(self) -> Tuple[Optional[RawTrace], List[Finding]]:
        """End of input: the raw trace plus *all* accumulated findings
        (identical to a one-shot :func:`parse_stream` of the same lines)."""
        if self.raw is None and not self.dead:
            self.findings.append(_t001(self.source, "empty stream (no header)"))
            self.dead = True  # idempotent finish
        return self.raw, self.findings

    # -- state capture (the serve layer checkpoints its mirror) --------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable parser state (findings are *not* included --
        they are owned by whoever accumulated them)."""
        raw_blob: Optional[Dict[str, Any]] = None
        if self.raw is not None:
            raw = self.raw
            raw_blob = {
                "source": raw.source,
                "format": raw.format,
                "proc_names": list(raw.proc_names),
                "states": raw.states,
                "messages": [
                    {"src": list(m.src), "dst": list(m.dst),
                     "location": m.location, "tag": m.tag,
                     "payload": m.payload}
                    for m in raw.messages
                ],
                "control": [
                    {"src": list(c.src), "dst": list(c.dst),
                     "location": c.location}
                    for c in raw.control
                ],
                "timestamps": raw.timestamps,
                "obs": raw.obs,
            }
        return {
            "source": self.source,
            "raw": raw_blob,
            "vars_now": self.vars_now,
            "dead": self.dead,
            "lineno": self.lineno,
        }

    @classmethod
    def restore(cls, snap: Dict[str, Any]) -> "StreamParser":
        parser = cls(source=str(snap.get("source", "<stream>")))
        parser.dead = bool(snap.get("dead", False))
        parser.lineno = int(snap.get("lineno", 0))
        parser.vars_now = [dict(v) for v in snap.get("vars_now", ())]
        blob = snap.get("raw")
        if blob is not None:
            raw = RawTrace(
                source=str(blob["source"]),
                format=str(blob["format"]),
                proc_names=[str(x) for x in blob.get("proc_names", ())],
                states=[[dict(v) for v in row] for row in blob["states"]],
                timestamps=blob.get("timestamps"),
                obs=blob.get("obs"),
            )
            for m in blob.get("messages", ()):
                raw.messages.append(RawArrow(
                    (m["src"][0], m["src"][1]), (m["dst"][0], m["dst"][1]),
                    location=m.get("location"), tag=m.get("tag"),
                    payload=m.get("payload"),
                ))
            for c in blob.get("control", ()):
                raw.control.append(RawArrow(
                    (c["src"][0], c["src"][1]), (c["dst"][0], c["dst"][1]),
                    location=c.get("location"),
                ))
            parser.raw = raw
        return parser


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
    """T009 when ``arrow`` references a state that has not been streamed
    yet at this point (the :meth:`CausalIndex.append_event` contract: a
    cross-process arrow source must have *completed* -- index at most
    ``counts[src.proc] - 2`` -- before its target record arrives).

    Out-of-range process indices and same-process arrows are left to the
    sanitizer (T005/T006); negative indices can never become valid and are
    likewise T005 territory.
    """
    (sp, si), (dp, di) = arrow.src, arrow.dst
    if sp == dp or not (0 <= sp < raw.n) or not (0 <= dp < raw.n):
        return
    if si < 0 or di < 0:
        return
    counts = raw.state_counts
    problems = []
    if si > counts[sp] - 2:
        problems.append(f"source event at ({sp},{si}) has not completed")
    if di > counts[dp] - 1:
        problems.append(f"target state ({dp},{di}) has not been streamed")
    if problems:
        findings.append(
            Finding(
                "T009",
                f"{what} ({sp},{si}) -> ({dp},{di}): "
                + "; ".join(problems)
                + " (causal delivery order)",
                location=where,
                states=((sp, si), (dp, di)),
                arrows=(((sp, si), (dp, di)),),
            )
        )


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
