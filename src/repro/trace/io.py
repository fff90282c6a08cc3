"""Trace (de)serialisation: batch JSON documents and streaming event logs.

Two formats, one storage model:

``repro-deposet/1`` -- a single JSON document describing a whole deposet.
Deliberately plain so traces can be produced by external tracers and
inspected by hand:

.. code-block:: json

    {
      "format": "repro-deposet/1",
      "proc_names": ["P0", "P1"],
      "states": [[{"x": 1}, {"x": 2}], [{}]],
      "messages": [{"src": [0, 0], "dst": [1, 1], "tag": null}],
      "control": [[[0, 1], [1, 2]]],
      "timestamps": null,
      "obs": {"metrics": {"counters": {"sim.runs": 1}}}
    }

``repro-events/1`` -- a line-delimited event stream in **causal delivery
order**, built for incremental ingestion into a
:class:`~repro.store.TraceStore` (``repro ingest`` / ``repro watch``).
The first line is a header; every further line is one record:

.. code-block:: text

    {"format": "repro-events/1", "proc_names": ["P0","P1"],
     "start": [{"x": 0}, {}], "start_times": [0.0, 0.0]}
    {"t": "ev",   "p": 0, "u": {"x": 1}, "time": 1.0}
    {"t": "recv", "p": 1, "src": [0, 1], "u": {}, "payload": "m", "tag": null}
    {"t": "ctl",  "src": [0, 1], "dst": [1, 2]}
    {"t": "obs",  "obs": {"metrics": {}}}

``"ev"``/``"recv"`` append one event to process ``p`` (``"u"`` overlays
variable updates; ``"vars"`` replaces the assignment wholesale, used when
a key disappears).  ``"recv"`` names the sender's pre-send state so the
message arrow joins during the O(n) append; ``"ctl"`` inserts a control
arrow between already-streamed states (cone update); a trailing ``"obs"``
record carries the observability block.  Records must respect causal
delivery order: an arrow source must have completed before its target
event is streamed -- :func:`write_event_stream` linearises any deposet
accordingly.

Payloads are serialised only when JSON-representable; otherwise they are
dropped with a ``repr`` placeholder (payloads are never semantically
meaningful to the algorithms).

The readers here are the strict ones: the shape of every document,
header and record is checked by the shared decoders of
:mod:`repro.trace.decode` (the linter's lenient parser uses the same
ones), and the first problem raises
:class:`~repro.errors.MalformedTraceError` carrying the offending
location -- the JSON path (``messages[3].src``) for batch documents,
``file:line`` for streams.  Semantic problems (D1--D3, causal delivery
order) are judged by :mod:`repro.causality.axioms` -- in the deposet,
the store and for ``ctl`` records here -- and raised with lint's rule
and text, prefixed the same way.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import IO, Any, Dict, Iterator, Optional, Sequence, Tuple, Union

from repro.causality.axioms import CONTROL, arrow_problems, axiom_error
from repro.causality.relations import StateRef
from repro.errors import (
    MalformedTraceError,
    SourceLostError,
    TruncatedStreamError,
    UnknownTraceFormatError,
)
from repro.store.trace_store import TraceStore, iter_delivery_events
from repro.trace.decode import (
    FORMAT,
    STREAM_FORMAT,
    decode_document,
    decode_stream_header,
    decode_stream_record,
    raise_first,
)
from repro.trace.deposet import Deposet
from repro.trace.states import MessageArrow

__all__ = [
    "FORMAT",
    "deposet_to_dict",
    "deposet_from_dict",
    "dump_deposet",
    "load_deposet",
    "load_deposet_meta",
    "STREAM_FORMAT",
    "StreamWriter",
    "write_event_stream",
    "iter_stream_lines",
    "ingest_event_stream",
    "read_event_stream",
    "sniff_trace_format",
    "stream_store_from_header",
    "apply_stream_record",
]

def _jsonable(value: Any) -> Any:
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return {"__repr__": repr(value)}


# -- batch documents ---------------------------------------------------------


def deposet_to_dict(
    dep: Deposet,
    obs: Optional[Dict[str, Any]] = None,
    clocks: bool = False,
) -> Dict[str, Any]:
    """A JSON-ready dictionary describing ``dep``.

    ``obs``, when given, is attached verbatim as the trace's ``"obs"``
    observability block (e.g. ``{"metrics": METRICS.snapshot()}``).

    ``clocks=True`` additionally records the per-state vector clocks of
    the (extended) causality as a ``"clocks"`` block --
    ``clocks[i][a][k]`` is ``V(s_{i,a})[k]``.  The block is redundant
    (recomputable from the arrows) and ignored by the loader; it exists
    so external tooling can cross-check, and so ``repro lint`` can
    compare recorded against recomputed clocks (rule T008).
    """
    out = {
        "format": FORMAT,
        "proc_names": list(dep.proc_names),
        "states": [
            [{k: _jsonable(v) for k, v in vars.items()} for vars in dep.proc_states(i)]
            for i in range(dep.n)
        ],
        "messages": [
            {
                "src": [m.src.proc, m.src.index],
                "dst": [m.dst.proc, m.dst.index],
                "tag": m.tag,
                "payload": _jsonable(m.payload),
            }
            for m in dep.messages
        ],
        "control": [
            [[a.proc, a.index], [b.proc, b.index]] for a, b in dep.control_arrows
        ],
        "timestamps": (
            [list(row) for row in dep.timestamps] if dep.timestamps else None
        ),
    }
    if clocks:
        out["clocks"] = [
            [
                [int(c) for c in dep.order.clock((i, a))]
                for a in range(dep.state_counts[i])
            ]
            for i in range(dep.n)
        ]
    if obs is not None:
        out["obs"] = obs
    return out


def deposet_from_dict(data: Dict[str, Any]) -> Deposet:
    """Rebuild a deposet from :func:`deposet_to_dict` output.

    Structural problems raise :class:`MalformedTraceError` naming the
    offending JSON path (``states[1][3]``, ``messages[2].src``,
    ``control[0]``, ``timestamps[1]``) -- the first problem
    :func:`~repro.trace.decode.decode_document` reports; semantic
    problems (D1--D3, interference) surface from the :class:`Deposet`
    constructor with lint's rule, text and JSON path (``messages[2]``).
    """
    parts, problems = decode_document(data)
    raise_first(problems)
    return Deposet(
        parts.states,
        [
            MessageArrow(StateRef(*src), StateRef(*dst), payload=payload, tag=tag)
            for _path, src, dst, tag, payload in parts.messages
        ],
        [(StateRef(*src), StateRef(*dst)) for _path, src, dst in parts.control],
        proc_names=parts.proc_names,
        timestamps=parts.timestamps,
    )


def dump_deposet(
    dep: Deposet,
    path: Union[str, Path],
    obs: Optional[Dict[str, Any]] = None,
    clocks: bool = False,
) -> None:
    """Write ``dep`` to ``path`` as JSON (with an optional ``obs`` block
    and, when ``clocks=True``, recorded vector clocks for T008 checks)."""
    Path(path).write_text(
        json.dumps(deposet_to_dict(dep, obs=obs, clocks=clocks), indent=1)
    )


def load_deposet(path: Union[str, Path]) -> Deposet:
    """Read a deposet written by :func:`dump_deposet`.

    Malformed traces raise :class:`MalformedTraceError` prefixed with the
    file path and the offending JSON path, with lint's ``rule``.
    """
    return load_deposet_meta(path)[0]


def load_deposet_meta(
    path: Union[str, Path],
) -> Tuple[Deposet, Optional[Dict[str, Any]]]:
    """Read a deposet plus its ``"obs"`` block (``None`` when absent).

    The embedded ``obs`` block is returned as inert data -- it is **not**
    merged into the live :data:`~repro.obs.metrics.METRICS` registry
    (re-loading a recorded run must not double-count its activity; pinned
    by ``tests/obs/test_metrics_reload.py``).
    """
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise MalformedTraceError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return deposet_from_dict(data), data.get("obs")
    except MalformedTraceError as exc:
        raise MalformedTraceError(f"{path}: {exc}", rule=exc.rule,
                                  location=exc.location) from exc


# -- streaming ---------------------------------------------------------------


class StreamWriter:
    """Incremental writer for the ``repro-events/1`` line format.

    Emit records in causal delivery order (every arrow source completed
    before its target event is written); :func:`write_event_stream` does
    this for a finished deposet, live producers do it naturally by
    writing events as they commit.
    """

    def __init__(
        self,
        target: Union[str, Path, IO[str]],
        n: int,
        proc_names: Optional[Sequence[str]] = None,
        start_vars: Optional[Sequence[Dict[str, Any]]] = None,
        start_times: Optional[Sequence[float]] = None,
    ):
        if hasattr(target, "write"):
            self._fh: IO[str] = target
            self._owns = False
        else:
            self._fh = open(target, "w")
            self._owns = True
        header: Dict[str, Any] = {
            "format": STREAM_FORMAT,
            "proc_names": (
                list(proc_names) if proc_names is not None
                else [f"P{i}" for i in range(n)]
            ),
            "start": [
                {k: _jsonable(v) for k, v in (start_vars[i] if start_vars else {}).items()}
                for i in range(n)
            ],
            "start_times": list(start_times) if start_times is not None else None,
        }
        self._write(header)

    def _write(self, record: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")

    def event(
        self,
        proc: int,
        updates: Optional[Dict[str, Any]] = None,
        vars: Optional[Dict[str, Any]] = None,
        time: Optional[float] = None,
    ) -> None:
        """A local or send event of ``proc``."""
        rec: Dict[str, Any] = {"t": "ev", "p": proc}
        self._payload_fields(rec, updates, vars, time)
        self._write(rec)

    def receive(
        self,
        proc: int,
        src: StateRef | Tuple[int, int],
        updates: Optional[Dict[str, Any]] = None,
        vars: Optional[Dict[str, Any]] = None,
        time: Optional[float] = None,
        payload: Any = None,
        tag: Optional[str] = None,
    ) -> None:
        """A receive event: ``src`` is the sender's pre-send state."""
        rec: Dict[str, Any] = {"t": "recv", "p": proc, "src": [src[0], src[1]]}
        self._payload_fields(rec, updates, vars, time)
        if payload is not None:
            rec["payload"] = _jsonable(payload)
        if tag is not None:
            rec["tag"] = tag
        self._write(rec)

    def control(
        self, src: StateRef | Tuple[int, int], dst: StateRef | Tuple[int, int]
    ) -> None:
        """A control arrow between already-streamed states."""
        self._write({"t": "ctl", "src": [src[0], src[1]], "dst": [dst[0], dst[1]]})

    def obs(self, obs: Dict[str, Any]) -> None:
        """The trailing observability block."""
        self._write({"t": "obs", "obs": obs})

    @staticmethod
    def _payload_fields(
        rec: Dict[str, Any],
        updates: Optional[Dict[str, Any]],
        vars: Optional[Dict[str, Any]],
        time: Optional[float],
    ) -> None:
        if vars is not None:
            rec["vars"] = {k: _jsonable(v) for k, v in vars.items()}
        else:
            rec["u"] = {k: _jsonable(v) for k, v in (updates or {}).items()}
        if time is not None:
            rec["time"] = time

    def close(self) -> None:
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _delta(
    prev: Dict[str, Any], cur: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    """Variable updates from ``prev`` to ``cur``; ``None`` when a key
    disappeared (updates cannot express deletion: emit full ``vars``)."""
    if any(k not in cur for k in prev):
        return None
    return {k: v for k, v in cur.items() if k not in prev or prev[k] != v}


def write_event_stream(
    dep: Deposet,
    path: Union[str, Path, IO[str]],
    obs: Optional[Dict[str, Any]] = None,
) -> None:
    """Linearise ``dep`` into a ``repro-events/1`` stream.

    Events are emitted in a causal delivery order over the *extended*
    causality (messages and control arrows both gate emission), so the
    stream replays through :func:`ingest_event_stream` with O(n) appends.
    """
    ts = dep.timestamps
    writer = StreamWriter(
        path,
        dep.n,
        proc_names=dep.proc_names,
        start_vars=[dep.state_vars((i, 0)) for i in range(dep.n)],
        start_times=[row[0] for row in ts] if ts is not None else None,
    )
    try:
        for proc, entered, msg, ctls in iter_delivery_events(dep):
            prev = dep.state_vars((proc, entered - 1))
            cur = dep.state_vars((proc, entered))
            updates = _delta(prev, cur)
            time = ts[proc][entered] if ts is not None else None
            kwargs: Dict[str, Any] = (
                {"vars": cur} if updates is None else {"updates": updates}
            )
            if msg is not None:
                writer.receive(
                    proc, msg.src, time=time,
                    payload=msg.payload, tag=msg.tag, **kwargs,
                )
            else:
                writer.event(proc, time=time, **kwargs)
            for a, b in ctls:
                writer.control(a, b)
        if obs is not None:
            writer.obs(obs)
    finally:
        writer.close()


def stream_store_from_header(
    rec: Dict[str, Any], where: str, store_target: Optional[str] = None,
) -> TraceStore:
    """A fresh :class:`TraceStore` from a parsed ``repro-events/1`` header.

    ``where`` (``file:line`` or a session label) prefixes every error.
    ``store_target`` selects the storage engine (``"memory"`` default, or
    ``"sqlite:PATH"`` for a durable commit chain -- the target must not
    already hold a trace body; fork a branch instead of re-ingesting).
    Shared by file ingestion and the serving layer's per-tenant sessions.
    """
    header, problems = decode_stream_header(rec, where)
    raise_first(problems)
    store = TraceStore.open(
        store_target or "memory",
        n=len(header.start),
        start_vars=header.start,
        proc_names=header.proc_names,
        start_times=header.start_times,
    )
    return store


def apply_stream_record(
    store: TraceStore, rec: Dict[str, Any], where: str
) -> str:
    """Apply one parsed non-header record to ``store``; returns its kind.

    ``"ev"``/``"recv"`` append a state, ``"ctl"`` inserts a control arrow,
    ``"obs"`` lands on ``store.obs``.  Malformed records raise
    :class:`MalformedTraceError` prefixed with ``where`` (its
    ``location``) and carrying lint's ``rule``: structural problems are
    the first one :func:`~repro.trace.decode.decode_stream_record`
    reports, semantic ones the axiom judge's for a streamed record.
    This is the single application path shared by
    :func:`ingest_event_stream` and the serving layer (one session = one
    store fed through here).
    """
    kind, fields, problems = decode_stream_record(rec, store.n, where)
    if problems:
        raise_first(problems)
    try:
        if kind == "ctl":
            src, dst = fields["src"], fields["dst"]
            # A streamed arrow, judged as it arrives (T009 first).
            problems = arrow_problems(CONTROL, src, dst, store.state_counts,
                                      streamed=True)
            if problems:
                raise axiom_error(problems[0])
            store.append_control(src, dst)
        elif kind == "obs":
            store.obs = fields["obs"]
        else:
            store.append_state(**fields)
    except MalformedTraceError as exc:
        raise MalformedTraceError(f"{where}: {exc}", rule=exc.rule,
                                  location=where) from exc
    return kind


def iter_stream_lines(
    path: Union[str, Path],
    *,
    follow: bool = False,
    poll_interval: float = 0.2,
    retry: Any = None,
    stop: Any = None,
) -> Iterator[Tuple[int, str]]:
    """``(lineno, line)`` for every non-blank line of a stream file.

    A partial record on the *final* line (no trailing newline -- the
    writer crashed or is still appending) raises the narrower
    :class:`~repro.errors.TruncatedStreamError`; a complete record that
    only lacks the newline is accepted.

    ``follow`` keeps reading as the file grows (``tail -f``): at EOF, and
    on a torn last line, it waits ``poll_interval`` and re-reads.  While
    the file is missing or gone it backs off with ``retry`` (anything
    with ``next_delay()``/``reset()``/``attempts``, such as
    :class:`repro.serve.client.Backoff`); once that budget is spent, or
    at once without ``follow``, an unreadable source raises
    :class:`~repro.errors.SourceLostError`.  Once ``stop`` (anything with
    ``is_set()``) is set, no further line is read; a torn line already
    read is then judged as at the end of the file.
    """

    def stopped() -> bool:
        return stop is not None and stop.is_set()

    def back_off(exc: Optional[BaseException]) -> None:
        delay = (retry.next_delay()
                 if follow and retry is not None and not stopped() else None)
        if delay is None:
            raise SourceLostError(
                f"stream source {str(path)!r} is gone and stayed gone for "
                f"{retry.attempts if retry is not None else 0} retries"
                + (f" ({exc})" if exc is not None else "")
            )
        time.sleep(delay)

    while True:
        try:
            fh = open(path)
            break
        except OSError as exc:
            back_off(exc)
    with fh:
        lineno, partial = 0, ""
        while True:
            halted = stopped()
            try:
                raw = partial + ("" if halted else fh.readline())
            except OSError as exc:
                back_off(exc)
                continue
            if follow and not halted and not raw.endswith("\n"):
                partial = raw  # EOF, or the writer is mid-record
                if os.path.exists(path):
                    if retry is not None:
                        retry.reset()
                    time.sleep(poll_interval)
                else:
                    back_off(None)  # give a rotated file time to reappear
                continue
            partial = ""
            if not raw:
                return
            lineno += 1
            line = raw.strip()
            if line and not raw.endswith("\n"):
                try:
                    json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TruncatedStreamError(
                        f"{path}:{lineno}: truncated record at end of "
                        f"stream ({exc}); the writer may still be appending",
                        lineno=lineno,
                    ) from exc
            if line:
                yield lineno, line


def ingest_event_stream(
    path: Union[str, Path],
    store_target: Optional[str] = None,
) -> Iterator[Tuple[TraceStore, Dict[str, Any]]]:
    """Incrementally ingest a ``repro-events/1`` stream.

    Yields ``(store, record)`` after the header (record = the header) and
    after each applied record, so a consumer can act on the appended
    suffix between records.  The same store object is yielded every
    time; the trailing ``"obs"`` block, when present, is left on
    ``store`` as the attribute ``obs``.  ``store_target`` selects the
    storage engine (see :func:`stream_store_from_header`); commit the
    store when done to persist the chain.

    Malformed records raise :class:`MalformedTraceError` carrying
    ``file:line`` (a torn final line: see :func:`iter_stream_lines`).
    """
    store: Optional[TraceStore] = None
    for lineno, line in iter_stream_lines(path):
        where = f"{path}:{lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedTraceError(f"{where}: not valid JSON ({exc})",
                                      rule="T001", location=where) from exc
        if store is None:
            store = stream_store_from_header(rec, where, store_target)
        else:
            apply_stream_record(store, rec, where)
        yield store, rec
    if store is None:
        raise MalformedTraceError(f"{path}: empty stream (no header)")


def read_event_stream(
    path: Union[str, Path],
    store_target: Optional[str] = None,
) -> Tuple[TraceStore, Optional[Dict[str, Any]]]:
    """Read a whole ``repro-events/1`` stream into a :class:`TraceStore`.

    Returns ``(store, obs)`` where ``obs`` is the trailing observability
    block (``None`` when absent).  ``store_target`` selects the storage
    engine (see :func:`stream_store_from_header`).
    """
    store: Optional[TraceStore] = None
    for store, _rec in ingest_event_stream(path, store_target):
        pass
    return store, store.obs


def sniff_trace_format(path: Union[str, Path]) -> str:
    """``"repro-deposet/1"`` or ``"repro-events/1"``, from the file head.

    Ambiguous input raises :class:`~repro.errors.UnknownTraceFormatError`
    naming both candidate formats rather than guessing: an empty file, a
    non-JSON head that cannot be the opening of a pretty-printed batch
    document, or a JSON head whose ``"format"`` matches neither.
    """
    path = Path(path)
    with open(path) as fh:
        first = fh.readline().strip()
        while not first:
            line = fh.readline()
            if not line:
                raise UnknownTraceFormatError(
                    f"{path}: empty file; expected a {FORMAT!r} JSON document "
                    f"or a {STREAM_FORMAT!r} event stream"
                )
            first = line.strip()
    try:
        head = json.loads(first)
    except json.JSONDecodeError:
        # A pretty-printed batch document spreads its object over many
        # lines, so the head parses only once it looks like an opening
        # brace; anything else is neither format.
        if first.startswith("{"):
            return FORMAT
        raise UnknownTraceFormatError(
            f"{path}: file head {first[:40]!r} is neither a {FORMAT!r} JSON "
            f"document nor a {STREAM_FORMAT!r} event stream header"
        ) from None
    if isinstance(head, dict):
        fmt = head.get("format")
        if fmt == STREAM_FORMAT:
            return STREAM_FORMAT
        if fmt == FORMAT:
            return FORMAT
        raise UnknownTraceFormatError(
            f"{path}: unknown trace format {fmt!r}; expected {FORMAT!r} "
            f"(batch JSON) or {STREAM_FORMAT!r} (event stream)"
        )
    raise UnknownTraceFormatError(
        f"{path}: file head is {type(head).__name__}, not an object; "
        f"expected a {FORMAT!r} JSON document or a {STREAM_FORMAT!r} "
        f"event stream header"
    )
