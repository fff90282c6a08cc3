"""The structural decoders: one per trace format, shared by every reader.

Whether a ``repro-deposet/1`` document or a ``repro-events/1`` header or
record is well-formed is decided here and nowhere else.  Each decoder
returns the decoded parts, repaired where a lenient reader can carry on
(a non-object variable map becomes ``{}``, a broken arrow is dropped),
plus the ``(location, message)`` problems it found, in input order.  The
strict readers (:mod:`repro.trace.io`) raise on the first problem, the
lenient ones (:mod:`repro.analysis.raw`) report each as a ``T001`` --
so both reject the same input at the same place with the same text.
Locations are JSON paths in documents and the caller's ``where`` in
streams.  Semantic checks (D1--D3, causal delivery order) are not here.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import MalformedTraceError

__all__ = ["DocumentParts", "HeaderParts", "Problem", "decode_document",
           "decode_stream_header", "decode_stream_record", "raise_first"]

FORMAT = "repro-deposet/1"
STREAM_FORMAT = "repro-events/1"

Ref = Tuple[int, int]
#: ``(location, message)``; the location is ``None`` for a whole document
Problem = Tuple[Optional[str], str]

_CLEAN: Tuple[Problem, ...] = ()


class DocumentParts(NamedTuple):
    states: List[List[Dict[str, Any]]]
    proc_names: Optional[List[Any]]
    #: ``(json_path, src, dst, tag, payload)`` per well-formed message
    messages: List[Tuple[str, Ref, Ref, Any, Any]]
    #: ``(json_path, src, dst)`` per well-formed control arrow
    control: List[Tuple[str, Ref, Ref]]
    timestamps: Optional[List[List[float]]]
    obs: Any


class HeaderParts(NamedTuple):
    start: List[Dict[str, Any]]
    proc_names: Optional[List[Any]]
    start_times: Optional[List[Any]]


def raise_first(problems: Sequence[Problem]) -> None:
    """The strict contract: fail on the first problem, if any, with
    ``location: message``."""
    if problems:
        location, message = problems[0]
        raise MalformedTraceError(
            message if location is None else f"{location}: {message}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Indices are tested by exact type: cheap on the per-record path, and it
# rejects ``bool`` (an ``int`` subclass) like every other non-index.
def _ref(value: Any) -> Optional[Ref]:
    """``(process, state)`` from a two-int list, else ``None``."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        a, b = value
        if type(a) is int and type(b) is int:
            return (a, b)
    return None


def _bad_ref(value: Any) -> str:
    return f"expected a [process, state] pair, got {value!r}"


def _bad_vars(value: Any) -> str:
    return f"expected an object of variables, got {value!r}"


def _bad_names(value: Any, n: int) -> Optional[str]:
    if value is None or (isinstance(value, list) and len(value) == n):
        return None
    return f"expected {n} names, got {value!r}"


# -- repro-deposet/1 ---------------------------------------------------------


def decode_document(
    data: Any,
) -> Tuple[Optional[DocumentParts], List[Problem]]:
    """Decode a ``repro-deposet/1`` document.

    The parts are ``None`` only when nothing can be analysed: ``data``
    is not an object, or it has no usable ``states`` list.
    """
    problems: List[Problem] = []
    bad = problems.append
    if not isinstance(data, dict):
        bad((None, f"expected a trace object, got {type(data).__name__}"))
        return None, problems
    if data.get("format") != FORMAT:
        bad(("format", f"unknown trace format {data.get('format')!r}; "
                       f"expected {FORMAT!r}"))
    if not isinstance(data.get("states"), list) or not data["states"]:
        bad(("states", "expected a non-empty list of per-process state lists"))
        return None, problems
    states: List[List[Dict[str, Any]]] = []
    for i, row in enumerate(data["states"]):
        if not isinstance(row, list) or not row:
            bad((f"states[{i}]", "expected a non-empty list of variable objects"))
            row = [{}]
        for a, vars in enumerate(row):
            if not isinstance(vars, dict):
                bad((f"states[{i}][{a}]", _bad_vars(vars)))
        states.append([v if isinstance(v, dict) else {} for v in row])
    n = len(states)
    names = data.get("proc_names")
    if _bad_names(names, n):
        bad(("proc_names", _bad_names(names, n)))
        names = None

    lists = {}
    for key in ("messages", "control"):
        lists[key] = data.get(key, [])
        if not isinstance(lists[key], list):
            # absent is empty; anything else, null included, is not
            bad((key, f"expected a list, got {lists[key]!r}"))
            lists[key] = []
    messages = []
    for k, m in enumerate(lists["messages"]):
        path = f"messages[{k}]"
        if not isinstance(m, dict):
            bad((path, f"expected an object, got {m!r}"))
            continue
        src, dst = _ref(m.get("src")), _ref(m.get("dst"))
        for end, ref in (("src", src), ("dst", dst)):
            if ref is None:
                bad((f"{path}.{end}", _bad_ref(m.get(end))))
        if src is not None and dst is not None:
            messages.append((path, src, dst, m.get("tag"), m.get("payload")))
    control = []
    for k, arrow in enumerate(lists["control"]):
        path = f"control[{k}]"
        if not isinstance(arrow, (list, tuple)) or len(arrow) != 2:
            bad((path, f"expected a [src, dst] pair, got {arrow!r}"))
            continue
        src, dst = _ref(arrow[0]), _ref(arrow[1])
        for end, ref in enumerate((src, dst)):
            if ref is None:
                bad((f"{path}[{end}]", _bad_ref(arrow[end])))
        if src is not None and dst is not None:
            control.append((path, src, dst))

    timestamps = data.get("timestamps")
    if timestamps is not None:
        before = len(problems)
        if not isinstance(timestamps, list) or len(timestamps) != n:
            bad(("timestamps",
                 f"expected {n} per-process rows, got {timestamps!r}"))
        else:
            for i, row in enumerate(timestamps):
                if not isinstance(row, list) or not all(map(_is_number, row)):
                    bad((f"timestamps[{i}]",
                         f"expected a list of numbers, got {row!r}"))
                elif len(row) != len(states[i]):
                    bad((f"timestamps[{i}]",
                         f"{len(row)} entries for {len(states[i])} states"))
        timestamps = (None if len(problems) > before
                      else [[float(t) for t in row] for row in timestamps])
    return DocumentParts(states, names, messages, control, timestamps,
                         data.get("obs")), problems


# -- repro-events/1 ----------------------------------------------------------


def decode_stream_header(
    rec: Any, where: str,
) -> Tuple[Optional[HeaderParts], List[Problem]]:
    """Decode a ``repro-events/1`` header line.

    The parts are ``None`` when ``rec`` is not an object or has no
    usable ``start`` list (the process count is unknown).
    """
    problems: List[Problem] = []
    if not isinstance(rec, dict):
        problems.append((where, f"expected an object, got {rec!r}"))
        return None, problems
    if rec.get("format") != STREAM_FORMAT:
        problems.append((where, f"unknown stream format {rec.get('format')!r}; "
                                f"expected {STREAM_FORMAT!r}"))
    start = rec.get("start")
    if not isinstance(start, list) or not start:
        problems.append((where, "header needs a non-empty 'start' list"))
        return None, problems
    for i, vars in enumerate(start):
        if not isinstance(vars, dict):
            problems.append((where, f"start[{i}]: {_bad_vars(vars)}"))
    start = [v if isinstance(v, dict) else {} for v in start]
    n = len(start)
    names = rec.get("proc_names")
    if _bad_names(names, n):
        problems.append((where, f"proc_names: {_bad_names(names, n)}"))
        names = None
    times = rec.get("start_times")
    if times is not None and not (
        isinstance(times, list) and len(times) == n
        and all(map(_is_number, times))
    ):
        problems.append(
            (where, f"start_times: expected {n} numbers, got {times!r}"))
        times = None
    return HeaderParts(start, names, times), problems


def decode_stream_record(
    rec: Any, n: int, where: str,
) -> Tuple[Optional[str], Optional[Dict[str, Any]], Sequence[Problem]]:
    """Decode one non-header record of an ``n``-process stream into
    ``(kind, fields, problems)``.

    ``kind`` is ``"ev"``, ``"recv"``, ``"ctl"`` or ``"obs"``, or ``None``
    for an unusable record.  Event ``fields`` are the keyword arguments
    of :meth:`~repro.store.TraceStore.append_state`, with a bad variable
    map repaired to ``{}`` and a bad ``time`` or receive source to
    ``None``; control arrows give ``src``/``dst``, obs records ``obs``.
    This runs once per record on the serving path: a clean record costs
    the one ``fields`` dict and no problem list.
    """
    if not isinstance(rec, dict):
        return None, None, [(where, f"expected an object, got {rec!r}")]
    kind = rec.get("t")
    if kind == "ev" or kind == "recv":
        proc = rec.get("p")
        if type(proc) is not int or not 0 <= proc < n:
            return None, None, [
                (where, f"'p' must be a process index, got {proc!r}")]
        problems: Sequence[Problem] = _CLEAN
        key = "vars" if "vars" in rec else "u"
        vars = rec.get(key, {})
        if not isinstance(vars, dict):
            problems = [(where, f"{key}: {_bad_vars(vars)}")]
            vars = {}
        time = rec.get("time")
        if time is not None and type(time) is not float \
                and not _is_number(time):  # float first: the common case
            problems = [*problems,
                        (where, f"time: expected a number, got {time!r}")]
            time = None
        fields = {"proc": proc, "time": time,
                  "vars" if key == "vars" else "updates": vars}
        if kind == "recv":
            src = _ref(rec.get("src"))
            if src is None:
                problems = [*problems,
                            (where, f"src: {_bad_ref(rec.get('src'))}")]
            fields["received_from"] = src
            fields["payload"] = rec.get("payload")
            fields["tag"] = rec.get("tag")
        return kind, fields, problems
    if kind == "ctl":
        src, dst = _ref(rec.get("src")), _ref(rec.get("dst"))
        if src is None or dst is None:
            return None, None, [
                (where, f"{end}: {_bad_ref(rec.get(end))}")
                for end, ref in (("src", src), ("dst", dst)) if ref is None]
        return kind, {"src": src, "dst": dst}, _CLEAN
    if kind == "obs":
        return kind, {"obs": rec.get("obs")}, _CLEAN
    return None, None, [(where, f"unknown record type {kind!r}")]
