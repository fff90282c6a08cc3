"""The ``repro-verdicts/1`` event schema and its one serializer.

Every online detection surface -- ``repro serve`` pushing to subscribers,
``repro tail`` printing what the server pushed, ``repro watch --format
json`` running the same detector in-process -- emits the *same*
line-delimited JSON events, produced by the helpers here and nowhere
else.  The schema (documented in ``docs/SERVING.md``) is deliberately
timestamp-free: the event sequence of a session is a pure function of its
input stream, so two runs of the same stream are **byte-identical** no
matter how the work was sharded -- the property the E16 benchmark and the
multi-tenant tests pin.

Event kinds (every event carries ``e``, ``tenant``, ``session``, ``seq``
where ``seq`` is the number of stream records applied when it fired):

``open``
    Session accepted: carries ``format`` (the schema name), ``n``
    (process count) and the predicate spec.
``witness``
    The violation frontier moved: ``status`` is ``"found"`` (a consistent
    cut violating the predicate exists; ``cut`` names the least one) or
    ``"withdrawn"`` (a late arrow ordered the previous witness away).
``final``
    End of stream: the last word on the session.  ``witness`` is the
    final least violating cut or ``null``; ``definitely`` (a boolean)
    says no controller exists, so every execution violates; ``pending``
    lists processes whose false candidates were all eliminated when the
    search parked (which ones depends on the elimination order);
    ``degraded`` is true when backpressure shed records (the verdict
    covers only the applied prefix).
``shed``
    The slow-consumer policy dropped ``dropped`` records (tail-shedding:
    nothing after the marker was applied).
``error``
    The session died: ``code`` (``malformed``, ``quota``, ``protocol``)
    plus a human message and, when known, a ``where`` location.
``closed``
    The server finished with the session (always the last event).

Internal events start with ``_`` and are never published to
subscribers: ``_ack`` carries flow-control credit grants from detection
workers back to the server, ``_ckpt`` ships a session snapshot home for
the durability layer, ``_restored`` reports a session rebuilt from
checkpoint + WAL tail, ``_metrics`` ships a worker registry snapshot at
shutdown.  Two internal events *do* cross the wire, but only on durable
``repro-serve/1`` stream connections (never to subscribers):
``_resume`` (the server's durable watermark at [re]connect) and
``_durable`` (watermark advance acks; see ``docs/SERVING.md``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.detection.incremental import WatchResult

__all__ = [
    "VERDICT_FORMAT",
    "FINDINGS_FORMAT",
    "dumps_event",
    "event_open",
    "event_witness",
    "event_final",
    "event_shed",
    "event_error",
    "event_closed",
    "event_finding",
    "event_lint_summary",
    "ack_event",
    "ckpt_event",
    "restored_event",
    "resume_event",
    "durable_event",
    "is_internal",
    "describe_event",
    "events_to_lines",
    "VerdictTracker",
]

VERDICT_FORMAT = "repro-verdicts/1"
#: Schema name of the online-lint finding events a ``--lint`` session
#: interleaves with its verdicts (documented in docs/ANALYSIS.md).
FINDINGS_FORMAT = "repro-findings/1"

Cut = Tuple[int, ...]


def dumps_event(event: Dict[str, Any]) -> str:
    """The canonical wire form (sorted keys, no whitespace, no newline)."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def _base(kind: str, tenant: str, session: str, seq: int) -> Dict[str, Any]:
    return {"e": kind, "tenant": tenant, "session": session, "seq": seq}


def event_open(
    tenant: str, session: str, n: int, predicate: str
) -> Dict[str, Any]:
    ev = _base("open", tenant, session, 0)
    ev["format"] = VERDICT_FORMAT
    ev["n"] = n
    ev["predicate"] = predicate
    return ev


def event_witness(
    tenant: str, session: str, seq: int, status: str, cut: Cut
) -> Dict[str, Any]:
    ev = _base("witness", tenant, session, seq)
    ev["status"] = status
    ev["cut"] = list(cut)
    return ev


def event_final(
    tenant: str,
    session: str,
    seq: int,
    result: WatchResult,
    *,
    degraded: bool = False,
) -> Dict[str, Any]:
    ev = _base("final", tenant, session, seq)
    ev["witness"] = list(result.witness) if result.witness is not None else None
    ev["definitely"] = result.definitely
    ev["pending"] = list(result.pending)
    ev["degraded"] = degraded
    return ev


def event_shed(
    tenant: str, session: str, seq: int, dropped: int
) -> Dict[str, Any]:
    ev = _base("shed", tenant, session, seq)
    ev["dropped"] = dropped
    return ev


def event_error(
    tenant: str,
    session: str,
    seq: int,
    code: str,
    message: str,
    where: Optional[str] = None,
    rule: Optional[str] = None,
) -> Dict[str, Any]:
    ev = _base("error", tenant, session, seq)
    ev["code"] = code
    ev["message"] = message
    if where is not None:
        ev["where"] = where
    if rule is not None:
        ev["rule"] = rule
    return ev


def event_closed(tenant: str, session: str, seq: int) -> Dict[str, Any]:
    return _base("closed", tenant, session, seq)


def event_finding(
    tenant: str, session: str, seq: int, finding: Dict[str, Any]
) -> Dict[str, Any]:
    """A ``repro-findings/1`` event: one lint finding, the moment its
    record arrived.  ``finding`` is a ``Finding.to_dict()`` payload; the
    headline fields (``rule``/``severity``/``fp``) are lifted so
    subscribers can filter without parsing the body."""
    from repro.analysis.findings import Finding
    from repro.analysis.fingerprint import fingerprint

    ev = _base("finding", tenant, session, seq)
    ev["format"] = FINDINGS_FORMAT
    ev["rule"] = finding.get("rule")
    ev["severity"] = finding.get("severity")
    ev["fp"] = fingerprint(Finding.from_dict(finding))
    ev["finding"] = finding
    return ev


def event_lint_summary(
    tenant: str,
    session: str,
    seq: int,
    *,
    findings: int,
    errors: int,
    warnings: int,
) -> Dict[str, Any]:
    """End-of-stream lint roll-up for a ``--lint`` session.  ``dirty`` is
    always ``false``: it is kept only so ``repro-findings/1`` events keep
    their schema."""
    ev = _base("lint", tenant, session, seq)
    ev["format"] = FINDINGS_FORMAT
    ev["findings"] = findings
    ev["errors"] = errors
    ev["warnings"] = warnings
    ev["dirty"] = False
    return ev


def ack_event(session_key: str, applied: int, seq: int) -> Dict[str, Any]:
    """Internal: a worker granting ``applied`` flow-control credits back."""
    return {"e": "_ack", "key": session_key, "applied": applied, "seq": seq}


def ckpt_event(session_key: str, seq: int,
               snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Internal: a worker shipping a session snapshot covering the first
    ``seq`` forwarded lines back to the server's durability layer."""
    return {"e": "_ckpt", "key": session_key, "seq": seq,
            "snapshot": snapshot}


def restored_event(session_key: str, seq: int, events: int) -> Dict[str, Any]:
    """Internal: a worker finished rebuilding a session from checkpoint +
    WAL tail; ``seq`` lines applied, ``events`` public events in its log."""
    return {"e": "_restored", "key": session_key, "seq": seq,
            "events": events}


def resume_event(seq: int, events: int) -> Dict[str, Any]:
    """Wire (durable streams only): the server's watermark at [re]connect.
    The client must send record ``seq + 1`` next and already holds the
    first ``events`` events of the session's verdict log."""
    return {"e": "_resume", "seq": seq, "events": events}


def durable_event(seq: int) -> Dict[str, Any]:
    """Wire (durable streams only): records up to ``seq`` are in the WAL,
    one frame per forwarded chunk already in the kernel, so a server
    process crash cannot lose them (``--fsync always``: nor a host crash)."""
    return {"e": "_durable", "seq": seq}


def is_internal(event: Dict[str, Any]) -> bool:
    return str(event.get("e", "")).startswith("_")


def describe_event(event: Dict[str, Any]) -> str:
    """One human line per event (``repro tail --format text``)."""
    kind = event.get("e")
    who = f"{event.get('tenant')}/{event.get('session')}"
    seq = event.get("seq")
    if kind == "open":
        return (f"[{who}] open: n={event.get('n')} "
                f"predicate={event.get('predicate')}")
    if kind == "witness":
        verb = ("violation possible at" if event.get("status") == "found"
                else "witness withdrawn from")
        return f"[{who}] record {seq}: {verb} {tuple(event.get('cut', ()))}"
    if kind == "final":
        w = event.get("witness")
        base = (f"[{who}] final after {seq} record(s): "
                + ("predicate holds in every consistent global state"
                   if w is None
                   else f"violation possible at {tuple(w)}"
                   + (" and DEFINITELY occurs" if event.get("definitely")
                      else "")))
        if event.get("degraded"):
            base += " (DEGRADED: backpressure shed records)"
        return base
    if kind == "shed":
        return (f"[{who}] record {seq}: slow consumer -- shed "
                f"{event.get('dropped')} record(s)")
    if kind == "error":
        where = f" at {event['where']}" if event.get("where") else ""
        return f"[{who}] error ({event.get('code')}){where}: {event.get('message')}"
    if kind == "finding":
        f = event.get("finding", {})
        where = f" at {f['location']}" if f.get("location") else ""
        return (f"[{who}] record {seq}: lint {event.get('rule')} "
                f"[{event.get('severity')}]{where}: {f.get('message')}")
    if kind == "lint":
        return (f"[{who}] lint after {seq} record(s): "
                f"{event.get('findings')} finding(s), "
                f"{event.get('errors')} error(s), "
                f"{event.get('warnings')} warning(s)")
    if kind == "closed":
        return f"[{who}] closed"
    return f"[{who}] {kind}: {dumps_event(event)}"


class VerdictTracker:
    """Turns a stream of polls into witness found/withdrawn transitions.

    Feed it ``observe(seq, witness)`` after every applied record; it
    remembers the previous poll and emits events only on change (a moved
    witness after an epoch reset emits withdrawn *then* found, so a
    subscriber replaying the events always knows the current frontier).
    Owned by :class:`~repro.serve.session.DetectionSession`, which both
    the server and ``repro watch`` run, so the two surfaces cannot drift.
    """

    def __init__(self, tenant: str, session: str):
        self.tenant = tenant
        self.session = session
        self._witness: Optional[Cut] = None

    @property
    def witness(self) -> Optional[Cut]:
        return self._witness

    def observe(self, seq: int, witness: Optional[Cut]) -> List[Dict[str, Any]]:
        if witness == self._witness:
            return []
        events: List[Dict[str, Any]] = []
        if self._witness is not None:
            events.append(
                event_witness(self.tenant, self.session, seq,
                              "withdrawn", self._witness)
            )
        if witness is not None:
            events.append(
                event_witness(self.tenant, self.session, seq,
                              "found", tuple(witness))
            )
        self._witness = tuple(witness) if witness is not None else None
        return events

    def finalized(
        self, seq: int, result: WatchResult, *, degraded: bool = False
    ) -> Dict[str, Any]:
        return event_final(self.tenant, self.session, seq, result,
                           degraded=degraded)


def events_to_lines(events: Sequence[Dict[str, Any]]) -> str:
    """Public events only, one canonical line each (trailing newline)."""
    lines = [dumps_event(ev) for ev in events if not is_internal(ev)]
    return "".join(line + "\n" for line in lines)
