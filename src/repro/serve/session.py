"""One tenant stream = one :class:`DetectionSession`.

A session owns the full PR 4 substrate for a single ``repro-events/1``
stream: a private :class:`~repro.store.TraceStore`, the streaming
:class:`~repro.detection.IncrementalDetector` over it, and a
:class:`~repro.serve.protocol.VerdictTracker` converting per-record polls
into witness found/withdrawn events.  Sessions are deliberately
single-threaded objects -- the sharded worker pool pins each session to
exactly one worker (Chauhan-Garg distributed abstraction: independent
slicers, no shared checker), so no session ever needs a lock.

Feeding is line-oriented: the server forwards raw stream lines without
parsing them, and the session pays the JSON + append + poll cost where
the CPU budget lives (a worker process).  Malformed lines and quota
overruns do not raise out of :meth:`feed_line`; they convert the session
to the *failed* state and surface as ``error`` events so one tenant's
garbage can never unwind a worker serving other tenants.  ``repro
watch`` and ``repro tail FILE`` run one session inline over a file, so
the CLI and the server share this record path.
"""

from __future__ import annotations

import json
import os
import re
import time
from typing import Any, Dict, List, Optional

from repro.detection.incremental import IncrementalDetector, WatchResult
from repro.errors import MalformedTraceError
from repro.serve.protocol import (
    VerdictTracker,
    event_error,
    event_finding,
    event_lint_summary,
    event_open,
)
from repro.trace.io import apply_stream_record, stream_store_from_header

__all__ = ["DetectionSession", "fresh_session_store_target", "session_key",
           "session_store_target"]


def session_key(tenant: str, session: str) -> str:
    """The routing key ``tenant/session`` used across server and workers."""
    return f"{tenant}/{session}"


def session_store_target(store_dir: str, key: str) -> str:
    """The per-session SQLite store target under ``store_dir``.

    One database per session (sessions are pinned to one worker, so each
    file has a single writer); the filename survives restarts so durable
    restore can reopen the same chain.
    """
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", key)
    return "sqlite:" + os.path.join(store_dir, f"{safe}.db")


def fresh_session_store_target(store_dir: Optional[str],
                               key: str) -> Optional[str]:
    """:func:`session_store_target` for a freshly opened session, emptied
    of any stale chain an earlier run of the same session name left
    (durable *restore* reopens the chain through its checkpoint instead);
    ``None`` without a ``store_dir`` (in-memory serving)."""
    if not store_dir:
        return None
    os.makedirs(store_dir, exist_ok=True)
    target = session_store_target(store_dir, key)
    if os.path.exists(target[len("sqlite:"):]):
        os.unlink(target[len("sqlite:"):])
    return target


class DetectionSession:
    """Streaming detection state for one tenant stream.

    Parameters
    ----------
    tenant, session:
        Naming for every emitted verdict event.
    header:
        The parsed ``repro-events/1`` header record.
    predicate:
        A predicate spec (``at-least-one:up``, ``mutex:cs``, ...) parsed
        against the stream's process count.
    max_store_states:
        Per-session quota: once the store holds more states the session
        fails with a ``quota`` error event covering the applied prefix.
    delay_per_record:
        Debug/bench knob: sleep this long per applied record to emulate
        an expensive predicate (how the backpressure tests and E16 make a
        deliberately slow detector without a heavyweight workload).
    lint:
        Attach a :class:`~repro.analysis.incremental.StreamingLinter` to
        the stream: every record is linted as it arrives and findings
        are pushed as ``repro-findings/1`` events interleaved with the
        verdicts (plus a ``lint`` summary at finalize).  Like verdicts,
        finding events are a pure function of the input stream, so they
        stay byte-identical across worker counts and survive durable
        snapshot/restore.
    store_target:
        Where the session's trace lives: ``None``/``"memory"``, or
        ``"sqlite:PATH"`` for a commit chain that durable checkpoints
        then reference by commit id.  The caller picks (and empties) it.
    label:
        Prefix of every error and lint location, as ``label:lineno``
        with the header at line 1 (default: the ``tenant/session`` key;
        ``repro watch`` and ``repro tail`` pass the file path).
    """

    def __init__(
        self,
        tenant: str,
        session: str,
        header: Dict[str, Any],
        predicate: str,
        *,
        max_store_states: int = 0,
        delay_per_record: float = 0.0,
        store_target: Optional[str] = None,
        lint: bool = False,
        label: Optional[str] = None,
    ):
        from repro.cli import parse_predicate  # lazy: cli imports are heavy

        self.tenant = tenant
        self.session = session
        self.key = session_key(tenant, session)
        self.label = self.key if label is None else label
        where = f"{self.label}:1"
        self.store_target = store_target
        self.store = stream_store_from_header(header, where, store_target)
        self.predicate_spec = predicate
        self.pred = parse_predicate(predicate, self.store.n)
        self.detector = IncrementalDetector(self.store, self.pred)
        self.tracker = VerdictTracker(tenant, session)
        self.max_store_states = int(max_store_states)
        self.delay_per_record = float(delay_per_record)
        #: stream records applied so far (header excluded)
        self.seq = 0
        #: raw stream lines accepted so far (incl. obs; the durable seq)
        self.lines = 0
        #: failed sessions apply nothing further (error already emitted)
        self.failed = False
        self.result: Optional[WatchResult] = None
        #: every public event this session ever produced, in order --
        #: the replay source for durable resume (byte-identity depends on
        #: this log being a pure function of the input stream)
        self.events_log: List[Dict[str, Any]] = []
        self.linter = None
        self._header_findings: List[Dict[str, Any]] = []
        if lint:
            from repro.analysis.incremental import StreamingLinter

            self.linter = StreamingLinter(source=self.label,
                                          predicate=self.pred)
            self._header_findings = [
                f.to_dict()
                for f in self.linter.feed_record(header, where)
            ]

    def _record(self, events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        self.events_log.extend(events)
        return events

    def open_event(self) -> Dict[str, Any]:
        return self.open_events()[0]

    def open_events(self) -> List[Dict[str, Any]]:
        """The session-accepted event, plus any findings the online
        linter raised against the header itself."""
        events = [event_open(self.tenant, self.session, self.store.n,
                             self.predicate_spec)]
        for payload in self._header_findings:
            events.append(event_finding(self.tenant, self.session, 0,
                                        payload))
        return self._record(events)

    # -- feeding -------------------------------------------------------------

    def _fail(self, code: str, message: str, where: Optional[str] = None,
              rule: Optional[str] = None) -> Dict[str, Any]:
        self.failed = True
        return event_error(self.tenant, self.session, self.seq, code,
                           message, where=where, rule=rule)

    def feed_line(self, line: str, lineno: Optional[int] = None
                  ) -> List[Dict[str, Any]]:
        """Apply one raw stream line; returns the verdict events it caused."""
        if self.failed:
            return []
        line = line.strip()
        if not line:
            return []
        self.lines += 1
        where = f"{self.label}:{lineno if lineno is not None else self.seq + 1}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            return self._record([self._fail(
                "malformed", f"{where}: not valid JSON ({exc})", where, "T001"
            )])
        try:
            kind = apply_stream_record(self.store, rec, where)
        except MalformedTraceError as exc:
            return self._record([self._fail("malformed", str(exc), where,
                                            exc.rule)])
        if kind == "obs":
            # obs records do not advance seq, but the linter must see
            # them (inline suppressions ride in obs blocks).
            return self._record(self._lint_feed(rec, where))
        self.seq += 1
        if self.delay_per_record:
            time.sleep(self.delay_per_record)
        if self.max_store_states and self.store.num_states > self.max_store_states:
            return self._record([self._fail(
                "quota",
                f"store grew past max_store_states={self.max_store_states} "
                f"({self.store.num_states} states); verdict covers the "
                f"applied prefix only",
                where,
            )])
        events = self._lint_feed(rec, where)
        events.extend(self.tracker.observe(self.seq, self.detector.poll()))
        return self._record(events)

    def _lint_feed(self, rec: Dict[str, Any],
                   where: str) -> List[Dict[str, Any]]:
        """Feed one record to the online linter; finding events out."""
        if self.linter is None:
            return []
        return [
            event_finding(self.tenant, self.session, self.seq, f.to_dict())
            for f in self.linter.feed_record(rec, where)
        ]

    def feed(self, lines: List[str], base_lineno: Optional[int] = None
             ) -> List[Dict[str, Any]]:
        events: List[Dict[str, Any]] = []
        for i, line in enumerate(lines):
            lineno = base_lineno + i if base_lineno is not None else None
            events.extend(self.feed_line(line, lineno))
        return events

    # -- finalisation --------------------------------------------------------

    def finalize(self, *, shed: int = 0) -> List[Dict[str, Any]]:
        """End of stream: the final verdict event (plus a shed marker).

        ``shed`` is how many records backpressure dropped before the end
        (tail-shedding); a non-zero value marks the verdict degraded.
        Failed sessions already emitted their error and produce nothing.
        """
        from repro.serve.protocol import event_shed

        if self.failed:
            return []
        events: List[Dict[str, Any]] = []
        if shed:
            events.append(event_shed(self.tenant, self.session, self.seq, shed))
        events.extend(self._lint_finalize())
        self.result = self.detector.finalize()
        events.append(
            self.tracker.finalized(self.seq, self.result, degraded=bool(shed))
        )
        return self._record(events)

    def _lint_finalize(self) -> List[Dict[str, Any]]:
        """Findings only decidable at end of stream, plus the roll-up.

        The finalize-mode rules (and, after an arrival-order violation,
        the recomputed incremental ones) first appear here; findings
        already pushed while streaming are not repeated."""
        if self.linter is None:
            return []
        from collections import Counter

        from repro.analysis.fingerprint import (
            apply_suppressions,
            suppressions_from_obs,
        )

        report = self.linter.report()
        raw = self.linter.parser.raw
        if raw is not None:
            # inline suppressions mute the roll-up, same as `repro lint`
            # (findings already on the wire are not retracted)
            apply_suppressions(report, suppressions_from_obs(raw.obs))
        emitted = Counter(
            json.dumps(f.to_dict(), sort_keys=True)
            for f in self.linter.findings()
        )
        events: List[Dict[str, Any]] = []
        for f in report.findings:
            key = json.dumps(f.to_dict(), sort_keys=True)
            if emitted[key] > 0:
                emitted[key] -= 1
                continue
            events.append(event_finding(self.tenant, self.session,
                                        self.seq, f.to_dict()))
        events.append(event_lint_summary(
            self.tenant, self.session, self.seq,
            findings=len(report.findings),
            errors=report.errors,
            warnings=report.warnings,
            dirty=self.linter.dirty,
            dirty_reason=self.linter.dirty_reason,
        ))
        return events

    # -- durable state capture -----------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Everything a checkpoint needs to resurrect this session.

        JSON-serializable; pairs the trace-store capture with
        :meth:`IncrementalDetector.snapshot` and adds the session-level
        counters plus the full public event log (events are sparse --
        witness *transitions* only -- so the log stays small even for
        long streams).

        On a commit-chain store (``--store sqlite:DIR``) the capture is a
        tiny ``store_ref`` -- the chain commits the appended suffix and
        the checkpoint records ``target/branch/commit id`` -- instead of
        re-freezing the whole store as JSON, so checkpoint cost stays
        O(suffix) as the trace grows.
        """
        if self.store_target is not None and self.store.branch_name is not None:
            cid = self.store.commit(
                kind="checkpoint", message=f"serve checkpoint seq={self.seq}"
            )
            store_blob: Dict[str, Any] = {"store_ref": {
                "target": self.store_target,
                "branch": self.store.branch_name,
                "commit": cid,
            }}
        else:
            store_blob = self.store.freeze()
        return {
            "store": store_blob,
            "detector": self.detector.snapshot(),
            "lint": (self.linter.snapshot()
                     if self.linter is not None else None),
            "seq": self.seq,
            "lines": self.lines,
            "failed": self.failed,
            "events": [dict(ev) for ev in self.events_log],
        }

    def close(self) -> None:
        """Release the session's storage (a no-op for in-memory stores)."""
        self.store.close()

    @classmethod
    def restore(
        cls,
        tenant: str,
        session: str,
        header: Dict[str, Any],
        predicate: str,
        snap: Dict[str, Any],
        *,
        max_store_states: int = 0,
        delay_per_record: float = 0.0,
        lint: bool = False,
    ) -> "DetectionSession":
        """Rebuild a session from a :meth:`snapshot`; feeding the stream
        suffix afterwards produces exactly the events an uninterrupted
        run would have produced (pinned by tests/serve/test_durability.py)."""
        from repro.store.trace_store import TraceStore

        # No store_target here on purpose: a durable restore reopens the
        # existing chain from the checkpoint's store_ref below.
        sess = cls(tenant, session, header, predicate,
                   max_store_states=max_store_states,
                   delay_per_record=delay_per_record, lint=lint)
        blob = snap["store"]
        if isinstance(blob, dict) and "store_ref" in blob:
            ref = blob["store_ref"]
            sess.store.close()
            sess.store = TraceStore.open(
                ref["target"], branch=ref["branch"],
                at_commit=int(ref["commit"]), reset_head=True,
                create=False,
            )
            sess.store_target = ref["target"]
        else:
            sess.store = TraceStore.restore(blob)
        sess.detector = IncrementalDetector.restore(
            sess.store, sess.pred, snap["detector"]
        )
        sess.tracker._witness = sess.detector.witness
        lint_state = snap.get("lint")
        if lint_state is not None and sess.linter is not None:
            from repro.analysis.incremental import StreamingLinter

            sess.linter = StreamingLinter.restore(
                lint_state, predicate=sess.pred
            )
        sess.seq = int(snap["seq"])
        sess.lines = int(snap.get("lines", 0))
        sess.failed = bool(snap.get("failed", False))
        sess.events_log = [dict(ev) for ev in snap.get("events", ())]
        return sess
