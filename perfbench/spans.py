"""In-memory span recorder and the wrappers the traced run installs.

Tracing lives entirely in the benchmark: ``install_serve`` and
``install_debug`` replace public functions of the program's layers with
thin wrappers that time each call, then hand control to the original.
Nothing under ``src/`` is edited.  A span is the tuple::

    (name, start_ns, end_ns, span_id, parent_id, trace_id)

``trace_id`` is the session key (serve) or trace name (debug loop) that
the outermost wrapped call carried; nested calls inherit it.  Spans stay
in a list in memory and are written out once, when the process ends (or
on SIGUSR1, just before the crash phase kills a traced server).
Call counters and notes (a value per event, e.g. lines per batch) ride
along.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import signal
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_now = time.perf_counter_ns


class Recorder:
    """Span/counter/note store for one process (thread-safe appends)."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, int, int, int, int, str]] = []
        self.counts: Dict[str, int] = collections.Counter()
        self.notes: List[Tuple[str, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: trace id for outermost calls whose wrapper names none
        self.default_trace = ""

    def reset(self) -> None:
        """Forget everything recorded (in place: wrappers hold these)."""
        self.spans.clear()
        self.counts.clear()
        self.notes.clear()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, fn: Callable, name: str,
             ident: Optional[Callable[..., str]] = None) -> Callable:
        """``fn`` timed as span ``name``; ``ident(*args)`` names the
        trace when the call is not nested inside another span."""
        rec, spans, ids, stack_of = self, self.spans, self._ids, self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            st = stack_of()
            if st:
                parent, trace = st[-1]
            else:
                parent = 0
                trace = ident(*args) if ident else rec.default_trace
            sid = next(ids)
            st.append((sid, trace))
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                st.pop()
                spans.append((name, t0, t1, sid, parent, trace))

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def counting(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a call counter (no span: too hot)."""
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def note(self, name: str, value: float) -> None:
        self.notes.append((name, float(value)))

    def dump(self, path: str) -> None:
        """Write everything recorded so far and start afresh (atomic)."""
        body = {"pid": os.getpid(), "spans": list(self.spans),
                "counts": dict(self.counts), "notes": list(self.notes)}
        self.reset()
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(body, fh)
        os.replace(tmp, path)


RECORDER = Recorder()


def _patch(owner: Any, attr: str, name: str,
           ident: Optional[Callable[..., str]] = None) -> None:
    setattr(owner, attr, RECORDER.wrap(getattr(owner, attr), name, ident))


def _patch_classmethod(cls: type, attr: str, name: str) -> None:
    fn = cls.__dict__[attr].__func__
    setattr(cls, attr, classmethod(RECORDER.wrap(fn, name)))


def dump_path(directory: str, tag: str) -> str:
    return os.path.join(directory,
                        f"spans-{tag}-{os.getpid()}-{time.time_ns()}.json")


def install_serve(out_dir: str) -> None:
    """Wrap the serve record path: decode, append, poll, serialise, WAL,
    checkpoints, recovery and worker IPC.  Call before the worker pool
    forks so the shards inherit the wrappers; each shard dumps its own
    spans when it exits."""
    from repro.detection.incremental import IncrementalDetector
    from repro.serve import durability, server, session, workers

    DS = session.DetectionSession
    _patch(DS, "feed_line", "serve.session.feed_line", lambda s, *a: s.key)
    _patch(DS, "finalize", "serve.session.finalize", lambda s, *a: s.key)
    _patch(DS, "snapshot", "serve.session.snapshot", lambda s, *a: s.key)
    _patch_classmethod(DS, "restore", "serve.session.restore")
    _patch(session, "apply_stream_record", "trace.io.apply_stream_record")
    _patch(IncrementalDetector, "poll", "detection.poll")
    _patch(IncrementalDetector, "finalize", "detection.finalize")
    _patch(server, "dumps_event", "serve.protocol.dumps_event")
    SD = durability.SessionDurability
    key = lambda d, *a: f"{d.tenant}/{d.session}"  # noqa: E731
    _patch(SD, "log_record", "serve.durability.log_record", key)
    _patch(durability.SessionWal, "flush", "serve.durability.flush",
           lambda w: w.directory)
    _patch(SD, "commit_checkpoint", "serve.durability.commit_checkpoint", key)
    _patch(durability.DurabilityManager, "recover_all",
           "serve.durability.recover_all")

    restore = workers._restore_session

    def restore_session(*args: Any, **kwargs: Any) -> Any:
        RECORDER.note("serve.durability.replayed_records", len(args[8]))
        return restore(*args, **kwargs)

    workers._restore_session = restore_session

    # batch round trip: DetectorPool.feed -> the sink callback that
    # carries the batch's ``_ack`` (FIFO per session key)
    sent: Dict[str, collections.deque] = collections.defaultdict(
        collections.deque)

    for pool_cls in (workers.InlinePool, workers.ProcessPool):
        feed = pool_cls.feed

        def timed_feed(self, key, lines, base_lineno=None, _feed=feed):
            sent[key].append(_now())
            RECORDER.note("serve.workers.lines_per_batch", len(lines))
            return _feed(self, key, lines, base_lineno)

        pool_cls.feed = timed_feed

    set_sink = workers.DetectorPool.set_sink

    def wrapped_set_sink(self, sink):
        def timed_sink(key, events):
            acks = sum(1 for ev in events if ev.get("e") == "_ack")
            if acks:
                now, q = _now(), sent.get(key)
                for _ in range(acks):
                    if q:
                        RECORDER.note("serve.workers.batch_rtt_ns",
                                      now - q.popleft())
            return sink(key, events)

        return set_sink(self, timed_sink)

    workers.DetectorPool.set_sink = wrapped_set_sink

    main = workers._worker_main

    def worker_main(*args: Any, **kwargs: Any) -> Any:
        RECORDER.reset()  # the fork copied the parent's spans
        try:
            return main(*args, **kwargs)
        finally:
            RECORDER.dump(dump_path(out_dir, "worker"))

    workers._worker_main = worker_main
    signal.signal(signal.SIGUSR1,
                  lambda *_: RECORDER.dump(dump_path(out_dir, "usr1")))


def install_debug() -> None:
    """Wrap the layers of the active-debugging cycle."""
    from importlib import import_module

    (analysis, runner, offline, overlap, verify, replay_engine, storage,
     branches, tio) = (import_module("repro." + m) for m in (
        "analysis", "analysis.runner", "core.offline", "core.overlap",
        "core.verify", "replay.engine", "storage", "storage.branches",
        "trace.io"))
    from repro.analysis.incremental import StreamingLinter
    from repro.detection.incremental import IncrementalDetector
    from repro.store.trace_store import TraceStore

    _patch(tio, "apply_stream_record", "trace.io.apply_stream_record")
    _patch(IncrementalDetector, "poll", "detection.poll")
    _patch(IncrementalDetector, "finalize", "detection.finalize")
    _patch(StreamingLinter, "feed_record", "analysis.lint.feed_record")
    _patch(StreamingLinter, "report", "analysis.lint.report")
    gate = RECORDER.wrap(runner.lint_deposet, "analysis.lint_deposet")
    runner.lint_deposet = analysis.lint_deposet = gate
    overlap.overlap = RECORDER.counting(overlap.overlap, "core.overlap.overlap")
    _patch(offline, "control_disjunctive", "core.offline.control_disjunctive")
    _patch(replay_engine, "replay", "replay.replay")
    _patch(verify, "verify_control", "core.verify.verify_control")
    _patch(TraceStore, "commit", "storage.commit")
    rcb = RECORDER.wrap(branches.record_control_branch,
                        "storage.record_control_branch")
    branches.record_control_branch = storage.record_control_branch = rcb


# -- analysis ----------------------------------------------------------------


def load_dumps(paths: Iterable[str]) -> List[Dict[str, Any]]:
    out = []
    for path in paths:
        with open(path) as fh:
            out.append(json.load(fh))
    return out


def self_times(spans: List[list]) -> Dict[int, int]:
    """span id -> duration minus the time its direct children cover."""
    child: Dict[int, int] = collections.Counter()
    for _name, t0, t1, _sid, parent, _trace in spans:
        if parent:
            child[parent] += t1 - t0
    return {sid: (t1 - t0) - child.get(sid, 0)
            for _name, t0, t1, sid, _parent, _trace in spans}


def covered_ns(spans: List[list], lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of top-level spans."""
    ivs = sorted((max(t0, lo), min(t1, hi))
                 for _n, t0, t1, _s, parent, _t in spans
                 if not parent and t1 > lo and t0 < hi)
    total, end = 0, lo
    for a, b in ivs:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Profile:
    """Per-name totals over a set of dumps; with ``windows``, only spans
    that lie inside one of them count."""

    def __init__(self, dumps: List[Dict[str, Any]],
                 windows: Optional[List[Tuple[int, int]]] = None) -> None:
        self.calls: Dict[str, int] = collections.Counter()
        self.total_ns: Dict[str, int] = collections.Counter()
        self.self_ns: Dict[str, int] = collections.Counter()
        self.counts: Dict[str, int] = collections.Counter()
        self.notes: Dict[str, List[float]] = collections.defaultdict(list)
        for dump in dumps:
            spans = dump["spans"]
            selfs = self_times(spans)
            for name, t0, t1, sid, _parent, _trace in spans:
                if windows and not any(lo <= t0 and t1 <= hi
                                       for lo, hi in windows):
                    continue
                self.calls[name] += 1
                self.total_ns[name] += t1 - t0
                self.self_ns[name] += selfs[sid]
            self.counts.update(dump["counts"])
            for name, value in dump["notes"]:
                self.notes[name].append(value)

    def mean_us(self, name: str, self_only: bool = False) -> float:
        """Mean duration (or self time) per call, in microseconds."""
        total = (self.self_ns if self_only else self.total_ns)[name]
        calls = self.calls[name]
        return total / 1e3 / calls if calls else 0.0
