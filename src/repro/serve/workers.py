"""Sharded detection workers: the CPU plane of ``repro serve``.

Structure (after the Chauhan-Garg-Natarajan-Mittal distributed
abstraction for online detection): instead of funneling every tenant's
events through one checker, sessions are **pinned to shards** by a stable
hash of their key, and each shard advances its own sessions completely
independently -- separate :class:`~repro.store.TraceStore`, separate
incremental detector, separate Python process.  Nothing is shared between
shards but the output queue, so per-stream detection work parallelizes
across cores and one tenant's pathological stream cannot stall another
shard.

Two pool flavours behind one synchronous, thread-safe interface:

* :class:`InlinePool` (``workers=0``) runs sessions in the calling
  process -- zero IPC, the single-stream ``repro watch`` cost model;
  used by tests, small deployments, and as the E16 baseline.
* :class:`ProcessPool` (``workers>=1``) runs each shard in a
  ``multiprocessing`` worker.  Records travel as raw line batches (the
  parent never JSON-parses them); verdict events and flow-control acks
  travel back over a shared queue drained by one thread that hands them
  to the pool's *sink* callback.

The sink contract: ``sink(key, events)`` may be called from a drain
thread (process pool) or synchronously inside ``feed`` (inline pool);
the server normalises both through ``loop.call_soon_threadsafe``.
Workers acknowledge every *line* they were fed (``_ack`` events), which
is what the server's credit-based backpressure spends and replenishes.
"""

from __future__ import annotations

import multiprocessing
import queue
import signal
import threading
import time
import zlib
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import METRICS
from repro.serve.protocol import (
    ack_event,
    ckpt_event,
    event_error,
    restored_event,
)
from repro.serve.session import DetectionSession, fresh_session_store_target

__all__ = ["DetectorPool", "InlinePool", "ProcessPool", "make_pool"]

Sink = Callable[[str, List[Dict[str, Any]]], None]

_RECORDS = METRICS.counter("serve.records_in")
_VERDICTS = METRICS.counter("serve.verdicts_out")
_BATCHES = METRICS.counter("serve.worker_batches")
_RESTARTS = METRICS.counter("serve.worker_restarts")
_RESTORES = METRICS.counter("serve.session_restores")


def shard_of(key: str, shards: int) -> int:
    """Stable session-to-shard pinning (order- and process-independent)."""
    if shards <= 1:
        return 0
    return zlib.crc32(key.encode("utf-8")) % shards


def _session_kwargs(opts: Dict[str, Any]) -> Dict[str, Any]:
    return dict(max_store_states=opts.get("max_store_states", 0),
                delay_per_record=opts.get("delay_per_record", 0.0),
                lint=opts.get("lint", False))


def _fresh_session(key: str, tenant: str, session: str,
                   header: Dict[str, Any], predicate: str,
                   opts: Dict[str, Any]) -> DetectionSession:
    """A new session; under ``--store`` on an emptied per-session chain."""
    return DetectionSession(
        tenant, session, header, predicate, **_session_kwargs(opts),
        store_target=fresh_session_store_target(opts.get("store_dir"), key))


def _open_session(sessions: Dict[str, DetectionSession], key: str,
                  tenant: str, session: str, header: Dict[str, Any],
                  predicate: str, opts: Dict[str, Any]
                  ) -> List[Dict[str, Any]]:
    try:
        sess = _fresh_session(key, tenant, session, header, predicate, opts)
    except Exception as exc:
        return [event_error(tenant, session, 0, "protocol", str(exc))]
    sessions[key] = sess
    return sess.open_events()


def _feed_session(sessions: Dict[str, DetectionSession], key: str,
                  lines: List[str], base_lineno: Optional[int]
                  ) -> List[Dict[str, Any]]:
    sess = sessions.get(key)
    events: List[Dict[str, Any]] = []
    if sess is not None:
        try:
            events = sess.feed(lines, base_lineno)
        except Exception as exc:  # a session bug must not sink the shard
            sess.failed = True
            events = [event_error(sess.tenant, sess.session, sess.seq,
                                  "internal", repr(exc))]
        _RECORDS.inc(len(lines))
        _VERDICTS.inc(sum(ev.get("e") == "witness" for ev in events))
    _BATCHES.inc()
    # Every line is acknowledged even for failed/unknown sessions: acks
    # are flow-control credits, and stuck credits would wedge the stream.
    events.append(ack_event(key, len(lines), sess.seq if sess else 0))
    return events


def _finalize_session(sessions: Dict[str, DetectionSession], key: str,
                      shed: int) -> List[Dict[str, Any]]:
    sess = sessions.pop(key, None)
    if sess is None:
        return []
    try:
        return sess.finalize(shed=shed)
    except Exception as exc:
        return [event_error(sess.tenant, sess.session, sess.seq,
                            "internal", repr(exc))]
    finally:
        try:
            sess.close()
        except Exception:  # closing storage must never mask the verdict
            pass


def _checkpoint_session(sessions: Dict[str, DetectionSession], key: str,
                        upto: int) -> List[Dict[str, Any]]:
    """Snapshot ``key`` for the durability layer.

    ``upto`` is the server's forwarded-line count when it enqueued the
    op; the shard queue is FIFO, so by the time this runs the session
    has applied exactly those lines and the snapshot covers them.
    """
    sess = sessions.get(key)
    if sess is None or sess.failed:
        return []
    try:
        return [ckpt_event(key, upto, sess.snapshot())]
    except Exception as exc:  # never let a snapshot bug kill the stream
        return [event_error(sess.tenant, sess.session, sess.seq,
                            "internal", f"checkpoint failed: {exc!r}")]


def _restore_session(sessions: Dict[str, DetectionSession], key: str,
                     tenant: str, session: str, header: Dict[str, Any],
                     predicate: str, opts: Dict[str, Any],
                     snapshot: Optional[Dict[str, Any]],
                     tail: List[str], published: int
                     ) -> List[Dict[str, Any]]:
    """Rebuild ``key`` from ``snapshot`` (may be ``None``: no checkpoint
    survived) and replay the WAL ``tail`` lines.

    Replay regenerates the session's public events deterministically;
    only events past index ``published`` (what the server already pushed
    to clients before the crash) are returned for publication, so a
    worker crash never duplicates an event on a surviving connection.
    """
    try:
        if snapshot is not None:
            # restore() reopens a durable chain via the checkpoint's
            # store_ref itself; a fresh store target here would wipe the
            # database being restored.
            sess = DetectionSession.restore(tenant, session, header,
                                            predicate, snapshot,
                                            **_session_kwargs(opts))
        else:
            # No checkpoint survived: full rebuild from the WAL tail, so
            # recreating the session's database from scratch is correct.
            sess = _fresh_session(key, tenant, session, header, predicate,
                                  opts)
            sess.open_events()
        sess.feed(tail)
    except Exception as exc:
        return [event_error(tenant, session, 0, "internal",
                            f"restore failed: {exc!r}")]
    sessions[key] = sess
    _RESTORES.inc()
    events = list(sess.events_log[published:])
    events.append(restored_event(key, sess.lines, len(sess.events_log)))
    return events


class DetectorPool:
    """Interface shared by :class:`InlinePool` and :class:`ProcessPool`."""

    workers: int = 0

    def __init__(self):
        #: supervisor overrides: session key -> shard (set when a shard
        #: exhausts its restart budget and its sessions move elsewhere)
        self._pins: Dict[str, int] = {}

    def set_sink(self, sink: Sink) -> None:
        self._sink = sink

    def shard_of(self, key: str) -> int:
        pinned = self._pins.get(key)
        if pinned is not None:
            return pinned
        return shard_of(key, max(self.workers, 1))

    def pin(self, key: str, shard: int) -> None:
        """Route ``key`` to ``shard`` from now on (supervisor re-pinning)."""
        self._pins[key] = shard

    def unpin(self, key: str) -> None:
        self._pins.pop(key, None)

    # lifecycle ---------------------------------------------------------------
    def start(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def stop(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    # session ops -------------------------------------------------------------
    def open_session(self, key: str, tenant: str, session: str,
                     header: Dict[str, Any], predicate: str,
                     opts: Optional[Dict[str, Any]] = None) -> None:
        raise NotImplementedError

    def feed(self, key: str, lines: List[str],
             base_lineno: Optional[int] = None) -> None:
        raise NotImplementedError

    def finalize(self, key: str, *, shed: int = 0) -> None:
        raise NotImplementedError

    def close_session(self, key: str) -> None:
        raise NotImplementedError

    # durability ops ----------------------------------------------------------
    def checkpoint(self, key: str, upto: int) -> None:
        """Ask the owning shard for a ``_ckpt`` snapshot covering the
        first ``upto`` forwarded lines (FIFO-ordered behind the feeds)."""
        raise NotImplementedError

    def restore(self, key: str, tenant: str, session: str,
                header: Dict[str, Any], predicate: str,
                opts: Dict[str, Any], snapshot: Optional[Dict[str, Any]],
                tail: List[str], published: int) -> None:
        """Rebuild a session on its shard from checkpoint + WAL tail."""
        raise NotImplementedError

    # supervision -------------------------------------------------------------
    def worker_alive(self, idx: int) -> bool:
        return True

    def ping(self, idx: int) -> None:
        pass

    def last_pong(self, idx: int) -> float:
        return float("inf")

    def restart_worker(self, idx: int) -> None:
        raise NotImplementedError


class InlinePool(DetectorPool):
    """``workers=0``: detection runs in the caller (no IPC, no threads)."""

    workers = 0

    def __init__(self, **_ignored: Any):
        super().__init__()
        self._sessions: Dict[str, DetectionSession] = {}
        self._sink: Sink = lambda key, events: None

    def start(self) -> None:
        pass

    def stop(self) -> None:
        self._sessions.clear()

    def open_session(self, key, tenant, session, header, predicate,
                     opts=None) -> None:
        self._sink(key, _open_session(self._sessions, key, tenant, session,
                                      header, predicate, opts or {}))

    def feed(self, key, lines, base_lineno=None) -> None:
        self._sink(key, _feed_session(self._sessions, key, lines, base_lineno))

    def finalize(self, key, *, shed=0) -> None:
        self._sink(key, _finalize_session(self._sessions, key, shed))

    def close_session(self, key) -> None:
        sess = self._sessions.pop(key, None)
        if sess is not None:
            sess.close()

    def checkpoint(self, key, upto) -> None:
        self._sink(key, _checkpoint_session(self._sessions, key, upto))

    def restore(self, key, tenant, session, header, predicate, opts,
                snapshot, tail, published) -> None:
        self._sink(key, _restore_session(self._sessions, key, tenant,
                                         session, header, predicate, opts,
                                         snapshot, tail, published))


def _worker_main(idx: int, in_q: "multiprocessing.Queue",
                 out_q: "multiprocessing.Queue") -> None:
    """One shard: drain commands, advance pinned sessions, emit events."""
    # A worker forked after the server installed its asyncio signal
    # handlers inherits the loop's wakeup fd and handler table: without
    # this reset, SIGTERM from ``terminate()`` would not kill the worker
    # and would instead reach the parent's loop as its own SIGTERM.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns shutdown
    sessions: Dict[str, DetectionSession] = {}
    while True:
        msg = in_q.get()
        op = msg[0]
        if op == "stop":
            out_q.put(("__stop__", idx, METRICS.snapshot()))
            break
        if op == "ping":
            out_q.put(("__pong__", idx, msg[1]))
            continue
        try:
            if op == "open":
                _, key, tenant, session, header, predicate, opts = msg
                out_q.put((key, _open_session(sessions, key, tenant, session,
                                              header, predicate, opts)))
            elif op == "feed":
                _, key, lines, base_lineno = msg
                out_q.put((key, _feed_session(sessions, key, lines,
                                              base_lineno)))
            elif op == "finalize":
                _, key, shed = msg
                out_q.put((key, _finalize_session(sessions, key, shed)))
            elif op == "checkpoint":
                _, key, upto = msg
                out_q.put((key, _checkpoint_session(sessions, key, upto)))
            elif op == "restore":
                (_, key, tenant, session, header, predicate, opts,
                 snapshot, tail, published) = msg
                out_q.put((key, _restore_session(sessions, key, tenant,
                                                 session, header, predicate,
                                                 opts, snapshot, tail,
                                                 published)))
            elif op == "close":
                dropped = sessions.pop(msg[1], None)
                if dropped is not None:
                    dropped.close()
        except Exception as exc:  # pragma: no cover - shard must survive
            out_q.put((msg[1] if len(msg) > 1 else "?",
                       [event_error("?", "?", 0, "internal", repr(exc))]))


class ProcessPool(DetectorPool):
    """``workers>=1`` shards, one ``multiprocessing.Process`` each.

    ``start()`` forks the workers *before* spawning the drain thread so
    the fork start method never clones a running thread.  ``stop()``
    shuts every worker down, merges their metrics snapshots into the
    parent's :data:`METRICS` registry (per-process registries merged on
    snapshot -- the cross-process half of the thread-safety story), and
    joins the drain thread.
    """

    def __init__(self, workers: int = 2, *, mp_context: Optional[str] = None):
        super().__init__()
        if workers < 1:
            raise ValueError("ProcessPool needs at least one worker")
        self.workers = workers
        self._ctx = multiprocessing.get_context(mp_context)
        self._in_qs: List[multiprocessing.Queue] = []
        self._out_q: Optional[multiprocessing.Queue] = None
        self._procs: List[multiprocessing.Process] = []
        self._drain: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._sink: Sink = lambda key, events: None
        self._worker_metrics: List[Dict[str, Any]] = []
        self._pongs: Dict[int, float] = {}

    def start(self) -> None:
        self._out_q = self._ctx.Queue()
        for idx in range(self.workers):
            in_q = self._ctx.Queue()
            proc = self._ctx.Process(
                target=_worker_main, args=(idx, in_q, self._out_q),
                daemon=True, name=f"repro-serve-shard-{idx}",
            )
            self._in_qs.append(in_q)
            self._procs.append(proc)
        for proc in self._procs:
            proc.start()
        now = time.monotonic()
        for idx in range(self.workers):
            self._pongs[idx] = now  # grace: freshly started counts as heard
        self._drain = threading.Thread(
            target=self._drain_main, name="repro-serve-drain", daemon=True
        )
        self._drain.start()

    def _drain_main(self) -> None:
        stopped = 0
        while stopped < self.workers:
            try:
                item = self._out_q.get(timeout=0.5)
            except queue.Empty:
                if self._stopped.is_set() and not any(
                    p.is_alive() for p in self._procs
                ):
                    break  # a worker died without its __stop__ message
                continue
            if item[0] == "__stop__":
                stopped += 1
                self._worker_metrics.append(item[2])
                continue
            if item[0] == "__pong__":
                self._pongs[item[1]] = max(self._pongs.get(item[1], 0.0),
                                           item[2])
                continue
            key, events = item
            self._sink(key, events)

    def stop(self) -> None:
        self._stopped.set()
        for in_q in self._in_qs:
            in_q.put(("stop",))
        if self._drain is not None:
            self._drain.join(timeout=10)
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
        for snap in self._worker_metrics:
            METRICS.merge(snap)
        self._worker_metrics.clear()
        for q in self._in_qs + ([self._out_q] if self._out_q else []):
            q.close()
            q.join_thread()
        self._in_qs, self._procs, self._out_q = [], [], None

    def open_session(self, key, tenant, session, header, predicate,
                     opts=None) -> None:
        self._in_qs[self.shard_of(key)].put(
            ("open", key, tenant, session, header, predicate, opts or {})
        )

    def feed(self, key, lines, base_lineno=None) -> None:
        self._in_qs[self.shard_of(key)].put(("feed", key, lines, base_lineno))

    def finalize(self, key, *, shed=0) -> None:
        self._in_qs[self.shard_of(key)].put(("finalize", key, shed))

    def close_session(self, key) -> None:
        self._in_qs[self.shard_of(key)].put(("close", key))

    def checkpoint(self, key, upto) -> None:
        self._in_qs[self.shard_of(key)].put(("checkpoint", key, upto))

    def restore(self, key, tenant, session, header, predicate, opts,
                snapshot, tail, published) -> None:
        self._in_qs[self.shard_of(key)].put(
            ("restore", key, tenant, session, header, predicate, opts,
             snapshot, tail, published)
        )

    # -- supervision ----------------------------------------------------------

    def worker_alive(self, idx: int) -> bool:
        return (idx < len(self._procs) and self._procs[idx] is not None
                and self._procs[idx].is_alive())

    def ping(self, idx: int) -> None:
        if idx < len(self._in_qs):
            try:
                self._in_qs[idx].put_nowait(("ping", time.monotonic()))
            except Exception:  # full / broken queue: the liveness check
                pass           # will catch the dead worker instead

    def last_pong(self, idx: int) -> float:
        return self._pongs.get(idx, 0.0)

    def restart_worker(self, idx: int) -> None:
        """Replace a dead shard process with a fresh one.

        The old input queue may hold half-pickled garbage from the
        moment of death, so the shard gets a brand-new queue; whatever
        ops it held are gone -- the supervisor replays every owned
        session from checkpoint + WAL tail afterwards, which re-covers
        the lost feeds.
        """
        old = self._procs[idx]
        if old is not None and old.is_alive():  # unresponsive, not dead
            old.terminate()
            old.join(timeout=5)
        in_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main, args=(idx, in_q, self._out_q),
            daemon=True, name=f"repro-serve-shard-{idx}",
        )
        self._in_qs[idx] = in_q
        self._procs[idx] = proc
        self._pongs[idx] = time.monotonic()  # fresh grace period
        proc.start()
        _RESTARTS.inc()


def make_pool(workers: int, **kwargs: Any) -> DetectorPool:
    """``workers=0`` -> :class:`InlinePool`, else :class:`ProcessPool`."""
    if workers <= 0:
        return InlinePool(**kwargs)
    return ProcessPool(workers, **kwargs)
