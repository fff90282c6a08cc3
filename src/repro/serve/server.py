"""`repro serve`: the asyncio control plane of the online detection service.

One process runs the **I/O plane** (this module): asyncio listeners on
TCP and/or a unix socket accept many concurrent ``repro-serve/1``
connections and a :class:`~repro.serve.registry.SessionRegistry` admits
sessions against per-tenant quotas.  The **CPU plane** is the sharded
:mod:`~repro.serve.workers` pool: the server forwards raw stream lines in
batches to the shard owning each session and receives verdict events plus
flow-control acks back on the loop thread.

Wire protocol (line-delimited JSON both ways):

.. code-block:: text

    C: {"format": "repro-serve/1", "t": "hello", "tenant": "acme",
        "session": "run-7", "predicate": "at-least-one:up"}
    C: {"format": "repro-events/1", "proc_names": [...], "start": [...]}
    C: {"t": "ev", "p": 0, "u": {"up": false}}          # ... the stream
    C: <EOF>
    S: {"e": "open",    ...}                            # pushed as they fire
    S: {"e": "witness", "status": "found", "cut": [1,2], ...}
    S: {"e": "final",   "witness": [1,2], "definitely": true, ...}
    S: {"e": "closed",  ...}

A ``{"t": "subscribe", "tenant": "acme"}`` hello instead attaches the
connection as a read-only subscriber to every verdict event of that
tenant.

**Backpressure.**  Each session holds ``max_buffered_events`` credits;
forwarding a line spends one, a worker ack refunds what it applied.  When
a stream outruns its detector the configured slow-consumer policy
engages: ``pause`` stops reading the socket until credits return (TCP
pushback propagates to the producer), ``shed`` tail-drops everything
after the budget and marks the final verdict degraded, ``disconnect``
cuts the connection after an error event.  Policies are per-server,
quotas per-tenant; one tenant tripping its policy never touches another
tenant's session (pinned by tests/serve/test_backpressure.py).

**Session end.**  A session ends when its outcome is known: the final
verdict, or the error that failed it (a worker's, or the supervisor's
``worker-crash``).  ``closed`` follows at once.  A session whose header
never reached a worker has nothing to finalize and ends immediately.

**Drain.**  ``drain()`` stops the listeners and cancels readers.  A
durable session that has not received its end marker is parked on disk
for the next start, not finalized.  Every other session has its
buffered lines flushed and ends as above, so its final verdict still
reaches its connection and subscribers.  Then the worker pool stops and
its metrics merge into the live registry.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.serve.durability import (
    Checkpoint,
    DurabilityManager,
    FsyncPolicy,
    RecoveredSession,
    SessionDurability,
    WalCorruptError,
    session_dir,
)
from repro.serve.protocol import (
    dumps_event,
    durable_event,
    event_closed,
    event_error,
    resume_event,
)
from repro.serve.registry import (
    QuotaExceededError,
    SessionRegistry,
    SessionState,
    TenantQuota,
)
from repro.serve.session import session_key
from repro.serve.workers import make_pool

__all__ = ["ServeConfig", "ReproServer", "SERVE_FORMAT"]

SERVE_FORMAT = "repro-serve/1"
#: readline() limit: one stream record per line, generously capped
_LINE_LIMIT = 1 << 20

_CONNS = METRICS.counter("serve.connections")
_LINES = METRICS.counter("serve.lines_read")
_SHED = METRICS.counter("serve.shed_records")
_DISCONNECTS = METRICS.counter("serve.disconnects")
_PAUSES = METRICS.counter("serve.pauses")
_ACK_LAT = METRICS.histogram("serve.ack_latency")
_VERDICT_LAT = METRICS.histogram("serve.verdict_latency")


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` needs to run (see ``docs/SERVING.md``)."""

    tcp: Optional[Tuple[str, int]] = None
    unix: Optional[str] = None
    #: detection worker processes; 0 = inline (detection on the loop thread)
    workers: int = 2
    #: slow-consumer policy: ``pause`` | ``shed`` | ``disconnect``
    policy: str = "pause"
    quota: TenantQuota = field(default_factory=TenantQuota)
    tenant_quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    #: per-tenant session opts (e.g. ``{"slow": {"delay_per_record": 0.01}}``)
    tenant_opts: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: lines per worker batch (flush threshold)
    batch: int = 64
    #: seconds to wait for a session's outcome; bounds only a wedged worker
    #: that no supervisor fails (a live worker or the supervisor answers)
    drain_timeout: float = 30.0
    #: durability root directory; ``None`` = in-memory serving (PR 6 shape)
    durable_dir: Optional[str] = None
    #: commit-chain trace storage directory (``--store sqlite:DIR``);
    #: ``None`` = per-session stores stay in memory
    store_dir: Optional[str] = None
    #: run a per-session :class:`StreamingLinter` and interleave
    #: ``repro-findings/1`` events with the verdict stream
    lint: bool = False
    #: WAL fsync policy: ``always`` | ``batch`` | ``never``
    fsync: str = FsyncPolicy.BATCH
    #: checkpoint a durable session every this many forwarded lines
    checkpoint_every: int = 256
    #: supervise worker processes (restart dead shards); ProcessPool only
    supervise: bool = True
    #: seconds between supervisor heartbeats
    heartbeat_interval: float = 0.5
    #: a worker this stale on pongs (with a live process) is hung
    heartbeat_timeout: float = 10.0
    #: worker restarts per shard before its sessions move to another shard
    restart_budget: int = 3
    #: base / cap for the supervisor's exponential restart backoff
    restart_backoff: float = 0.05
    restart_backoff_max: float = 2.0

    def __post_init__(self):
        if self.policy not in ("pause", "shed", "disconnect"):
            raise ValueError(f"unknown slow-consumer policy {self.policy!r}")
        if self.batch <= 0:
            raise ValueError("batch must be positive")
        FsyncPolicy.validate(self.fsync)
        if self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")


class _Entry:
    """Loop-thread state for one admitted session."""

    __slots__ = (
        "state", "writer", "credit", "outcome", "error",
        "buffer", "lineno", "last_flush", "finalizing",
        # durable-session state
        "durable", "dur", "accepted", "wal_seq", "last_ckpt", "events_log",
        "header", "opts", "predicate", "parked", "ended", "opened",
        "restoring",
    )

    def __init__(self, state: SessionState, loop: asyncio.AbstractEventLoop,
                 writer: Optional[asyncio.StreamWriter] = None):
        self.state = state
        self.writer = writer
        self.credit = asyncio.Event()
        self.credit.set()
        #: the final verdict, the error that failed the session, or
        #: ``None`` when no worker ever held it
        self.outcome: asyncio.Future = loop.create_future()
        self.error: Optional[Dict[str, Any]] = None
        self.buffer: List[str] = []
        self.lineno = 1  # header consumed the first line
        self.last_flush = time.perf_counter()
        self.finalizing = False
        self.durable = False
        self.dur: Optional[SessionDurability] = None
        self.accepted = 0   # non-empty stream lines accepted (dedup seq)
        self.wal_seq = 0    # lines appended to the WAL (durable watermark)
        self.last_ckpt = 0  # wal_seq when the last checkpoint was requested
        self.events_log: List[Dict[str, Any]] = []  # published public events
        self.header: Optional[Dict[str, Any]] = None
        self.opts: Dict[str, Any] = {}
        self.predicate: Optional[str] = None
        self.parked = False     # disconnected mid-stream, awaiting resume
        self.ended = False      # clean end-of-stream marker seen
        self.opened = False     # header reached the worker
        self.restoring = False  # a restore op is in flight for this session

    @property
    def resumable(self) -> bool:
        """A durable session a worker holds whose end marker has not
        arrived: drain parks it on disk for a client to resume."""
        return (self.durable and self.opened and not self.ended
                and self.error is None)


class ReproServer:
    """The long-running multi-tenant online detection service."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.registry = SessionRegistry(config.quota, config.tenant_quotas)
        self.pool = make_pool(config.workers)
        self.durability: Optional[DurabilityManager] = (
            DurabilityManager(config.durable_dir, fsync=config.fsync)
            if config.durable_dir else None
        )
        self.supervisor = None  # set in start() for supervised pools
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._servers: List[asyncio.base_events.Server] = []
        self._entries: Dict[str, _Entry] = {}
        self._conn_tasks: set = set()
        self._supervisor_task: Optional[asyncio.Task] = None
        self._draining = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.pool.set_sink(self._sink)
        self.pool.start()
        if self.durability is not None:
            self._recover_from_disk()
        if self.config.supervise and self.config.workers > 0:
            from repro.serve.supervisor import WorkerSupervisor

            self.supervisor = WorkerSupervisor(self)
            self._supervisor_task = asyncio.ensure_future(
                self.supervisor.run()
            )
        if self.config.tcp is not None:
            host, port = self.config.tcp
            self._servers.append(await asyncio.start_server(
                self._handle_conn, host=host, port=port, limit=_LINE_LIMIT
            ))
        if self.config.unix is not None:
            self._servers.append(await asyncio.start_unix_server(
                self._handle_conn, path=self.config.unix, limit=_LINE_LIMIT
            ))

    def _recover_from_disk(self) -> None:
        """Resurrect every session the durability root holds: park it,
        rebuild its worker state from checkpoint + WAL tail, and (for
        cleanly-ended streams) finalize.  Clients resume against the
        parked entries with their ``have_events`` watermarks.  Sessions
        that cannot be admitted (smaller quotas after a restart) stay on
        disk untouched; a later durable hello for the same key recovers
        or discards them (:meth:`_resurrect_leftover`) rather than
        opening a fresh session next to the stale state."""
        for rec in self.durability.recover_all():
            if rec.opts.get("predicate") is None:
                self.durability.discard(rec.tenant, rec.session)
                continue
            try:
                self._resurrect(rec)
            except QuotaExceededError:  # smaller quotas after restart
                continue

    def _resurrect(self, rec: RecoveredSession) -> _Entry:
        """Re-admit one recovered session as a parked entry and queue the
        worker-side rebuild.  The caller has checked ``rec`` carries a
        predicate; raises :class:`QuotaExceededError` when the tenant
        has no room for the session."""
        predicate = rec.opts["predicate"]
        entry = self._admit(rec.tenant, rec.session, writer=None)
        key = entry.state.key
        entry.durable = True
        entry.parked = True
        entry.opened = True
        entry.ended = rec.ended
        entry.header = rec.header
        entry.predicate = predicate
        entry.opts = {k: v for k, v in rec.opts.items()
                      if k != "predicate"}
        entry.accepted = entry.wal_seq = rec.seq
        entry.last_ckpt = rec.checkpoint.seq if rec.checkpoint else 0
        entry.events_log = (list(rec.checkpoint.events)
                            if rec.checkpoint else [])
        entry.restoring = True
        entry.dur = self.durability.open_session(
            rec.tenant, rec.session, gen=rec.gen
        )
        self.pool.restore(
            key, rec.tenant, rec.session, rec.header, predicate,
            entry.opts,
            rec.checkpoint.snapshot if rec.checkpoint else None,
            [line for _, line in rec.records],
            len(entry.events_log),
        )
        final = next((ev for ev in entry.events_log
                      if ev.get("e") == "final"), None)
        if final is not None:
            entry.outcome.set_result(final)
        elif rec.ended:
            self._finalize(key, entry)
        return entry

    def _resurrect_leftover(self, tenant: str, session: str
                            ) -> Optional[_Entry]:
        """A fresh durable hello may target a session whose on-disk
        state survived a restart without being resurrected at start()
        (admission failed under a tighter quota).  Recover it now --
        resuming is what the durable client expects -- or, when the
        leftovers are unusable (damaged at rest, no predicate), discard
        them, so the fresh open never appends gen-0 records next to a
        stale checkpoint.  Raises :class:`QuotaExceededError` when the
        state is recoverable but the tenant still has no room."""
        sdir = session_dir(self.durability.root, tenant, session)
        if not os.path.isdir(sdir):
            return None
        try:
            rec = self.durability.recover_session(sdir)
        except WalCorruptError:
            rec = None
        if rec is None or rec.opts.get("predicate") is None:
            self.durability.discard(tenant, session)
            return None
        # recover_session falls back to sanitised directory names when no
        # checkpoint survived; the hello's names are authoritative here
        rec.tenant, rec.session = tenant, session
        return self._resurrect(rec)

    @property
    def endpoints(self) -> List[str]:
        out = []
        for srv in self._servers:
            for sock in srv.sockets:
                out.append(str(sock.getsockname()))
        return out

    async def drain(self) -> Dict[str, Any]:
        """Graceful shutdown; returns the registry's final stats.

        A durable session that has not received its end marker is
        parked, *not* finalized: its WAL + checkpoint stay on disk and
        the next server start recovers it, so a restart in the middle of
        a client outage loses nothing.  (One whose header never arrived
        holds nothing yet and is discarded.)  Every other session is
        flushed and ends on its outcome (:meth:`_end`).
        """
        self._draining = True
        if self._supervisor_task is not None:
            self._supervisor_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._supervisor_task
            self._supervisor_task = None
        for srv in self._servers:
            srv.close()
        for srv in self._servers:
            await srv.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        # end whatever is still admitted (readers are gone; buffers may
        # still hold un-forwarded lines)
        ending = []
        for key, entry in list(self._entries.items()):
            if entry.resumable:
                continue  # preserved on disk for the next start
            if not entry.finalizing and entry.error is None:
                self._flush(key, entry, force=True)
                if entry.buffer:  # credits spent: drop + mark degraded
                    _SHED.inc(len(entry.buffer))
                    entry.state.shed += len(entry.buffer)
                    entry.buffer.clear()
            ending.append(self._end(key, entry))
        await asyncio.gather(*ending)
        stats = self.registry.stats()
        for key, entry in list(self._entries.items()):
            if entry.resumable:
                self._flush_wal_tail(entry)
                self._close_entry(key, entry, destroy_durable=False)
                continue
            self._publish(entry, event_closed(entry.state.tenant,
                                              entry.state.session,
                                              entry.state.acked))
            self._close_entry(key, entry)
        loop = self._loop or asyncio.get_running_loop()
        await loop.run_in_executor(None, self.pool.stop)
        return stats

    # -- worker events (loop thread) -----------------------------------------

    def _sink(self, key: str, events: List[Dict[str, Any]]) -> None:
        """Pool sink; may fire on a drain thread -> hop to the loop."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            self._dispatch(key, events)
        else:
            loop.call_soon_threadsafe(self._dispatch, key, events)

    def _dispatch(self, key: str, events: List[Dict[str, Any]]) -> None:
        entry = self._entries.get(key)
        if entry is None:
            return
        now = time.perf_counter()
        for ev in events:
            kind = ev.get("e")
            if kind == "_ack":
                applied = int(ev.get("applied", 0))
                entry.state.acked += applied
                entry.state.credits += applied
                _ACK_LAT.observe(now - entry.last_flush)
                METRICS.gauge(
                    f"serve.tenant.{entry.state.tenant}.queue_depth"
                ).set(entry.state.outstanding)
                entry.credit.set()
                continue
            if kind == "_ckpt":
                self._commit_checkpoint(entry, ev)
                continue
            if kind == "_restored":
                # the worker rebuilt this session: reset flow control to
                # a clean slate (outstanding feeds were replayed from WAL)
                entry.state.submitted = entry.state.acked = int(ev["seq"])
                entry.state.credits = entry.state.quota.max_buffered_events
                entry.restoring = False
                entry.credit.set()
                continue
            if kind in ("witness", "final"):
                _VERDICT_LAT.observe(now - entry.last_flush)
            if entry.durable:
                entry.events_log.append(ev)
            if kind == "error":
                self._fail(entry, ev)
                continue
            self._publish(entry, ev)
            if kind == "final" and not entry.outcome.done():
                entry.outcome.set_result(ev)

    def _fail(self, entry: _Entry, ev: Dict[str, Any]) -> None:
        """The session failed with error event ``ev``: publish it, wake a
        paused reader so it can bail, and resolve the outcome."""
        entry.error = ev
        self._publish(entry, ev)
        entry.credit.set()
        if not entry.outcome.done():
            entry.outcome.set_result(ev)

    def _commit_checkpoint(self, entry: _Entry, ev: Dict[str, Any]) -> None:
        """A worker shipped a ``_ckpt`` snapshot: publish it atomically
        and truncate the WAL behind it (loop thread; the file work is a
        bounded, checkpoint-interval-amortised pause)."""
        if entry.dur is None:
            return
        state = entry.state
        opts = dict(entry.opts)
        opts["predicate"] = entry.predicate
        entry.dur.commit_checkpoint(Checkpoint(
            tenant=state.tenant, session=state.session,
            seq=int(ev["seq"]), gen=0,  # commit_checkpoint stamps the gen
            header=entry.header or {}, snapshot=ev["snapshot"], opts=opts,
        ))

    def _publish(self, entry: _Entry, event: Dict[str, Any]) -> None:
        line = (dumps_event(event) + "\n").encode()
        if entry.writer is not None:
            with contextlib.suppress(Exception):
                entry.writer.write(line)
        self.registry.publish(entry.state.tenant, event)

    # -- feeding helpers (loop thread) ---------------------------------------

    def _admit(self, tenant: str, session: str,
               writer: Optional[asyncio.StreamWriter]) -> _Entry:
        key = session_key(tenant, session)
        shard = self.pool.shard_of(key)
        state = self.registry.open(tenant, session, shard)  # may raise
        entry = _Entry(state, self._loop, writer=writer)
        self._entries[key] = entry
        return entry

    def _session_opts(self, tenant: str) -> Dict[str, Any]:
        opts = dict(self.config.tenant_opts.get(tenant, ()))
        opts.setdefault("max_store_states",
                        self.registry.quota(tenant).max_store_states)
        opts.setdefault("lint", self.config.lint)
        if self.config.store_dir is not None:
            opts.setdefault("store_dir", self.config.store_dir)
        return opts

    def _flush(self, key: str, entry: _Entry, *, force: bool = False) -> None:
        """Forward buffered lines within the credit budget (shed/disconnect
        overflow handling); ``force`` ignores the batch threshold."""
        state = entry.state
        if entry.restoring:
            # the worker is rebuilding this session from checkpoint + WAL:
            # hold feeds until ``_restored`` re-establishes flow control,
            # or their later acks would refund credits into a window the
            # restore already reset to full (blowing past the quota)
            return
        if not entry.buffer:
            return
        if not force and len(entry.buffer) < self.config.batch:
            return
        if state.tripped and self.config.policy in ("shed", "disconnect"):
            _SHED.inc(len(entry.buffer))
            state.shed += len(entry.buffer)
            entry.buffer.clear()
            return
        sendable = min(len(entry.buffer), state.credits)
        if sendable:
            chunk, entry.buffer = entry.buffer[:sendable], entry.buffer[sendable:]
            state.credits -= len(chunk)
            state.submitted += len(chunk)
            entry.last_flush = time.perf_counter()
            if state.credits <= 0:
                entry.credit.clear()
            if entry.dur is not None:
                # log-before-feed: the WAL must cover everything a worker
                # may have applied, or recovery could lose acked effects
                entry.dur.log_record(entry.wal_seq + 1, chunk)
                entry.wal_seq += len(chunk)
                if entry.writer is not None:
                    with contextlib.suppress(Exception):
                        entry.writer.write(
                            (dumps_event(durable_event(entry.wal_seq))
                             + "\n").encode()
                        )
            self.pool.feed(key, chunk, entry.lineno - len(entry.buffer)
                           - len(chunk) + 1)
            if (entry.dur is not None
                    and entry.wal_seq - entry.last_ckpt
                    >= self.config.checkpoint_every):
                entry.last_ckpt = entry.wal_seq
                self.pool.checkpoint(key, entry.wal_seq)
        if entry.buffer and self.config.policy == "shed":
            # over budget: tail-shed from here on
            if not state.tripped:
                state.tripped = True
            _SHED.inc(len(entry.buffer))
            state.shed += len(entry.buffer)
            entry.buffer.clear()

    def _finalize(self, key: str, entry: _Entry) -> None:
        """Ask the worker for the final verdict; a session no worker holds
        has nothing to finalize, so its outcome is known at once."""
        entry.finalizing = True
        if entry.opened:
            self.pool.finalize(key, shed=entry.state.shed)
        elif not entry.outcome.done():
            entry.outcome.set_result(None)

    async def _end(self, key: str, entry: _Entry) -> Optional[Dict[str, Any]]:
        """Finalize ``entry`` unless it is already ending, and wait for its
        outcome.  A live worker answers and the supervisor fails the
        session of a dead or hung one, so ``drain_timeout`` only bounds a
        wedged worker nobody supervises (``None`` then)."""
        if not entry.finalizing and not entry.outcome.done():
            self._finalize(key, entry)
        with contextlib.suppress(asyncio.TimeoutError):
            return await asyncio.wait_for(asyncio.shield(entry.outcome),
                                          timeout=self.config.drain_timeout)
        return None

    def _close_entry(self, key: str, entry: _Entry, *,
                     destroy_durable: bool = True) -> None:
        self._entries.pop(key, None)
        self.registry.close(key)
        self.pool.close_session(key)
        self.pool.unpin(key)
        if entry.dur is not None:
            if destroy_durable:
                entry.dur.destroy()
            else:
                entry.dur.close()
        if entry.writer is not None:
            with contextlib.suppress(Exception):
                entry.writer.close()

    # -- connections ---------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        _CONNS.inc()
        try:
            await self._serve_conn(reader, writer)
        except asyncio.CancelledError:
            pass  # drain() owns session finalisation now
        except Exception:
            with contextlib.suppress(Exception):
                writer.close()
            raise
        finally:
            self._conn_tasks.discard(task)

    async def _serve_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        def refuse(code: str, message: str) -> None:
            ev = event_error("?", "?", 0, code, message)
            writer.write((dumps_event(ev) + "\n").encode())

        raw = await reader.readline()
        try:
            hello = json.loads(raw.decode() or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError):
            hello = None
        if not isinstance(hello, dict) or hello.get("format") != SERVE_FORMAT:
            refuse("protocol", f"expected a {SERVE_FORMAT!r} hello line")
            await _drain_close(writer)
            return
        kind = hello.get("t", "hello")
        tenant = str(hello.get("tenant") or "default")
        if kind == "subscribe":
            await self._serve_subscriber(reader, writer, tenant)
            return
        if kind != "hello":
            refuse("protocol", f"unknown hello type {kind!r}")
            await _drain_close(writer)
            return
        session = str(hello.get("session") or f"conn-{id(writer):x}")
        predicate = hello.get("predicate")
        if not predicate:
            refuse("protocol", "hello needs a 'predicate' spec")
            await _drain_close(writer)
            return
        if hello.get("durable"):
            if self.durability is None:
                refuse("protocol",
                       "this server has no durability root (start it with "
                       "--durable to accept durable streams)")
                await _drain_close(writer)
                return
            await self._serve_durable_conn(
                reader, writer, tenant, session, str(predicate),
                int(hello.get("have_events", 0) or 0),
            )
            return
        try:
            entry = self._admit(tenant, session, writer)
        except QuotaExceededError as exc:
            ev = event_error(tenant, session, 0, "quota", str(exc))
            writer.write((dumps_event(ev) + "\n").encode())
            await _drain_close(writer)
            return
        key = entry.state.key
        with TRACER.span("serve.session", tenant=tenant, session=session):
            try:
                await self._serve_stream(reader, entry, predicate)
            finally:
                if not self._draining:
                    self._publish(entry, event_closed(tenant, session,
                                                      entry.state.acked))
                    with contextlib.suppress(Exception):
                        await writer.drain()
                    self._close_entry(key, entry)

    async def _serve_stream(self, reader: asyncio.StreamReader,
                            entry: _Entry, predicate: str) -> None:
        key = entry.state.key
        header_raw = await reader.readline()
        try:
            header = json.loads(header_raw.decode())
            if not isinstance(header, dict):
                raise ValueError("header is not an object")
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
            self._fail(entry, event_error(
                entry.state.tenant, entry.state.session, 0, "protocol",
                f"expected a repro-events/1 header line ({exc})",
            ))
            return
        self.pool.open_session(key, entry.state.tenant, entry.state.session,
                               header, predicate,
                               self._session_opts(entry.state.tenant))
        entry.opened = True
        try:
            while entry.error is None:
                raw = await reader.readline()
                if raw == b"":
                    break
                _LINES.inc()
                entry.lineno += 1
                line = raw.decode().strip()
                if not line:
                    continue
                entry.buffer.append(line)
                await self._apply_policy(key, entry)
        except _Disconnect:
            pass  # the error event is out; the final covers the applied prefix
        await self._drain_buffer(key, entry)
        await self._end(key, entry)

    # -- durable connections -------------------------------------------------

    def _write_event(self, writer: asyncio.StreamWriter,
                     event: Dict[str, Any]) -> None:
        with contextlib.suppress(Exception):
            writer.write((dumps_event(event) + "\n").encode())

    def _flush_wal_tail(self, entry: _Entry) -> None:
        """Preserve buffered-but-unforwarded lines in the WAL (drain is
        parking this session on disk; the client may never resend them)."""
        if entry.dur is None:
            return
        if entry.buffer:
            entry.dur.log_record(entry.wal_seq + 1, entry.buffer)
            entry.wal_seq += len(entry.buffer)
            entry.buffer.clear()
        entry.dur.flush()

    def _park(self, entry: _Entry) -> None:
        """The connection died mid-stream: keep everything (registry
        session, worker state, WAL) and wait for a resume."""
        entry.parked = True
        if entry.writer is not None:
            with contextlib.suppress(Exception):
                entry.writer.close()
            entry.writer = None
        if entry.dur is not None:
            entry.dur.flush()

    async def _serve_durable_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        tenant: str, session: str, predicate: str, have_events: int,
    ) -> None:
        """A ``durable: true`` hello: fresh open or resume of a parked
        session.  The wire protocol differs from plain streams: records
        arrive framed (``{"t":"rec","q":N,"line":...}``) so loss, dup-
        lication and reordering are *detected* -- duplicates are dropped
        idempotently, gaps park the session and the client re-syncs from
        the server's watermark on the next connect."""
        key = session_key(tenant, session)
        entry = self._entries.get(key)
        if entry is not None:
            if not entry.parked or not entry.durable:
                self._write_event(writer, event_error(
                    tenant, session, 0, "quota",
                    f"session {key!r} is already open (one live stream "
                    f"per session id)",
                ))
                await _drain_close(writer)
                return
            entry.parked = False
            entry.writer = writer
        else:
            try:
                entry = self._resurrect_leftover(tenant, session)
                if entry is None:
                    entry = self._admit(tenant, session, writer)
                    entry.durable = True
                    entry.predicate = predicate
                    entry.opts = self._session_opts(tenant)
                    entry.dur = self.durability.open_session(tenant, session)
                else:
                    entry.parked = False
                    entry.writer = writer
            except QuotaExceededError as exc:
                self._write_event(writer, event_error(
                    tenant, session, 0, "quota", str(exc)))
                await _drain_close(writer)
                return
        # handshake: our watermark, then every event the client has missed
        self._write_event(writer, resume_event(entry.accepted,
                                               len(entry.events_log)))
        for ev in entry.events_log[max(0, have_events):]:
            self._write_event(writer, ev)
        with TRACER.span("serve.session.durable", tenant=tenant,
                         session=session):
            parked = await self._serve_durable_stream(reader, entry)
        if self._draining:
            return
        if parked:
            self._park(entry)
            return
        # the outcome is known: the session is over for good
        self._publish(entry, event_closed(tenant, session,
                                          entry.state.acked))
        with contextlib.suppress(Exception):
            await writer.drain()
        self._close_entry(key, entry)

    async def _serve_durable_stream(self, reader: asyncio.StreamReader,
                                    entry: _Entry) -> bool:
        """Read framed records until end-of-stream and wait for the
        session's outcome; ``True`` means the session parks instead
        (connection lost / protocol violation -- resume expected)."""
        key = entry.state.key
        try:
            if not entry.ended:
                if await self._read_durable_frames(reader, entry):
                    return True
        except (ConnectionResetError, BrokenPipeError, OSError):
            return True
        except _Disconnect:
            pass  # the error event is out; the final covers the applied prefix
        else:
            await self._drain_buffer(key, entry)
            if entry.dur is not None and not entry.outcome.done():
                entry.dur.log_end()
        await self._end(key, entry)
        return False

    async def _read_durable_frames(self, reader: asyncio.StreamReader,
                                   entry: _Entry) -> bool:
        """The framed read loop; ``True`` means park (re-sync needed)."""
        key = entry.state.key
        state = entry.state
        while True:
            if entry.error is not None:
                return False
            raw = await reader.readline()
            if raw == b"":
                return True  # no end marker: abnormal EOF
            _LINES.inc()
            try:
                obj = json.loads(raw.decode())
            except (json.JSONDecodeError, UnicodeDecodeError):
                return True  # torn frame
            if not isinstance(obj, dict):
                return True
            t = obj.get("t")
            if t == "hdr":
                if entry.opened:
                    continue  # duplicate header after a re-sync race
                try:
                    header = json.loads(obj.get("line", ""))
                    if not isinstance(header, dict):
                        raise ValueError("header is not an object")
                except (json.JSONDecodeError, ValueError) as exc:
                    self._fail(entry, event_error(
                        state.tenant, state.session, 0, "protocol",
                        f"bad durable stream header ({exc})",
                    ))
                    return False
                entry.header = header
                entry.dur.log_header(
                    header, {**entry.opts, "predicate": entry.predicate}
                )
                self.pool.open_session(key, state.tenant, state.session,
                                       header, entry.predicate, entry.opts)
                entry.opened = True
            elif t == "rec":
                q, line = obj.get("q"), obj.get("line")
                if (not isinstance(q, int) or not isinstance(line, str)
                        or not entry.opened):
                    return True
                if q <= entry.accepted:
                    continue  # idempotent dedup of a retransmitted record
                if q != entry.accepted + 1:
                    return True  # gap: loss/reorder upstream; re-sync
                line = line.strip()
                if not line:
                    return True  # framed empty line: protocol violation
                entry.accepted += 1
                entry.lineno += 1
                entry.buffer.append(line)
                await self._apply_policy(key, entry)
            elif t == "end":
                entry.ended = True
                return False
            else:
                return True

    async def _drain_buffer(self, key: str, entry: _Entry) -> None:
        """End of stream: push every remaining buffered line to the worker,
        waiting for credits when the budget is spent (the shed policy
        instead clears the buffer inside the forced flush)."""
        while entry.error is None:
            self._flush(key, entry, force=True)
            if not entry.buffer:
                return
            entry.credit.clear()
            await entry.credit.wait()

    async def _apply_policy(self, key: str, entry: _Entry) -> None:
        """Flush the buffer; when credits run dry, do what the policy says."""
        state = entry.state
        while entry.restoring and entry.error is None:
            # feeding is gated during a worker-side rebuild (see _flush);
            # park the reader here so the buffer stays bounded until the
            # worker's ``_restored`` (or a failure) wakes it
            entry.credit.clear()
            await entry.credit.wait()
        self._flush(key, entry)
        if not entry.buffer or len(entry.buffer) < self.config.batch:
            return
        # buffer is at the batch threshold and credits are exhausted
        if self.config.policy == "pause":
            _PAUSES.inc()
            while state.credits <= 0 and entry.error is None:
                entry.credit.clear()
                await entry.credit.wait()
            self._flush(key, entry, force=True)
        elif self.config.policy == "shed":
            self._flush(key, entry, force=True)  # trips + sheds the tail
        else:  # disconnect
            state.tripped = True
            _DISCONNECTS.inc()
            dropped = len(entry.buffer)
            state.shed += dropped
            entry.buffer.clear()
            _SHED.inc(dropped)
            self._publish(entry, event_error(
                state.tenant, state.session, state.acked, "slow-consumer",
                f"stream outran detection by more than "
                f"{state.quota.max_buffered_events} buffered event(s); "
                f"disconnecting (verdict will cover the applied prefix)",
            ))
            raise _Disconnect()

    async def _serve_subscriber(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter,
                                tenant: str) -> None:
        def push(event: Dict[str, Any]) -> None:
            with contextlib.suppress(Exception):
                writer.write((dumps_event(event) + "\n").encode())

        self.registry.subscribe(tenant, push)
        try:
            while True:  # subscribers only ever half-close
                raw = await reader.readline()
                if raw == b"":
                    break
        finally:
            self.registry.unsubscribe(tenant, push)
            with contextlib.suppress(Exception):
                writer.close()


class _Disconnect(Exception):
    """Internal: the disconnect policy cut a stream connection."""


async def _drain_close(writer: asyncio.StreamWriter) -> None:
    with contextlib.suppress(Exception):
        await writer.drain()
        writer.close()


async def run_server(config: ServeConfig,
                     stop: Optional[asyncio.Event] = None
                     ) -> Dict[str, Any]:
    """Start a server, run until ``stop`` is set (or forever), then drain."""
    server = ReproServer(config)
    await server.start()
    try:
        if stop is None:
            stop = asyncio.Event()
        await stop.wait()
    finally:
        stats = await server.drain()
    return stats
