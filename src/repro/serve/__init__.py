"""Online detection as a service (``repro serve`` / ``repro tail``).

The serving subsystem turns the PR 4/5 streaming substrate -- per-stream
:class:`~repro.store.TraceStore` + incremental conjunctive detection --
into a long-running multi-tenant server: many concurrent
``repro-events/1`` streams over TCP/unix sockets, each multiplexed into
its own detection session on a sharded worker pool, with per-tenant
quotas, credit-based backpressure, and live ``repro-verdicts/1`` push to
subscribers.  See ``docs/SERVING.md``.

Layers (each its own module, importable without starting a server):

:mod:`~repro.serve.protocol`
    The ``repro-verdicts/1`` event schema, its single serializer, and
    the :class:`VerdictTracker` turning polls into witness events.
:mod:`~repro.serve.session`
    One stream's detection state (store + incremental detector); also
    what ``repro watch`` runs inline over a file.
:mod:`~repro.serve.registry`
    Tenant quotas, admission control, subscriber fan-out.
:mod:`~repro.serve.workers`
    The sharded CPU plane: inline or multiprocessing detector pools.
:mod:`~repro.serve.server`
    The asyncio I/O plane: listeners, backpressure policies, drain.
:mod:`~repro.serve.client`
    Dial/stream/subscribe helpers (the only client implementation).
:mod:`~repro.serve.durability`
    Per-session write-ahead log + checkpoints (crash-safe sessions).
:mod:`~repro.serve.supervisor`
    Worker heartbeats, restart-with-backoff, checkpoint replay.
:mod:`~repro.serve.faulty`
    Deterministic transport-level fault injection for chaos tests.
"""

from repro.serve.client import (
    Backoff,
    StreamLostError,
    open_connection,
    parse_connect,
    stream_events,
    stream_events_durable,
    subscribe,
)
from repro.serve.faulty import FaultyTransport
from repro.serve.durability import (
    Checkpoint,
    DurabilityManager,
    FsyncPolicy,
    SessionDurability,
    SessionWal,
    WalCorruptError,
)
from repro.serve.protocol import (
    VERDICT_FORMAT,
    VerdictTracker,
    describe_event,
    dumps_event,
    events_to_lines,
    is_internal,
)
from repro.serve.registry import (
    QuotaExceededError,
    SessionRegistry,
    SessionState,
    TenantQuota,
)
from repro.serve.server import SERVE_FORMAT, ReproServer, ServeConfig, run_server
from repro.serve.session import DetectionSession, session_key
from repro.serve.supervisor import WorkerSupervisor
from repro.serve.workers import DetectorPool, InlinePool, ProcessPool, make_pool

__all__ = [
    "VERDICT_FORMAT",
    "SERVE_FORMAT",
    "VerdictTracker",
    "describe_event",
    "dumps_event",
    "events_to_lines",
    "is_internal",
    "DetectionSession",
    "session_key",
    "TenantQuota",
    "QuotaExceededError",
    "SessionRegistry",
    "SessionState",
    "DetectorPool",
    "InlinePool",
    "ProcessPool",
    "make_pool",
    "ServeConfig",
    "ReproServer",
    "run_server",
    "parse_connect",
    "open_connection",
    "stream_events",
    "stream_events_durable",
    "subscribe",
    "Backoff",
    "StreamLostError",
    "FsyncPolicy",
    "WalCorruptError",
    "SessionWal",
    "Checkpoint",
    "SessionDurability",
    "DurabilityManager",
    "WorkerSupervisor",
    "FaultyTransport",
]
