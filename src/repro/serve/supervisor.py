"""Worker supervision: keep the CPU plane alive under shard crashes.

The sharded :class:`~repro.serve.workers.ProcessPool` gives each shard
its own process; a shard dying (clean exit, ``kill -9``, a wedged loop)
previously took every pinned session's :class:`TraceStore` + detector
with it.  The supervisor closes that hole:

* **Detection.**  Every ``heartbeat_interval`` the supervisor pings each
  shard and checks ``Process.is_alive()``.  A dead process is detected
  within one beat; a live-but-unresponsive process (no pong for
  ``heartbeat_timeout`` while feeds are pending) is declared hung and
  terminated.
* **Restart.**  Dead shards restart with exponential backoff plus
  jitter (``restart_backoff * 2**attempt``, capped, ±25%), so a shard
  that dies on arrival cannot hot-loop the parent.
* **Replay.**  After a restart, every *durable* session owned by the
  shard is rebuilt from its last checkpoint plus the WAL tail
  (the server logs lines before forwarding them, so the WAL covers
  everything the dead worker may have applied -- including batches that
  died in its input queue).  Replay regenerates the session's public
  events deterministically; events the server already published are
  suppressed by count, so surviving subscribers and parked clients see
  no duplicates and the total event sequence stays byte-identical to an
  uninterrupted run.  Non-durable sessions cannot be replayed and fail
  with a ``worker-crash`` error event covering the applied prefix.
* **Re-pinning.**  A shard that exhausts ``restart_budget`` restarts
  inside ``budget_window`` seconds is declared beyond saving: its
  sessions are re-pinned to the healthiest surviving shard (fewest
  sessions) and replayed there, and the dead shard is abandoned.

The supervisor is an asyncio task on the server's loop; all its session
bookkeeping runs on the loop thread, so it needs no locks (same
single-writer discipline as the rest of the control plane).
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.obs.metrics import METRICS
from repro.serve.durability import WalCorruptError
from repro.serve.protocol import event_error

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.server import ReproServer

__all__ = ["WorkerSupervisor"]

_DEAD = METRICS.counter("serve.supervisor.dead_workers")
_HUNG = METRICS.counter("serve.supervisor.hung_workers")
_REPINNED = METRICS.counter("serve.supervisor.repinned_sessions")
_LOST = METRICS.counter("serve.supervisor.lost_sessions")


class WorkerSupervisor:
    """Watches the worker pool and heals it (see module docstring)."""

    def __init__(self, server: "ReproServer"):
        self.server = server
        cfg = server.config
        self.heartbeat_interval = cfg.heartbeat_interval
        self.heartbeat_timeout = cfg.heartbeat_timeout
        self.restart_budget = cfg.restart_budget
        self.backoff_base = cfg.restart_backoff
        self.backoff_max = cfg.restart_backoff_max
        #: restarts per shard inside the current budget window
        self.restarts: Dict[int, int] = {}
        self._window_start: Dict[int, float] = {}
        self.budget_window = 60.0
        #: shards declared beyond saving (budget exhausted)
        self.abandoned: set = set()
        self._rng = random.Random(0xC0FFEE)
        self._started = 0.0

    # -- the watch loop ------------------------------------------------------

    async def run(self) -> None:
        pool = self.server.pool
        self._started = time.monotonic()
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            for idx in range(pool.workers):
                if idx in self.abandoned:
                    continue
                if not pool.worker_alive(idx):
                    _DEAD.inc()
                    await self._recover_shard(idx, reason="dead")
                elif self._hung(idx):
                    _HUNG.inc()
                    await self._recover_shard(idx, reason="hung")
            for idx in range(pool.workers):
                if idx not in self.abandoned:
                    pool.ping(idx)

    def _hung(self, idx: int) -> bool:
        """A live process that stopped answering pings for the timeout."""
        now = time.monotonic()
        if now - self._started < self.heartbeat_timeout:
            return False  # give the pool time to answer its first pings
        return now - self.server.pool.last_pong(idx) > self.heartbeat_timeout

    # -- recovery ------------------------------------------------------------

    def _owned_keys(self, idx: int) -> List[str]:
        return [key for key, entry in self.server._entries.items()
                if entry.state.shard == idx]

    def _pick_target(self, avoid: int) -> Optional[int]:
        """The healthiest surviving shard (fewest sessions), or ``None``."""
        pool = self.server.pool
        counts: Dict[int, int] = {
            i: 0 for i in range(pool.workers)
            if i != avoid and i not in self.abandoned
        }
        if not counts:
            return None
        for entry in self.server._entries.values():
            if entry.state.shard in counts:
                counts[entry.state.shard] += 1
        return min(counts, key=lambda i: (counts[i], i))

    async def _recover_shard(self, idx: int, reason: str) -> None:
        now = time.monotonic()
        if now - self._window_start.get(idx, 0.0) > self.budget_window:
            self._window_start[idx] = now
            self.restarts[idx] = 0
        self.restarts[idx] = self.restarts.get(idx, 0) + 1
        attempt = self.restarts[idx]
        target = idx
        if attempt > self.restart_budget:
            # beyond saving: move its sessions somewhere healthy
            self.abandoned.add(idx)
            target = self._pick_target(avoid=idx)
        else:
            delay = min(self.backoff_base * (2 ** (attempt - 1)),
                        self.backoff_max)
            delay *= 1.0 + 0.25 * (2.0 * self._rng.random() - 1.0)
            await asyncio.sleep(delay)
            self.server.pool.restart_worker(idx)
        for key in self._owned_keys(idx):
            self._recover_session(key, target, reason)

    def _recover_session(self, key: str, target: Optional[int],
                         reason: str) -> None:
        server = self.server
        entry = server._entries.get(key)
        if entry is None:
            return
        state = entry.state

        def lost(message: str) -> None:
            _LOST.inc()
            server._fail(entry, event_error(
                state.tenant, state.session, state.acked, "worker-crash",
                message))

        if not entry.durable or entry.dur is None or not entry.opened:
            # nothing on disk to replay from: the session is lost
            return lost(
                f"detection worker {reason}; session state was not durable "
                f"(start the server with --durable to survive this)")
        if target is None:
            return lost("no surviving worker shard to move the session to")
        if target != state.shard:
            server.pool.pin(key, target)
            state.shard = target
            _REPINNED.inc()
        # replay from disk: flush the WAL's userspace buffer first so the
        # read-back below sees every line the server ever forwarded
        entry.dur.wal.flush()
        try:
            rec = server.durability.recover_session(entry.dur.directory)
        except WalCorruptError:
            # damage at rest mid-file: fail the one session with a typed
            # error below instead of killing the supervisor task (which
            # would leave every OTHER shard unwatched)
            rec = None
        if rec is None:
            return lost("durable state unreadable after worker crash")
        entry.restoring = True
        server.pool.restore(
            key, state.tenant, state.session, entry.header,
            entry.predicate, entry.opts,
            rec.checkpoint.snapshot if rec.checkpoint else None,
            [line for _, line in rec.records],
            len(entry.events_log),
        )
        # feeds that died in the old worker's queue were replayed from the
        # WAL; a finalize that died with them must be re-issued
        if entry.finalizing and not entry.outcome.done():
            entry.finalizing = False
            server._finalize(key, entry)
