"""Worker supervision: kill -9 recovery, typed failure for non-durable
sessions, re-pinning after restart-budget exhaustion, and the shared
``Backoff`` schedule.

These run real worker subprocesses and really SIGKILL them, so the
timings are tuned tight (50ms heartbeats, 10ms restart backoff) to keep
the suite fast while still landing the kill mid-stream.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.serve import (
    Backoff,
    ReproServer,
    ServeConfig,
    TenantQuota,
    dumps_event,
    stream_events,
    stream_events_durable,
)

from .conftest import PREDICATE, assert_final_matches_batch, make_stream


def run(coro):
    return asyncio.run(coro)


def canon(events):
    return [dumps_event(e) for e in events if e.get("e") != "closed"]


def stream_doc(header, lines):
    return [dumps_event(header)] + list(lines)


async def start_server(**kw):
    cfg = ServeConfig(tcp=("127.0.0.1", 0), **kw)
    srv = ReproServer(cfg)
    await srv.start()
    port = srv._servers[0].sockets[0].getsockname()[1]
    return srv, f"127.0.0.1:{port}"


async def baseline(doc):
    srv, connect = await start_server(workers=0, supervise=False)
    evs = await stream_events(connect, "t", "s", PREDICATE, doc)
    await srv.drain()
    return evs


async def kill_session_shard(srv, *, after=0.05):
    """Wait for the session to land on a shard, let a few batches get
    applied, then SIGKILL that shard's worker process."""
    for _ in range(400):
        await asyncio.sleep(0.01)
        if srv._entries:
            break
    key = next(iter(srv._entries))
    shard = srv._entries[key].state.shard
    await asyncio.sleep(after)
    os.kill(srv.pool._procs[shard].pid, signal.SIGKILL)
    return shard


def test_kill9_worker_durable_session_recovers_identically(tmp_path):
    """The ISSUE's headline test: kill -9 a worker mid-stream; the
    supervisor restarts it, replays the WAL, and the client's verdicts
    are byte-identical to an undisturbed run."""
    dep, header, lines = make_stream(20, events_per_proc=14)
    doc = stream_doc(header, lines)

    async def body():
        base = await baseline(doc)
        srv, connect = await start_server(
            workers=2, supervise=True, durable_dir=str(tmp_path / "dur"),
            checkpoint_every=4, batch=2,
            heartbeat_interval=0.05, restart_backoff=0.01,
            tenant_opts={"t": {"delay_per_record": 0.01}})
        kill = asyncio.ensure_future(kill_session_shard(srv))
        evs = await stream_events_durable(
            connect, "t", "s", PREDICATE, doc,
            backoff=Backoff(base=0.01, max_retries=50, seed=3), timeout=30.0)
        shard = await kill
        restarts = dict(srv.supervisor.restarts)
        await srv.drain()
        return base, evs, shard, restarts

    base, evs, shard, restarts = run(body())
    assert canon(evs) == canon(base)
    assert restarts.get(shard, 0) >= 1  # the kill landed mid-stream
    assert_final_matches_batch(
        [e for e in evs if e.get("e") == "final"][-1], dep)


def test_kill9_worker_non_durable_session_fails_typed(tmp_path):
    """Without --durable there is nothing to replay: the session must
    fail fast with a typed ``worker-crash`` error event, not hang."""
    dep, header, lines = make_stream(21, events_per_proc=14)
    doc = stream_doc(header, lines)

    async def body():
        srv, connect = await start_server(
            workers=2, supervise=True, durable_dir=None,
            batch=2, heartbeat_interval=0.05, restart_backoff=0.01,
            tenant_opts={"t": {"delay_per_record": 0.01}})
        kill = asyncio.ensure_future(kill_session_shard(srv))
        t0 = time.perf_counter()
        evs = await stream_events(connect, "t", "s", PREDICATE, doc,
                                  timeout=30.0)
        elapsed = time.perf_counter() - t0
        await kill
        await srv.drain()
        return evs, elapsed

    evs, elapsed = run(body())
    # the error is the session's outcome: ``closed`` and EOF follow it at
    # once instead of after drain_timeout (30 s)
    assert elapsed < 5.0, f"stream_events took {elapsed:.2f}s"
    errors = [e for e in evs if e.get("e") == "error"]
    assert errors and errors[-1]["code"] == "worker-crash"
    assert "durable" in errors[-1]["message"]
    assert not any(e.get("e") == "final" for e in evs)


def test_budget_exhausted_shard_is_abandoned_and_repinned(tmp_path):
    """restart_budget=0 means the first crash already exceeds the
    budget: the shard must be abandoned and its durable session re-pinned
    to the surviving shard -- and still finish with correct verdicts."""
    dep, header, lines = make_stream(22, events_per_proc=14)
    doc = stream_doc(header, lines)

    async def body():
        base = await baseline(doc)
        srv, connect = await start_server(
            workers=2, supervise=True, durable_dir=str(tmp_path / "dur"),
            checkpoint_every=4, batch=2, restart_budget=0,
            heartbeat_interval=0.05, restart_backoff=0.01,
            tenant_opts={"t": {"delay_per_record": 0.01}})
        kill = asyncio.ensure_future(kill_session_shard(srv))
        evs = await stream_events_durable(
            connect, "t", "s", PREDICATE, doc,
            backoff=Backoff(base=0.01, max_retries=50, seed=5), timeout=30.0)
        shard = await kill
        abandoned = set(srv.supervisor.abandoned)
        new_shard = None
        if srv._entries:
            new_shard = next(iter(srv._entries.values())).state.shard
        await srv.drain()
        return base, evs, shard, abandoned, new_shard

    base, evs, shard, abandoned, new_shard = run(body())
    assert shard in abandoned
    if new_shard is not None:  # session may already have finished
        assert new_shard != shard
    assert canon(evs) == canon(base)


def test_restore_never_inflates_the_credit_window(tmp_path):
    """Feeds pushed while a worker rebuild is in flight must be held:
    if they reach the pool before ``_restored`` resets the window to
    full, their acks refund credits *past* ``max_buffered_events`` and
    the flow-control quota silently widens."""
    dep, header, lines = make_stream(23, events_per_proc=14)
    doc = stream_doc(header, lines)
    quota = TenantQuota(max_streams=4, max_buffered_events=8)

    async def body():
        srv, connect = await start_server(
            workers=2, supervise=True, durable_dir=str(tmp_path / "dur"),
            checkpoint_every=4, batch=2, quota=quota,
            heartbeat_interval=0.05, restart_backoff=0.01,
            tenant_opts={"t": {"delay_per_record": 0.01}})
        over = []
        orig = srv._dispatch

        def spy(key, events):
            orig(key, events)
            for e in srv._entries.values():
                if e.state.credits > e.state.quota.max_buffered_events:
                    over.append((key, e.state.credits))

        srv._dispatch = spy
        kill = asyncio.ensure_future(kill_session_shard(srv))
        evs = await stream_events_durable(
            connect, "t", "s", PREDICATE, doc,
            backoff=Backoff(base=0.01, max_retries=50, seed=6), timeout=30.0)
        await kill
        await srv.drain()
        return evs, over

    evs, over = run(body())
    assert over == []
    assert_final_matches_batch(
        [e for e in evs if e.get("e") == "final"][-1], dep)


# -- Backoff schedule ------------------------------------------------------


class TestBackoff:
    def test_growth_and_cap(self):
        b = Backoff(base=0.1, factor=2.0, max_delay=0.5, jitter=0.0,
                    max_retries=10)
        delays = [b.next_delay() for _ in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_budget_exhaustion_returns_none(self):
        b = Backoff(base=0.01, jitter=0.0, max_retries=3)
        assert [b.next_delay() is None for _ in range(4)] == [
            False, False, False, True]

    def test_reset_restores_budget_and_delay(self):
        b = Backoff(base=0.1, factor=2.0, jitter=0.0, max_retries=2)
        b.next_delay()
        b.next_delay()
        assert b.next_delay() is None
        b.reset()
        assert b.next_delay() == 0.1

    def test_jitter_stays_in_band_and_is_seeded(self):
        a = Backoff(base=0.1, factor=2.0, max_delay=10.0, jitter=0.25,
                    max_retries=50, seed=42)
        b = Backoff(base=0.1, factor=2.0, max_delay=10.0, jitter=0.25,
                    max_retries=50, seed=42)
        seq_a = [a.next_delay() for _ in range(10)]
        seq_b = [b.next_delay() for _ in range(10)]
        assert seq_a == seq_b  # same seed, same schedule
        for i, d in enumerate(seq_a):
            nominal = min(0.1 * (2.0 ** i), 10.0)
            assert nominal * 0.75 <= d <= nominal * 1.25

    def test_validation(self):
        with pytest.raises(ValueError):
            Backoff(base=0.0)
        with pytest.raises(ValueError):
            Backoff(base=0.1, factor=0.5)
        with pytest.raises(ValueError):
            Backoff(base=0.1, jitter=1.5)
