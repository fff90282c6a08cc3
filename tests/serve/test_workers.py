"""Pool equivalence: sharded worker processes == inline execution.

The distributed abstraction (sessions pinned to independent shards)
only earns its keep if sharding is invisible in the output: for the
same streams, the event sequences per session must be byte-identical
whether detection ran inline or across worker processes.
"""

import asyncio
import json
import os
import signal
import threading
import time

import pytest

from repro.serve.protocol import dumps_event
from repro.serve.session import DetectionSession
from repro.serve.workers import InlinePool, ProcessPool, make_pool, shard_of

from .conftest import PREDICATE, make_stream


class Collector:
    """Thread-safe sink recording event lines per session key."""

    def __init__(self):
        self.lock = threading.Lock()
        self.by_key = {}

    def __call__(self, key, events):
        with self.lock:
            self.by_key.setdefault(key, []).extend(
                dumps_event(ev) for ev in events
            )


def drive(pool, streams):
    """Open/feed/finalize every stream through ``pool``; returns lines."""
    sink = Collector()
    pool.set_sink(sink)
    pool.start()
    try:
        for key, (header, lines) in streams.items():
            tenant, session = key.split("/", 1)
            pool.open_session(key, tenant, session, header, PREDICATE, {})
        for key, (header, lines) in streams.items():
            for start in range(0, len(lines), 8):
                pool.feed(key, lines[start:start + 8], base_lineno=2 + start)
        for key in streams:
            pool.finalize(key)
    finally:
        pool.stop()
    return sink.by_key


@pytest.fixture
def streams():
    out = {}
    for i in range(6):
        _dep, header, lines = make_stream(seed=40 + i, events_per_proc=5)
        out[f"t{i % 3}/run-{i}"] = (header, lines)
    return out


def test_shard_pinning_is_stable_and_total():
    keys = [f"t/{i}" for i in range(100)]
    for shards in (1, 2, 4):
        first = [shard_of(k, shards) for k in keys]
        assert first == [shard_of(k, shards) for k in keys]
        assert all(0 <= s < shards for s in first)
    assert len({shard_of(k, 4) for k in keys}) == 4  # actually spreads


def test_make_pool_dispatch():
    assert isinstance(make_pool(0), InlinePool)
    assert isinstance(make_pool(3), ProcessPool)


def test_process_pool_matches_inline_byte_for_byte(streams):
    inline = drive(make_pool(0), streams)
    sharded = drive(make_pool(2), streams)

    def public(lines):
        return [ln for ln in lines if '"_ack"' not in ln]

    assert set(inline) == set(sharded) == set(streams)
    for key in streams:
        assert public(inline[key]) == public(sharded[key]), key


def test_every_fed_line_is_acknowledged(streams):
    key = next(iter(streams))
    header, lines = streams[key]
    got = drive(make_pool(2), {key: (header, lines)})
    acks = [json.loads(ln) for ln in got[key] if '"_ack"' in ln]
    assert sum(a["applied"] for a in acks) == len(lines)


def test_worker_survives_a_poison_session():
    """One tenant's garbage must not take down the shard (error event +
    acks keep flowing; the other session completes normally)."""
    _dep, header, lines = make_stream(seed=3, events_per_proc=5)
    sink = Collector()
    pool = make_pool(1)  # one shard: both sessions share a worker
    pool.set_sink(sink)
    pool.start()
    try:
        pool.open_session("a/bad", "a", "bad", {"format": "nope"},
                          PREDICATE, {})
        pool.open_session("b/good", "b", "good", header, PREDICATE, {})
        pool.feed("a/bad", lines[:3], base_lineno=2)
        pool.feed("b/good", list(lines), base_lineno=2)
        pool.finalize("a/bad")
        pool.finalize("b/good")
    finally:
        pool.stop()
    assert any('"error"' in ln for ln in sink.by_key["a/bad"])
    assert any('"final"' in ln for ln in sink.by_key["b/good"])


def _wait_for_pong(pool, idx, timeout=10.0):
    """Block until shard ``idx`` has answered a ping sent now, i.e. its
    worker loop (and its start-up signal setup) is running."""
    sent = time.monotonic() + 1e-6
    pool.ping(idx)
    deadline = time.monotonic() + timeout
    while pool.last_pong(idx) < sent:
        assert time.monotonic() < deadline, "worker never answered a ping"
        time.sleep(0.01)


def test_restarted_worker_neither_ignores_sigterm_nor_forwards_it():
    """A worker forked after the server installed its asyncio SIGTERM
    handler must die on ``terminate()``, and that SIGTERM must never
    reach the parent's loop (which would drain the whole server)."""
    fired = []
    replaced = []
    pool = ProcessPool(1, mp_context="fork")

    async def main():
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, fired.append, "SIGTERM")
        try:
            for _ in range(2):  # the 2nd restart terminates a post-handler fork
                _wait_for_pong(pool, 0)
                replaced.append(pool._procs[0])
                pool.restart_worker(0)
            _wait_for_pong(pool, 0)
            await asyncio.sleep(0.3)  # let a forwarded wakeup byte land
        finally:
            loop.remove_signal_handler(signal.SIGTERM)

    pool.start()
    try:
        asyncio.run(main())
        alive = [p.pid for p in replaced if p.is_alive()]
    finally:
        for proc in replaced:  # never leave an unkillable child behind
            if proc.is_alive():
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=5)
        pool.stop()
    assert fired == []
    assert alive == []


def test_restore_ignores_engine_in_old_wal_opts():
    """Session opts in a WAL header written by an older server may still
    name a batch ``engine``; restoring from that header must ignore it."""
    key = "t/s"
    _dep, header, lines = make_stream(seed=7, events_per_proc=5)
    whole = drive(make_pool(0), {key: (header, lines)})[key]
    crashed = DetectionSession("t", "s", header, PREDICATE)
    crashed.open_events()
    crashed.feed(lines[:5], base_lineno=2)
    snap = json.loads(json.dumps(crashed.snapshot()))

    sink = Collector()
    pool = make_pool(0)
    pool.set_sink(sink)
    pool.start()
    try:
        pool.restore(key, "t", "s", header, PREDICATE, {"engine": "slice"},
                     snap, lines[5:], published=0)
        pool.finalize(key)
    finally:
        pool.stop()
    got = [ln for ln in sink.by_key[key] if '"_restored"' not in ln]
    assert got == [ln for ln in whole if '"_ack"' not in ln]
