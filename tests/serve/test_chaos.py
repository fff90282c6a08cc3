"""Chaos tests: the durable stream under an adversarial transport.

``FaultyTransport`` drops, duplicates, reorders, and cuts client frames
on the way to a real server.  The contract under test is byte-identity:
whatever the transport does (within its fault budget), the event stream
the durable client hands back must equal the stream of an uninterrupted,
fault-free run -- no lost verdicts, no duplicated verdicts, no
reordering.
"""

import asyncio
import time

import pytest

from repro.faults.plan import ChannelFaultSpec
from repro.serve import (
    Backoff,
    FaultyTransport,
    ReproServer,
    ServeConfig,
    dumps_event,
    stream_events,
    stream_events_durable,
)
from repro.serve.client import StreamLostError

from .conftest import PREDICATE, assert_final_matches_batch, make_stream


def run(coro):
    return asyncio.run(coro)


def canon(events):
    return [dumps_event(e) for e in events if e.get("e") != "closed"]


def stream_doc(header, lines):
    return [dumps_event(header)] + list(lines)


async def start_server(durable_dir=None, **kw):
    cfg = ServeConfig(tcp=("127.0.0.1", 0), workers=0, supervise=False,
                      durable_dir=durable_dir, **kw)
    srv = ReproServer(cfg)
    await srv.start()
    port = srv._servers[0].sockets[0].getsockname()[1]
    return srv, f"127.0.0.1:{port}"


async def baseline(doc):
    srv, connect = await start_server()
    evs = await stream_events(connect, "t", "s", PREDICATE, doc)
    await srv.drain()
    return evs


async def durable(doc, tmp, transport=None, seed=1, **kw):
    srv, connect = await start_server(str(tmp), **kw)
    evs = await stream_events_durable(
        connect, "t", "s", PREDICATE, doc,
        backoff=Backoff(base=0.01, max_retries=200, seed=seed),
        transport=transport, timeout=15.0)
    await srv.drain()
    return evs


@pytest.mark.parametrize("seed", range(4))
def test_full_chaos_stream_is_byte_identical(tmp_path, seed):
    dep, header, lines = make_stream(seed, events_per_proc=8)
    doc = stream_doc(header, lines)
    ft = FaultyTransport(
        ChannelFaultSpec(drop_rate=0.08, duplicate_rate=0.08,
                         reorder_rate=0.08),
        seed=seed * 7 + 1, cut_after=(4, 19), cut_rate=0.02, max_faults=40)

    async def body():
        base = await baseline(doc)
        chaos = await durable(doc, tmp_path / "dur", transport=ft,
                              seed=seed, checkpoint_every=5)
        return base, chaos

    base, chaos = run(body())
    assert canon(chaos) == canon(base)
    assert ft.faults > 0, ft.describe()  # the run actually saw chaos
    assert_final_matches_batch(
        [e for e in chaos if e.get("e") == "final"][-1], dep)


def test_duplicates_only_are_deduplicated(tmp_path):
    """Pure duplication (no cuts, no drops): the server's ``q <=
    accepted`` dedup must swallow every duplicate frame."""
    dep, header, lines = make_stream(10)
    doc = stream_doc(header, lines)
    ft = FaultyTransport(ChannelFaultSpec(duplicate_rate=0.5), seed=3,
                         max_faults=100)

    async def body():
        base = await baseline(doc)
        got = await durable(doc, tmp_path / "dur", transport=ft)
        return base, got

    base, got = run(body())
    assert canon(got) == canon(base)
    assert ft.dups > 0


def test_cut_mid_stream_resumes_without_duplicating_events(tmp_path):
    """A deterministic connection cut partway through: the client must
    reconnect, resync at the server's durable watermark, and hand back
    each event exactly once."""
    dep, header, lines = make_stream(11, events_per_proc=8)
    doc = stream_doc(header, lines)
    ft = FaultyTransport(seed=4, cut_after=(6,))

    async def body():
        base = await baseline(doc)
        got = await durable(doc, tmp_path / "dur", transport=ft,
                            checkpoint_every=3)
        return base, got

    base, got = run(body())
    assert canon(got) == canon(base)
    assert ft.cuts == 1 and ft.connections >= 2


def test_reorders_only_trigger_resync_not_corruption(tmp_path):
    dep, header, lines = make_stream(12, events_per_proc=8)
    doc = stream_doc(header, lines)
    ft = FaultyTransport(ChannelFaultSpec(reorder_rate=0.3), seed=5,
                         max_faults=50)

    async def body():
        base = await baseline(doc)
        got = await durable(doc, tmp_path / "dur", transport=ft)
        return base, got

    base, got = run(body())
    assert canon(got) == canon(base)


def test_progress_resets_the_reconnect_budget(tmp_path):
    """A link that cuts the connection every few frames, forever: the
    stream must survive far more total losses than ``max_retries``
    because every attempt that advances the durable watermark resets the
    budget -- only *consecutive no-progress* failures spend it."""
    dep, header, lines = make_stream(15, events_per_proc=10)
    doc = stream_doc(header, lines)
    nrec = len([l for l in doc[1:] if l.strip()])
    ft = FaultyTransport(seed=9, cut_after=range(6, 100 * nrec, 6))

    async def body():
        base = await baseline(doc)
        srv, connect = await start_server(str(tmp_path / "dur"),
                                          batch=2, checkpoint_every=4)
        got = await stream_events_durable(
            connect, "t", "s", PREDICATE, doc,
            backoff=Backoff(base=0.001, max_retries=3, seed=10),
            transport=ft, timeout=15.0)
        await srv.drain()
        return base, got

    base, got = run(body())
    assert canon(got) == canon(base)
    assert ft.cuts > 3  # more total losses than the whole budget


def test_backoff_budget_exhaustion_raises_stream_lost(tmp_path):
    """A transport that cuts every connection immediately must exhaust
    the reconnect budget and surface a typed StreamLostError -- not spin
    forever and not die with a raw socket error."""
    dep, header, lines = make_stream(13)
    doc = stream_doc(header, lines)
    ft = FaultyTransport(seed=6, cut_rate=1.0)

    async def body():
        srv, connect = await start_server(str(tmp_path / "dur"))
        try:
            with pytest.raises(StreamLostError):
                await stream_events_durable(
                    connect, "t", "s", PREDICATE, doc,
                    backoff=Backoff(base=0.001, max_retries=3, seed=7),
                    transport=ft, timeout=15.0)
        finally:
            t0 = time.perf_counter()
            await srv.drain()
        return time.perf_counter() - t0

    elapsed = run(body())
    assert ft.cuts >= 1
    # the vanished client's session never opened on a worker: drain has
    # no outcome to wait for
    assert elapsed < 1.0, f"drain() took {elapsed:.2f}s"


def test_chaos_resume_state_is_clean_after_completion(tmp_path):
    """However chaotic the transport, a completed durable session must
    leave no WAL/checkpoint residue behind."""
    import os

    dep, header, lines = make_stream(14)
    doc = stream_doc(header, lines)
    ft = FaultyTransport(
        ChannelFaultSpec(drop_rate=0.1, duplicate_rate=0.1),
        seed=8, cut_after=(5,), max_faults=30)
    root = tmp_path / "dur"

    run(durable(doc, root, transport=ft))
    leftovers = [os.path.join(dp, f)
                 for dp, _, files in os.walk(root) for f in files]
    assert leftovers == []
