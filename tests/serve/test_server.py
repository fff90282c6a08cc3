"""End-to-end server tests over a unix socket.

The load-bearing one is the multi-tenant stress test: K interleaved
independent streams through one server must each get *exactly* the
verdict batch detection computes on that stream alone -- tenants cannot
contaminate each other, and neither can backpressure on a neighbour.
"""

import asyncio
import json
import os

import pytest

from repro.obs import METRICS
from repro.serve import (
    ReproServer,
    ServeConfig,
    TenantQuota,
    dumps_event,
    open_connection,
    stream_events,
    subscribe,
)
from repro.serve.server import SERVE_FORMAT

from .conftest import PREDICATE, assert_final_matches_batch, make_stream


def run(coro):
    return asyncio.run(coro)


async def with_server(config, body):
    server = ReproServer(config)
    await server.start()
    try:
        return await body(server)
    finally:
        await server.drain()


def one_of(events, kind):
    matches = [e for e in events if e.get("e") == kind]
    assert len(matches) == 1, (kind, events)
    return matches[0]


def stream_doc(header, lines):
    return [dumps_event(header)] + list(lines)


def test_multitenant_stress_matches_batch_oracle(unix_sock):
    """8 interleaved streams x 3 tenants == per-stream batch verdicts."""
    deps, docs = {}, {}
    for i in range(8):
        dep, header, lines = make_stream(seed=60 + i, events_per_proc=5)
        key = (f"t{i % 3}", f"run-{i}")
        deps[key] = dep
        docs[key] = stream_doc(header, lines)

    async def body(server):
        return await asyncio.gather(*[
            stream_events(f"unix:{unix_sock}", tenant, session, PREDICATE,
                          doc, timeout=30)
            for (tenant, session), doc in docs.items()
        ])

    results = run(with_server(
        ServeConfig(unix=unix_sock, workers=2, batch=4), body
    ))
    for (key, dep), events in zip(deps.items(), results):
        final = one_of(events, "final")
        assert final["tenant"] == key[0] and final["session"] == key[1]
        assert_final_matches_batch(final, dep)
        one_of(events, "open")
        one_of(events, "closed")


def test_inline_and_sharded_servers_are_byte_identical(unix_sock):
    docs = {}
    for i in range(5):
        _dep, header, lines = make_stream(seed=80 + i, events_per_proc=5)
        docs[(f"t{i % 2}", f"run-{i}")] = stream_doc(header, lines)

    async def body(server):
        outs = await asyncio.gather(*[
            stream_events(f"unix:{unix_sock}", t, s, PREDICATE, doc,
                          timeout=30)
            for (t, s), doc in docs.items()
        ])
        return [[dumps_event(e) for e in evs] for evs in outs]

    inline = run(with_server(ServeConfig(unix=unix_sock, workers=0), body))
    sharded = run(with_server(ServeConfig(unix=unix_sock, workers=2), body))
    assert inline == sharded


def test_subscriber_sees_tenant_events_only(unix_sock):
    dep, header, lines = make_stream(seed=11)
    got = []

    async def body(server):
        stop = asyncio.Event()

        def on_event(ev):
            got.append(ev)
            return ev.get("e") == "closed"

        sub = asyncio.ensure_future(
            subscribe(f"unix:{unix_sock}", "watched", on_event, stop=stop)
        )
        await asyncio.sleep(0.05)  # let the subscription attach
        await asyncio.gather(
            stream_events(f"unix:{unix_sock}", "watched", "a", PREDICATE,
                          stream_doc(header, lines), timeout=30),
            stream_events(f"unix:{unix_sock}", "other", "b", PREDICATE,
                          stream_doc(header, lines), timeout=30),
        )
        stop.set()
        await sub

    run(with_server(ServeConfig(unix=unix_sock, workers=0), body))
    assert got and all(ev["tenant"] == "watched" for ev in got)
    assert {"open", "final", "closed"} <= {ev["e"] for ev in got}


def test_max_streams_quota_refuses_and_releases(unix_sock):
    _dep, header, lines = make_stream(seed=4)
    doc = stream_doc(header, lines)

    async def body(server):
        # hold one session open by dialling manually and not half-closing
        reader, writer = await open_connection(f"unix:{unix_sock}")
        hello = {"format": SERVE_FORMAT, "t": "hello", "tenant": "capped",
                 "session": "held", "predicate": PREDICATE}
        writer.write((json.dumps(hello) + "\n" + doc[0] + "\n").encode())
        await writer.drain()
        opened = json.loads(await asyncio.wait_for(reader.readline(), 10))
        assert opened["e"] == "open"
        refused = await stream_events(f"unix:{unix_sock}", "capped", "more",
                                      PREDICATE, doc, timeout=10)
        err = one_of(refused, "error")
        assert err["code"] == "quota" and "max_streams=1" in err["message"]
        # other tenants are unaffected by the capped tenant's quota
        ok = await stream_events(f"unix:{unix_sock}", "free", "fine",
                                 PREDICATE, doc, timeout=30)
        one_of(ok, "final")
        writer.close()
        await writer.wait_closed()
        await asyncio.sleep(0.1)  # server notices the held stream's EOF
        retry = await stream_events(f"unix:{unix_sock}", "capped", "again",
                                    PREDICATE, doc, timeout=30)
        one_of(retry, "final")

    run(with_server(
        ServeConfig(unix=unix_sock, workers=0,
                    tenant_quotas={"capped": TenantQuota(max_streams=1)}),
        body,
    ))


def test_bad_hello_and_bad_header_get_typed_errors(unix_sock):
    async def body(server):
        reader, writer = await open_connection(f"unix:{unix_sock}")
        writer.write(b'{"format": "wrong/9"}\n')
        ev = json.loads(await asyncio.wait_for(reader.readline(), 10))
        assert ev["e"] == "error" and ev["code"] == "protocol"
        writer.close()

        reader, writer = await open_connection(f"unix:{unix_sock}")
        hello = {"format": SERVE_FORMAT, "t": "hello", "tenant": "t",
                 "session": "s", "predicate": PREDICATE}
        writer.write((json.dumps(hello) + "\nnot json\n").encode())
        writer.write_eof()
        lines = []
        while True:
            raw = await asyncio.wait_for(reader.readline(), 10)
            if raw == b"":
                break
            lines.append(json.loads(raw))
        codes = [(e["e"], e.get("code")) for e in lines]
        assert ("error", "protocol") in codes
        writer.close()

    run(with_server(ServeConfig(unix=unix_sock, workers=0), body))


def test_drain_finalizes_inflight_sessions(unix_sock):
    """A stream cut off mid-flight by shutdown still gets its final
    verdict for the applied prefix before the connection closes."""
    _dep, header, lines = make_stream(seed=21, events_per_proc=6)

    async def scenario():
        server = ReproServer(ServeConfig(unix=unix_sock, workers=0))
        await server.start()
        reader, writer = await open_connection(f"unix:{unix_sock}")
        hello = {"format": SERVE_FORMAT, "t": "hello", "tenant": "t",
                 "session": "cut", "predicate": PREDICATE}
        half = lines[: len(lines) // 2]
        writer.write((json.dumps(hello) + "\n").encode())
        writer.write((dumps_event(header) + "\n").encode())
        writer.write(("\n".join(half) + "\n").encode())
        await writer.drain()
        await asyncio.sleep(0.1)  # no EOF: the session is mid-stream
        stats = await server.drain()
        events = []
        while True:
            raw = await asyncio.wait_for(reader.readline(), 10)
            if raw == b"":
                break
            events.append(json.loads(raw))
        writer.close()
        return stats, events, len(half)

    stats, events, applied = run(scenario())
    final = one_of(events, "final")
    assert final["seq"] == applied
    one_of(events, "closed")
    assert stats["open_sessions"] == 1  # taken before the forced close


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
def test_drain_does_not_wait_for_a_hello_only_connection(
        tmp_path, unix_sock, workers, durable):
    """A client that sent only its hello (then went silent) never opened
    a session on a worker: there is no outcome to wait for, so drain()
    must not sit out drain_timeout, and a durable one leaves no residue."""
    root = tmp_path / "dur"

    async def scenario():
        server = ReproServer(ServeConfig(unix=unix_sock, workers=workers,
                                         durable_dir=str(root)))
        await server.start()
        reader, writer = await open_connection(f"unix:{unix_sock}")
        hello = {"format": SERVE_FORMAT, "t": "hello", "tenant": "t",
                 "session": "quiet", "predicate": PREDICATE,
                 "durable": durable}
        writer.write((json.dumps(hello) + "\n").encode())
        await writer.drain()
        for _ in range(200):  # until the server admitted the session
            if server._entries:
                break
            await asyncio.sleep(0.01)
        assert server._entries
        t0 = asyncio.get_running_loop().time()
        await server.drain()
        elapsed = asyncio.get_running_loop().time() - t0
        writer.close()
        return elapsed

    elapsed = run(scenario())
    assert elapsed < 1.0, f"drain() took {elapsed:.2f}s"
    assert [f for _, _, files in os.walk(root) for f in files] == []


def test_server_metrics_are_populated(unix_sock):
    _dep, header, lines = make_stream(seed=13)

    async def body(server):
        await stream_events(f"unix:{unix_sock}", "t", "m", PREDICATE,
                            stream_doc(header, lines), timeout=30)

    with METRICS.scoped() as scope:
        run(with_server(ServeConfig(unix=unix_sock, workers=0), body))
        delta = scope.delta()
    counters = delta["counters"]
    assert counters.get("serve.sessions_opened") == 1
    assert counters.get("serve.sessions_closed") == 1
    assert counters.get("serve.records_in") == len(lines)
    assert counters.get("serve.lines_read") == len(lines)  # header aside
    assert "serve.ack_latency" in delta["histograms"]
