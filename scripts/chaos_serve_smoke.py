#!/usr/bin/env python
"""CI chaos smoke for crash-safe ``repro serve``.

Boots the real server CLI as a subprocess with ``--durable``, then does
everything the robustness layer exists for, at once, to one session:

* streams a long ``repro-events/1`` document through the durable client
  while a ``FaultyTransport`` severs the client connection mid-stream
  (the client must reconnect and resume at the server's durable
  watermark);
* SIGKILLs **every** worker subprocess mid-stream, so whichever shard
  owns the session dies with state in flight (the supervisor must
  restart the workers and replay checkpoint + WAL tail);
* asserts the final verdict equals the batch oracle computed locally,
  and that the event stream the client hands back is exactly what an
  undisturbed in-process session produces -- byte-identical framing, no
  gaps, no duplicates;
* SIGINTs the server and requires a clean bounded drain (exit 0,
  "drained" on stderr) with no WAL/checkpoint residue left on disk;
* then SIGKILLs a whole second server (its process group, workers
  included) after it has acked records as ``_durable``, restarts it on
  the same ``--durable`` directory, and requires the restarted server's
  ``_resume`` watermark to cover the highest ack, the resumed event
  stream to be byte-identical again, and another clean drain;
* finally opens a hello-only durable connection and a hello-only plain
  connection on a third server, drops both, and requires SIGINT to
  drain it within the same 10 s bound: a vanished client never delays
  shutdown.

Run as ``PYTHONPATH=src python scripts/chaos_serve_smoke.py``; exits
non-zero on the first deviation.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.detection import possibly_bad  # noqa: E402
from repro.detection.engine import definitely  # noqa: E402
from repro.serve import (  # noqa: E402
    Backoff,
    FaultyTransport,
    dumps_event,
    stream_events_durable,
)
from repro.serve.client import _hello, open_connection  # noqa: E402
from repro.serve.session import DetectionSession  # noqa: E402
from repro.trace.io import write_event_stream  # noqa: E402
from repro.workloads import availability_predicate, random_deposet  # noqa: E402

PREDICATE = "at-least-one:up"
TIMEOUT = 120


def check(cond, message):
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def make_doc(seed):
    dep = random_deposet(seed=seed, n=4, events_per_proc=40,
                         message_rate=0.3, flip_rate=0.3)
    buf = io.StringIO()
    write_event_stream(dep, buf)
    return dep, buf.getvalue().splitlines()


def expected_events(doc):
    """What an undisturbed in-process session emits for this doc."""
    sess = DetectionSession("t", "s", json.loads(doc[0]), PREDICATE)
    sess.open_event()
    sess.feed(doc[1:], base_lineno=2)
    sess.finalize()
    return [dumps_event(e) for e in sess.events_log]


def worker_pids(server_pid):
    """Direct children of the server process (the worker shards)."""
    path = f"/proc/{server_pid}/task/{server_pid}/children"
    try:
        with open(path) as fh:
            return [int(p) for p in fh.read().split()]
    except OSError:
        return []


def wait_for_socket(path, proc, deadline=30):
    t0 = time.time()
    while time.time() - t0 < deadline:
        if os.path.exists(path):
            return
        if proc.poll() is not None:
            print(proc.stderr.read(), file=sys.stderr)
            sys.exit("server died before listening")
        time.sleep(0.1)
    sys.exit("server never created its socket")


def start_server(sock, durable, *flags):
    """The real CLI server in its own process group (so a SIGKILL of the
    group takes its workers down with it)."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--listen", f"unix:{sock}", "--workers", "2",
         "--durable", durable, "--fsync", "batch", *flags],
        env={**os.environ, "PYTHONPATH": "src"},
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    wait_for_socket(sock, server)
    return server


def drain(server, durable):
    """SIGINT: exit 0, "drained", nothing left on disk."""
    server.send_signal(signal.SIGINT)
    try:
        rc = server.wait(timeout=10)
    except subprocess.TimeoutExpired:
        server.kill()
        sys.exit("server did not drain within 10s of SIGINT")
    err = server.stderr.read()
    check(rc == 0, f"server exited 0 after SIGINT (rc={rc})\n{err}")
    check("drained" in err, "server reported a clean drain")
    leftovers = [os.path.join(dp, f)
                 for dp, _, files in os.walk(durable) for f in files]
    check(leftovers == [],
          "completed session left no WAL/checkpoint residue")


async def durable_hello(connect):
    reader, writer = await open_connection(connect)
    writer.write(_hello("hello", tenant="t", session="s",
                        predicate=PREDICATE, durable=True, have_events=0))
    first = json.loads(await asyncio.wait_for(reader.readline(), 10))
    check(first.get("e") == "_resume", f"durable handshake {first}")
    return reader, writer, int(first["seq"])


async def send_without_end(connect, doc, batch):
    """Header and every record, no end marker; returns the highest
    ``_durable`` seq once it covers the last full batch."""
    reader, writer, _ = await durable_hello(connect)
    writer.write((json.dumps({"t": "hdr", "line": doc[0]}) + "\n").encode())
    for q, line in enumerate(doc[1:], start=1):
        writer.write((json.dumps({"t": "rec", "q": q, "line": line})
                      + "\n").encode())
    await writer.drain()
    target = ((len(doc) - 1) // batch) * batch
    acked = 0
    while acked < target:
        ev = json.loads(await asyncio.wait_for(reader.readline(), 10))
        if ev.get("e") == "_durable":
            acked = max(acked, int(ev["seq"]))
    return acked


async def resume_watermark(connect):
    _, writer, seq = await durable_hello(connect)
    writer.transport.abort()  # the session parks again
    return seq


def server_kill9_phase(tmp, doc, expected):
    """SIGKILL the whole server after it acked records as durable; the
    restart on the same directory must keep every acked record."""
    sock = os.path.join(tmp, "serve2.sock")
    durable = os.path.join(tmp, "durable2")
    connect = f"unix:{sock}"
    batch = 32
    server = start_server(sock, durable, "--batch", str(batch))
    try:
        acked = asyncio.run(send_without_end(connect, doc, batch))
        os.killpg(server.pid, signal.SIGKILL)
        server.wait(timeout=30)
        check(acked >= 4 * batch,
              f"server acked seq {acked} as durable, then was SIGKILLed")
        os.unlink(sock)
        server = start_server(sock, durable)
        resumed = asyncio.run(resume_watermark(connect))
        check(resumed >= acked,
              f"restarted server resumes at seq {resumed} >= acked {acked}")
        events = asyncio.run(asyncio.wait_for(stream_events_durable(
            connect, "t", "s", PREDICATE, doc,
            backoff=Backoff(base=0.05, max_retries=100, seed=13),
            timeout=TIMEOUT), TIMEOUT))
        got = [dumps_event(e) for e in events if e.get("e") != "closed"]
        check(got == expected,
              f"{len(got)} events after the server kill -9 byte-identical "
              f"to the undisturbed session")
        drain(server, durable)
    finally:
        if server.poll() is None:
            os.killpg(server.pid, signal.SIGKILL)


async def hello_only(connect, session, durable):
    """Send one hello and nothing else; returns the open connection."""
    _, writer = await open_connection(connect)
    writer.write(_hello("hello", tenant="t", session=session,
                        predicate=PREDICATE, durable=durable))
    await writer.drain()
    return writer


def vanished_clients_phase(tmp):
    """Clients that sent only their hello and vanished hold no worker
    state: SIGINT must drain at once, not wait out --drain-timeout."""
    sock = os.path.join(tmp, "serve3.sock")
    durable = os.path.join(tmp, "durable3")
    connect = f"unix:{sock}"
    server = start_server(sock, durable)

    async def vanish():
        writers = [await hello_only(connect, "quiet-durable", True),
                   await hello_only(connect, "quiet-plain", False)]
        await asyncio.sleep(0.2)  # let the server admit both sessions
        for writer in writers:
            writer.transport.abort()

    try:
        asyncio.run(vanish())
        drain(server, durable)  # within 10 s, or the smoke fails
    finally:
        if server.poll() is None:
            os.killpg(server.pid, signal.SIGKILL)


def chaos_phases(tmp):
    sock = os.path.join(tmp, "serve.sock")
    durable = os.path.join(tmp, "durable")
    server = start_server(
        sock, durable, "--batch", "2", "--checkpoint-every", "8",
        "--heartbeat-interval", "0.05", "--heartbeat-timeout", "2.0",
        "--restart-budget", "3")
    try:
        dep, doc = make_doc(1777)
        expected = expected_events(doc)

        # severs the client connection once, 12 frames in
        transport = FaultyTransport(seed=7, cut_after=(12,))
        killed = {"pids": [], "respawned": False}

        async def killer():
            # let the stream get going, then SIGKILL every worker: the
            # session's shard dies with state in flight, guaranteed
            await asyncio.sleep(0.4)
            pids = worker_pids(server.pid)
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            killed["pids"] = pids
            # the supervisor must bring fresh workers up
            for _ in range(200):
                await asyncio.sleep(0.05)
                fresh = worker_pids(server.pid)
                if fresh and not set(fresh) & set(pids):
                    killed["respawned"] = True
                    return

        async def drive():
            kill_task = asyncio.ensure_future(killer())
            events = await stream_events_durable(
                f"unix:{sock}", "t", "s", PREDICATE, doc,
                backoff=Backoff(base=0.05, max_retries=100, seed=11),
                transport=transport, timeout=TIMEOUT)
            await kill_task
            return events

        events = asyncio.run(asyncio.wait_for(drive(), TIMEOUT))

        check(len(killed["pids"]) == 2,
              f"SIGKILLed both worker shards {killed['pids']}")
        check(killed["respawned"],
              "supervisor respawned fresh worker processes")
        check(transport.cuts >= 1 and transport.connections >= 2,
              f"client was severed and reconnected ({transport.describe()})")

        got = [dumps_event(e) for e in events if e.get("e") != "closed"]
        check(got == expected,
              f"{len(got)} recovered events byte-identical to the "
              f"undisturbed session")

        final = next(e for e in events if e.get("e") == "final")
        pred = availability_predicate(dep.n, "up")
        witness = possibly_bad(dep, pred)
        df = definitely(dep, pred.negated()) if witness is not None else False
        got_w = tuple(final["witness"]) if final["witness"] is not None \
            else None
        check(got_w == witness and final["definitely"] == df,
              f"final == batch oracle {witness}")

        # bounded drain: SIGINT, exit 0, "drained", nothing left on disk
        drain(server, durable)
    finally:
        if server.poll() is None:
            os.killpg(server.pid, signal.SIGKILL)
    server_kill9_phase(tmp, doc, expected)
    vanished_clients_phase(tmp)
    print("chaos serve smoke OK")


def main():
    tmp = tempfile.mkdtemp(prefix="repro-chaos-serve-")
    try:
        chaos_phases(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
