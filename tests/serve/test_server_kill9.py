"""A ``_durable`` ack must survive a SIGKILL of the whole server.

``{"e":"_durable","seq":N}`` tells a durable client that records up to
``N`` are in the WAL.  Under ``--fsync batch`` that promise covers
process crashes: every acked frame has already reached the kernel, so a
``kill -9`` of the server (not only of a worker) and a restart on the
same ``--durable`` directory must resume at or above the highest ack.
This runs the real CLI server as a subprocess and really SIGKILLs it.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.serve import dumps_event
from repro.serve.client import _hello, open_connection

from .conftest import PREDICATE, make_stream

SRC = str(Path(__file__).resolve().parents[2] / "src")


def start_server(sock, durable):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--listen", f"unix:{sock}",
         "--workers", "0", "--durable", durable, "--fsync", "batch"],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    deadline = time.monotonic() + 30
    while not os.path.exists(sock):
        assert proc.poll() is None, "server died before listening"
        assert time.monotonic() < deadline, "server never listened"
        time.sleep(0.05)
    return proc


def kill9(proc):
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)


async def hello(sock):
    reader, writer = await open_connection(f"unix:{sock}")
    writer.write(_hello("hello", tenant="t", session="s",
                        predicate=PREDICATE, durable=True, have_events=0))
    first = json.loads(await asyncio.wait_for(reader.readline(), 10))
    assert first["e"] == "_resume"
    return reader, writer, int(first["seq"])


async def send_and_collect_acks(sock, header, records):
    """Send the header and every record without an end marker; return
    the highest ``_durable`` seq once it covers the last full batch."""
    reader, writer, start = await hello(sock)
    assert start == 0
    writer.write((json.dumps({"t": "hdr", "line": dumps_event(header)})
                  + "\n").encode())
    for q, line in enumerate(records, start=1):
        writer.write((json.dumps({"t": "rec", "q": q, "line": line})
                      + "\n").encode())
    await writer.drain()
    target = (len(records) // 64) * 64  # default --batch 64
    acked = 0
    while acked < target:
        ev = json.loads(await asyncio.wait_for(reader.readline(), 10))
        if ev.get("e") == "_durable":
            acked = max(acked, int(ev["seq"]))
    return acked


async def resume_seq(sock):
    _, writer, seq = await hello(sock)
    writer.transport.abort()
    return seq


def test_server_kill9_keeps_every_acked_record(tmp_path):
    _, header, lines = make_stream(5, n=4, events_per_proc=60)
    records = [ln for ln in lines if ln.strip()]
    assert len(records) >= 192
    sock = str(tmp_path / "serve.sock")
    durable = str(tmp_path / "durable")
    server = start_server(sock, durable)
    try:
        acked = asyncio.run(send_and_collect_acks(sock, header, records))
        kill9(server)
        os.unlink(sock)
        server = start_server(sock, durable)
        resumed = asyncio.run(resume_seq(sock))
    finally:
        if server.poll() is None:
            kill9(server)
    assert acked >= 128
    assert resumed >= acked, (
        f"server acked seq {acked} as durable but resumed at {resumed}")
