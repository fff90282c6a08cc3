#!/usr/bin/env python
"""CI smoke test for ``repro serve``.

Boots the real server CLI as a subprocess (unix socket, 2 worker
processes), drives **three concurrent streams from two tenants** through
it with a live subscriber attached, and asserts:

* every stream gets ``open`` -> ... -> ``final`` -> ``closed``, with the
  final verdict equal to the batch ``possibly_bad``/``definitely`` oracle
  computed on that stream's deposet alone;
* the subscriber saw its tenant's events and nobody else's;
* ``SIGINT`` drains the server cleanly within a timeout (exit code 0,
  "drained" on stderr).

Also exercises the file-tail path: ``repro tail --follow`` against a file
that is written in two halves with a torn record boundary in between, and
``repro watch --format json``, asserting both emit the same final verdict
as the served session (the one-schema guarantee).

Run as ``PYTHONPATH=src python scripts/serve_smoke.py``; exits non-zero
on the first deviation.
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
from repro.serve.client import stream_events, subscribe  # noqa: E402
from repro.trace.io import write_event_stream  # noqa: E402
from repro.workloads import availability_predicate, random_deposet  # noqa: E402

PREDICATE = "at-least-one:up"
TIMEOUT = 60


def make_stream(seed):
    dep = random_deposet(seed=seed, n=3, events_per_proc=6,
                         message_rate=0.4, flip_rate=0.4)
    buf = io.StringIO()
    write_event_stream(dep, buf)
    return dep, buf.getvalue().splitlines()


def oracle(dep):
    pred = availability_predicate(dep.n, "up")
    witness = possibly_bad(dep, pred)
    df = definitely(dep, pred.negated()) if witness is not None else False
    return witness, df


def check(cond, message):
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


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


def smoke(tmp):
    sock = os.path.join(tmp, "serve.sock")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--listen", f"unix:{sock}",
         "--workers", "2", "--batch", "8"],
        env={**os.environ, "PYTHONPATH": "src"},
        stderr=subprocess.PIPE, text=True,
    )
    try:
        wait_for_socket(sock, server)

        streams = {(f"t{i % 2}", f"run-{i}"): make_stream(100 + i)
                   for i in range(3)}
        subscribed = []

        async def drive():
            stop = asyncio.Event()
            sub = asyncio.ensure_future(subscribe(
                f"unix:{sock}", "t0", subscribed.append, stop=stop))
            await asyncio.sleep(0.2)
            outs = await asyncio.gather(*[
                stream_events(f"unix:{sock}", tenant, session, PREDICATE,
                              dep_lines[1], timeout=TIMEOUT)
                for (tenant, session), dep_lines in streams.items()
            ])
            stop.set()
            await sub
            return outs

        outs = asyncio.run(asyncio.wait_for(drive(), TIMEOUT))

        finals = {}
        for ((tenant, session), (dep, _lines)), events in zip(
            streams.items(), outs
        ):
            kinds = [e["e"] for e in events]
            check(kinds[0] == "open" and kinds[-1] == "closed",
                  f"{tenant}/{session}: open..closed framing")
            final = [e for e in events if e["e"] == "final"]
            check(len(final) == 1, f"{tenant}/{session}: exactly one final")
            final = final[0]
            witness, df = oracle(dep)
            got = tuple(final["witness"]) if final["witness"] is not None \
                else None
            check(got == witness and final["definitely"] == df
                  and final["degraded"] is False,
                  f"{tenant}/{session}: final == batch oracle {witness}")
            finals[(tenant, session)] = final

        check(subscribed and
              all(e["tenant"] == "t0" for e in subscribed),
              "subscriber saw only tenant t0 events")
        check(any(e["e"] == "final" for e in subscribed),
              "subscriber saw a final verdict")

        # one-schema guarantee: watch --format json on the same stream
        # produces the same final verdict payload
        (tenant, session), (dep, lines) = next(iter(streams.items()))
        spath = os.path.join(tmp, "one.jsonl")
        Path(spath).write_text("\n".join(lines) + "\n")
        watch = subprocess.run(
            [sys.executable, "-m", "repro", "watch", spath,
             "--predicate", PREDICATE, "--format", "json"],
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, timeout=TIMEOUT,
        )
        wfinal = [json.loads(ln) for ln in watch.stdout.splitlines()
                  if '"final"' in ln][0]
        sfinal = finals[(tenant, session)]
        same = {k: wfinal[k] for k in ("witness", "definitely", "pending",
                                       "degraded", "seq")}
        check(same == {k: sfinal[k] for k in same},
              "watch --format json final == served final")

        # tail --follow across a torn write
        grow = os.path.join(tmp, "grow.jsonl")
        half = len(lines) // 2
        Path(grow).write_text("\n".join(lines[:half]) + "\n"
                              + lines[half][:4])
        tail = subprocess.Popen(
            [sys.executable, "-m", "repro", "tail", grow,
             "--predicate", PREDICATE, "--format", "json", "--follow"],
            env={**os.environ, "PYTHONPATH": "src"},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        time.sleep(2.0)  # the tail is waiting on the torn line
        Path(grow).write_text("\n".join(lines) + "\n")
        time.sleep(2.0)
        tail.send_signal(signal.SIGINT)
        try:
            tail_out, _tail_err = tail.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            tail.kill()
            sys.exit("tail --follow did not stop on SIGINT")
        tfinal = [json.loads(ln) for ln in tail_out.splitlines()
                  if '"final"' in ln]
        check(bool(tfinal) and tfinal[0]["seq"] == sfinal["seq"],
              "tail --follow rode through the torn record to the full verdict")

        # graceful drain on SIGINT, bounded
        server.send_signal(signal.SIGINT)
        try:
            _out, err = server.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            sys.exit("server did not drain within 10s of SIGINT")
        check(server.returncode == 0, "server exited 0 after SIGINT")
        check("drained" in err, "server reported a clean drain")

        # --lint: the per-session streaming linter pushes
        # repro-findings/1 events interleaved with the verdict stream
        lint_sock = os.path.join(tmp, "lint.sock")
        lint_server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--listen",
             f"unix:{lint_sock}", "--workers", "1", "--lint"],
            env={**os.environ, "PYTHONPATH": "src"},
            stderr=subprocess.PIPE, text=True,
        )
        try:
            wait_for_socket(lint_sock, lint_server)
            # a crossed delivery: the T007 finding fires mid-stream
            crossed = [
                json.dumps({"format": "repro-events/1", "n": 2,
                            "start": [{"up": True}, {"up": True}]}),
                json.dumps({"t": "ev", "p": 0, "u": {}}),
                json.dumps({"t": "ev", "p": 0, "u": {}}),
                json.dumps({"t": "recv", "p": 1, "src": [0, 1], "u": {}}),
                json.dumps({"t": "recv", "p": 1, "src": [0, 0], "u": {}}),
            ]
            lint_seen = []

            async def drive_lint():
                stop = asyncio.Event()
                sub = asyncio.ensure_future(subscribe(
                    f"unix:{lint_sock}", "t0", lint_seen.append, stop=stop))
                await asyncio.sleep(0.2)
                out = await stream_events(
                    f"unix:{lint_sock}", "t0", "lint-run", PREDICATE,
                    crossed, timeout=TIMEOUT,
                )
                stop.set()
                await sub
                return out

            lint_events = asyncio.run(
                asyncio.wait_for(drive_lint(), TIMEOUT))
            findings = [e for e in lint_events if e["e"] == "finding"]
            summaries = [e for e in lint_events if e["e"] == "lint"]
            check(findings and findings[0]["rule"] == "T007"
                  and findings[0]["format"] == "repro-findings/1"
                  and findings[0]["fp"],
                  "served stream pushed the T007 repro-findings/1 event")
            check(len(summaries) == 1
                  and summaries[0]["findings"] >= 1
                  and summaries[0]["format"] == "repro-findings/1",
                  "served stream closed with one lint summary")
            kinds = [e["e"] for e in lint_events]
            check(kinds.index("lint") < kinds.index("final"),
                  "lint summary precedes the final verdict")
            check(any(e["e"] == "finding" for e in lint_seen),
                  "subscriber received a repro-findings/1 event")
        finally:
            if lint_server.poll() is None:
                lint_server.send_signal(signal.SIGINT)
                try:
                    lint_server.communicate(timeout=10)
                except subprocess.TimeoutExpired:
                    lint_server.kill()

        print("serve smoke: all checks passed")
    finally:
        if server.poll() is None:
            server.kill()


def main():
    tmp = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    try:
        smoke(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
