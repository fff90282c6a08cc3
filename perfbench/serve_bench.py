"""The ``serve-inline`` and ``serve-durable`` workloads.

One generator process (this one) drives a ``repro serve`` subprocess
over a unix socket in a closed loop: the connection sends its next
session only after the previous one finished (``closed`` for plain
streams; the durable client's last word is the ``final`` verdict).  Sessions go through the program's own clients,
``stream_events`` and ``stream_events_durable``; a patched
``open_connection`` hands them reader/writer wrappers that timestamp
end-of-stream, the final verdict and the time spent blocked in
``drain()``.

A run has four parts:

1. set-up: one untimed cold start, then ``COLD_STARTS`` timed ones
   (spawn until the socket accepts); the last server stays up;
2. warm-up sessions (untimed, still checked);
3. the timed streaming phase, ``--seconds`` long;
4. the crash phase: sessions are stopped at a fixed record, the
   server's process group is killed with SIGKILL, a standby server (its
   interpreter already started) is told to start on the same socket and
   durability directory, and the interrupted sessions are resumed
   (durable) or streamed again from the start (in-memory).

Every session is compared with an in-process ``DetectionSession`` over
the same lines before any number is kept; a mismatch is a failed
operation and stays in the counts.
"""

from __future__ import annotations

import asyncio
import contextvars
import glob
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import corpus
import spans
from common import (
    bytes_written,
    median,
    peak_rss_kb,
    percentile,
    process_tree,
    sample_counts,
)
from repro.serve import client as serve_client
from repro.serve.client import Backoff, stream_events, stream_events_durable
from repro.serve.protocol import dumps_event
from repro.serve.server import SERVE_FORMAT
from repro.serve.session import DetectionSession

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launch_serve.py")
TENANT = "bench"
#: one connection: with two, the generator, the server and its workers
#: overfill the two CPUs and runs measure the host's scheduling (steal
#: time rose to 25-40%) more than the program
CONNECTIONS = 1
#: a run is ROUNDS rounds spread over its length, so every metric samples
#: the whole run rather than one stretch of it: each round cold-starts
#: COLD_STARTS servers (the last one serves), warms it up, streams for
#: seconds / ROUNDS, then runs CRASH_CYCLES kill/restart cycles
ROUNDS = 4
COLD_STARTS = 2
WARMUP_SESSIONS = 8
CRASH_CYCLES = 2
#: the traced run alternates untraced and traced servers this many times
TRACED_ROUNDS = 2
#: interrupted sessions stop after this share of their records
CRASH_AT = 0.75
#: three copies of corpus.SERVE_SHAPES: the final verdict's *definitely*
#: pass makes a stream's cost depend on its content, so more draws of
#: each shape keep the corpus mean steady across seeds
CORPUS_SIZE = 3 * 98
TIMEOUT = 60.0

_STAT: contextvars.ContextVar = contextvars.ContextVar("session_stat")


@dataclass
class Session:
    """Client-side record of one session (``perf_counter`` seconds)."""

    records: int = 0
    t_hello: float = 0.0
    t_eof: float = 0.0
    t_final: float = 0.0
    t_done: float = 0.0
    drain_s: float = 0.0
    #: bytes the server sent this session (socket writes are not in
    #: the server's /proc wchar, so the client counts them)
    rx_bytes: int = 0
    ok: bool = False
    #: self-test: damage this session's final verdict line on receipt
    corrupt: bool = False


@dataclass
class Phase:
    """The sessions of one timed block, and the server that ran them."""

    server_pid: int
    sessions: List[Session] = field(default_factory=list)

    @property
    def ok(self) -> List[Session]:
        return [s for s in self.sessions if s.ok]

    @property
    def window(self) -> Tuple[int, int]:
        """First hello to last finish, in ``perf_counter_ns`` units."""
        ok = self.ok
        return (int(min(s.t_hello for s in ok) * 1e9),
                int(max(s.t_done for s in ok) * 1e9))


def records_per_s(phases: List[Phase]) -> float:
    records = sum(s.records for p in phases for s in p.ok)
    wall_ns = sum(p.window[1] - p.window[0] for p in phases)
    return records / (wall_ns / 1e9)


class _TimedWriter:
    def __init__(self, writer, stat: Session):
        self._w, self._stat = writer, stat

    def write(self, data: bytes) -> None:
        if data == b'{"t":"end"}\n':  # the durable end-of-stream frame
            self._stat.t_eof = time.perf_counter()
        self._w.write(data)

    def write_eof(self) -> None:
        self._w.write_eof()
        self._stat.t_eof = time.perf_counter()

    async def drain(self) -> None:
        t0 = time.perf_counter()
        await self._w.drain()
        self._stat.drain_s += time.perf_counter() - t0

    def close(self) -> None:
        self._w.close()

    async def wait_closed(self) -> None:
        await self._w.wait_closed()


class _TimedReader:
    def __init__(self, reader, stat: Session):
        self._r, self._stat = reader, stat

    async def readline(self) -> bytes:
        raw = await self._r.readline()
        self._stat.rx_bytes += len(raw)
        if b'"e":"final"' in raw:
            self._stat.t_final = time.perf_counter()
            if self._stat.corrupt:
                raw = raw.replace(b'"degraded":false', b'"degraded":true')
        return raw


_open_connection = serve_client.open_connection


async def _timed_open_connection(connect: str):
    """The client's ``open_connection``, wrapped for the session that
    the calling task is running (if any)."""
    reader, writer = await _open_connection(connect)
    stat = _STAT.get(None)
    if stat is None:
        return reader, writer
    return _TimedReader(reader, stat), _TimedWriter(writer, stat)


def reference(stream: corpus.Stream) -> List[str]:
    """What an uninterrupted in-process session emits, as wire lines,
    with the session name left as ``REF`` for substitution."""
    sess = DetectionSession(TENANT, "REF", corpus.header(stream),
                            corpus.SERVE_PREDICATE)
    sess.open_event()
    sess.feed(stream.lines[1:], base_lineno=2)
    sess.finalize()
    return [dumps_event(e) for e in sess.events_log]


def matches(events: List[Dict[str, Any]], ref: List[str], name: str,
            durable: bool) -> bool:
    if not durable:
        if not events or events[-1].get("e") != "closed" \
                or events[-1].get("session") != name:
            return False
        events = events[:-1]
    want = '"session":"%s"' % name
    return [dumps_event(e) for e in events] == [
        line.replace('"session":"REF"', want) for line in ref
    ]


class Server:
    """One ``launch_serve.py`` subprocess in its own process group."""

    def __init__(self, bench: "ServeBench", *, standby: bool = False,
                 traced: bool = False):
        self.bench = bench
        bench.servers.append(self)
        cmd = [sys.executable, LAUNCHER]
        if standby:
            cmd.append("--standby")
        if traced:
            cmd += ["--trace", bench.trace_dir]
        cmd += ["--", "--listen", f"unix:{bench.sock}", *bench.serve_args]
        self.log = open(os.path.join(bench.work, "server.log"), "a")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=bench.root, start_new_session=True,
            stdin=subprocess.PIPE if standby else subprocess.DEVNULL,
            stdout=subprocess.PIPE if standby else subprocess.DEVNULL,
            stderr=self.log, text=True,
        )
        if standby:
            line = self.proc.stdout.readline()
            if line.strip() != "ready":
                raise RuntimeError("standby server did not get ready")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def go(self) -> None:
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()

    async def accepted(self, deadline: float = 30.0) -> float:
        """Poll-connect until the socket accepts; returns that moment."""
        t_end = time.perf_counter() + deadline
        while time.perf_counter() < t_end:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}"
                                   f" (see {self.log.name})")
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    s.connect(self.bench.sock)
                    return time.perf_counter()
                finally:
                    s.close()
            except OSError:
                await asyncio.sleep(0.001)
        raise RuntimeError("server never accepted a connection")

    def tree(self) -> List[int]:
        return process_tree(self.pid)

    def dump_spans(self) -> None:
        """Ask every process of a traced server to write its spans out
        (before the crash phase kills it)."""
        pids = self.tree()
        before = set(glob.glob(os.path.join(self.bench.trace_dir, "*.json")))
        os.killpg(self.pid, signal.SIGUSR1)
        t_end = time.time() + 10
        while time.time() < t_end:
            new = set(glob.glob(os.path.join(self.bench.trace_dir,
                                             "*.json"))) - before
            if len(new) >= len(pids):
                return
            time.sleep(0.01)

    def kill(self) -> None:
        if self.log.closed:
            return
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)
        self._close()

    def stop(self) -> None:
        """SIGINT drain; SIGKILL the group if it does not finish."""
        if self.log.closed:
            return
        if self.proc.poll() is None:
            if self.proc.stdin:
                self.proc.stdin.close()  # an unused standby exits on EOF
            try:
                os.killpg(self.pid, signal.SIGINT)
            except ProcessLookupError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)
        self._close()

    def _close(self) -> None:
        for fh in (self.proc.stdin, self.proc.stdout):
            if fh:
                fh.close()
        self.log.close()


class PauseAt:
    """Durable-client transport that stops sending after ``frames``
    frames (header frame included) and never sends the rest."""

    def __init__(self, frames: int):
        self.frames = frames
        self.sent = 0
        self.reached = asyncio.Event()

    def new_connection(self) -> None:
        pass

    async def send(self, writer, line: str) -> None:
        if self.sent >= self.frames:
            self.reached.set()
            await asyncio.Event().wait()  # parked until cancelled
        writer.write((line + "\n").encode())
        self.sent += 1


class ServeBench:
    def __init__(self, *, durable: bool, seed: int, seconds: float,
                 traced: bool, work: str, root: str,
                 corpus_size: int = CORPUS_SIZE,
                 corrupt_session: Optional[int] = None,
                 rounds: int = ROUNDS, cold_starts: int = COLD_STARTS,
                 crash_cycles: int = CRASH_CYCLES,
                 warmup: int = WARMUP_SESSIONS):
        self.durable = durable
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.root = root
        self.work = work
        self.rounds = rounds
        self.cold_starts = cold_starts
        self.crash_cycles = crash_cycles
        self.warmup = warmup
        self.corrupt_session = corrupt_session
        self.sock = os.path.relpath(os.path.join(work, "s.sock"), root)
        self.trace_dir = os.path.join(work, "spans")
        self.dur_dir = os.path.join(work, "durable")
        os.makedirs(self.trace_dir, exist_ok=True)
        if durable:
            self.serve_args = ["--workers", "2", "--durable",
                               os.path.relpath(self.dur_dir, root),
                               "--fsync", "batch"]
        else:
            self.serve_args = ["--workers", "0"]
        self.corpus = corpus.serve_corpus(seed, corpus_size)
        self.crash = corpus.crash_docs(seed, 2 * rounds * crash_cycles)
        # correctness references, computed before anything is timed
        self.refs = {s.name: reference(s) for s in self.corpus + self.crash}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.samples: Dict[str, int] = {}
        self.servers: List[Server] = []
        serve_client.open_connection = _timed_open_connection

    def measure(self) -> Dict[str, Any]:
        return asyncio.run(self.run_traced() if self.traced
                           else self.run_untraced())

    def shutdown(self) -> None:
        """Stop every server process this run started (idempotent)."""
        for server in self.servers:
            server.stop()

    # -- sessions -----------------------------------------------------------

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    async def _stream(self, stream: corpus.Stream, name: str,
                      stat: Session, backoff_seed: int) -> bool:
        """One session through the program's client, checked against the
        reference; a mismatch or an error is a failed operation."""
        stat.corrupt = self.attempted == self.corrupt_session
        self.attempted += 1
        token = _STAT.set(stat)
        try:
            if self.durable:
                events = await stream_events_durable(
                    f"unix:{self.sock}", TENANT, name,
                    corpus.SERVE_PREDICATE, stream.lines, timeout=TIMEOUT,
                    backoff=Backoff(seed=backoff_seed))
            else:
                events = await stream_events(
                    f"unix:{self.sock}", TENANT, name,
                    corpus.SERVE_PREDICATE, stream.lines, timeout=TIMEOUT)
            if matches(events, self.refs[stream.name], name, self.durable):
                return True
            self._fail(f"{name}: verdict stream differs from reference")
        except Exception as exc:  # counted, never dropped
            self._fail(f"{name}: {type(exc).__name__}: {exc}")
        finally:
            _STAT.reset(token)
        return False

    async def closed_loop(self, server: Server, prefix: str, *,
                          seconds: float = 0.0, count: int = 0) -> Phase:
        """``CONNECTIONS`` connections, each sending its next session only
        after the last one finished, for ``seconds`` or ``count``
        sessions."""
        phase = Phase(server.pid)
        next_k = iter(range(1 << 30))
        deadline = time.perf_counter() + seconds

        async def conn() -> None:
            while True:
                k = next(next_k)
                if (k >= count) if count else time.perf_counter() >= deadline:
                    return
                stream = self.corpus[k % len(self.corpus)]
                sess = Session(stream.records, time.perf_counter())
                sess.ok = await self._stream(stream, f"{prefix}{k}", sess,
                                             self.seed * 7919 + k)
                sess.t_done = time.perf_counter()
                phase.sessions.append(sess)

        await asyncio.gather(*(conn() for _ in range(CONNECTIONS)))
        return phase

    # -- phases -------------------------------------------------------------

    async def cold_start(self, previous: Optional[Server]) -> (float, Server):
        """Kill ``previous``, start a fresh server; seconds to accept."""
        if previous is not None:
            previous.kill()
            shutil.rmtree(self.dur_dir, ignore_errors=True)
        server = Server(self)
        return await server.accepted() - server.t_spawn, server

    async def crash_cycles_run(self, server: Server, first: int, count: int,
                               traced: bool) -> (List[float], Server):
        """``count`` kill/restart cycles; returns recovery times and the
        restarted server now serving."""
        recoveries = []
        for cycle in range(first, first + count):
            standby = Server(self, standby=True, traced=traced)
            docs = self.crash[2 * cycle:2 * cycle + 2]
            names = [f"k{cycle}-{j}" for j in range(len(docs))]
            cut = [int(d.records * CRASH_AT) for d in docs]
            if self.durable:
                pauses = [PauseAt(c + 1) for c in cut]  # + header frame
                tasks = [asyncio.ensure_future(stream_events_durable(
                    f"unix:{self.sock}", TENANT, n, corpus.SERVE_PREDICATE,
                    d.lines, timeout=TIMEOUT, transport=p,
                    backoff=Backoff(seed=self.seed + cycle)))
                    for d, n, p in zip(docs, names, pauses)]
                waits = [p.reached.wait() for p in pauses]
            else:
                reached = [asyncio.Event() for _ in docs]
                tasks = [asyncio.ensure_future(self._partial_plain(
                    d, n, c, r)) for d, n, c, r in zip(docs, names, cut,
                                                       reached)]
                waits = [r.wait() for r in reached]
            await asyncio.wait_for(asyncio.gather(*waits), TIMEOUT)
            await asyncio.sleep(0.1)  # let the server apply what it got
            if traced:
                server.dump_spans()
            server.kill()
            for t in tasks:
                t.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            # restart: the standby starts serving; clients reconnect once
            # the socket accepts (no backoff sleep inside the number)
            t_restart = time.perf_counter()
            standby.go()
            server = standby
            await server.accepted()
            stats = [Session() for _ in docs]
            results = await asyncio.gather(*(
                self._stream(d, n, s, self.seed * 31 + cycle)
                for d, n, s in zip(docs, names, stats)))
            if all(results):
                recoveries.append(max(s.t_final for s in stats) - t_restart)
        return recoveries, server

    async def _partial_plain(self, doc: corpus.Stream, name: str, cut: int,
                             reached: asyncio.Event) -> None:
        """An in-memory session that stops after ``cut`` records."""
        reader, writer = await _open_connection(f"unix:{self.sock}")
        hello = {"format": SERVE_FORMAT, "t": "hello", "tenant": TENANT,
                 "session": name, "predicate": corpus.SERVE_PREDICATE}
        writer.write((dumps_event(hello) + "\n").encode())
        writer.write(("\n".join(doc.lines[:cut + 1]) + "\n").encode())
        await writer.drain()
        reached.set()
        try:
            while await reader.readline():
                pass
        finally:
            writer.close()

    # -- runs ---------------------------------------------------------------

    async def run_untraced(self) -> Dict[str, Any]:
        setups, recoveries, rss_kb, phases = [], [], [], []
        wrote = 0
        # the very first start fills bytecode caches: not a sample
        _t, server = await self.cold_start(None)
        for r in range(self.rounds):
            for _ in range(self.cold_starts):
                took, server = await self.cold_start(server)
                setups.append(took)
            await self.closed_loop(server, f"w{r}-", count=self.warmup)
            pids = server.tree()
            w0 = bytes_written(pids)
            phase = await self.closed_loop(server, f"m{r}-",
                                           seconds=self.seconds / self.rounds)
            wrote += bytes_written(pids) - w0 + sum(
                s.rx_bytes for s in phase.sessions)
            rss_kb.append(peak_rss_kb(server.tree()))
            phases.append(phase)
            rec, server = await self.crash_cycles_run(
                server, r * self.crash_cycles, self.crash_cycles, False)
            recoveries += rec
        server.stop()
        ok = [s for p in phases for s in p.ok]
        if not ok or not recoveries:
            raise RuntimeError("no successful timed session or recovery")
        finals = [(s.t_final - s.t_eof) * 1e3 for s in ok]
        loops = [(s.t_done - s.t_hello) * 1e3 for s in ok]
        self.samples = sample_counts(len(setups), len(ok), len(rss_kb),
                                     len(recoveries))
        return {
            "setup_s": (median(setups), "s"),
            "records_per_s": (records_per_s(phases), "1/s"),
            "final_ms.p50": (percentile(finals, 0.5), "ms"),
            "final_ms.p90": (percentile(finals, 0.9), "ms"),
            "loop_ms.p50": (percentile(loops, 0.5), "ms"),
            "loop_ms.p90": (percentile(loops, 0.9), "ms"),
            "peak_rss_mb": (median(rss_kb) / 1024.0, "MB"),
            "recovery_ms.p50": (median(recoveries) * 1e3, "ms"),
            "bytes_written_per_record": (
                wrote / sum(s.records for s in ok), "B"),
        }

    async def run_traced(self) -> Dict[str, Any]:
        """Untraced and traced servers alternate, with the same session
        sequence in every block; the last traced server then runs a few
        kill/restart cycles so the recovery layers are traced too."""
        plain, traced = [], []
        block = self.seconds / (2 * TRACED_ROUNDS)
        for r in range(TRACED_ROUNDS):
            for with_spans in (False, True):
                server = Server(self, traced=with_spans)
                await server.accepted()
                await self.closed_loop(server, f"w{r}{with_spans:d}-",
                                       count=self.warmup)
                phase = await self.closed_loop(server, f"m{r}{with_spans:d}-",
                                               seconds=block)
                (traced if with_spans else plain).append(phase)
                if with_spans and r == TRACED_ROUNDS - 1:
                    _rec, server = await self.crash_cycles_run(
                        server, 0, self.crash_cycles, True)
                server.stop()
                shutil.rmtree(self.dur_dir, ignore_errors=True)
        ok = [s for p in traced for s in p.ok]
        if not ok or not any(p.ok for p in plain):
            raise RuntimeError("no successful timed session")
        dumps = spans.load_dumps(glob.glob(os.path.join(self.trace_dir,
                                                        "spans-*.json")))
        windows = [p.window for p in traced]
        covered = sum(spans.covered_ns(d["spans"], *p.window)
                      for p in traced for d in dumps
                      if d["pid"] == p.server_pid)
        traced_ns = sum(hi - lo for lo, hi in windows)
        self.samples = {"sessions": len(ok)}
        return serve_layers(
            spans.Profile(dumps, windows), spans.Profile(dumps),
            sum(s.records for s in ok), ok,
            unattributed=100.0 * (1 - covered / traced_ns),
            overhead=100.0 * (1 - records_per_s(traced)
                              / records_per_s(plain)))


def serve_layers(prof: spans.Profile, whole: spans.Profile, records: int,
                 ok: List[Session], *, unattributed: float,
                 overhead: float) -> Dict[str, Any]:
    """Per-layer metrics: ``prof`` covers the traced streaming blocks,
    ``whole`` every span (the recovery layers run outside the blocks)."""
    sessions = len(ok)
    rtts = [v / 1e6 for v in whole.notes["serve.workers.batch_rtt_ns"]]
    batch = whole.notes["serve.workers.lines_per_batch"]
    replayed = whole.notes["serve.durability.replayed_records"]
    ckpt_us = (prof.mean_us("serve.session.snapshot")
               + prof.mean_us("serve.durability.commit_checkpoint"))
    return {
        "serve.session.feed_self_us": (
            prof.mean_us("serve.session.feed_line", self_only=True), "us"),
        "trace.io.apply_us": (
            prof.mean_us("trace.io.apply_stream_record"), "us"),
        "detection.poll_us": (prof.mean_us("detection.poll"), "us"),
        "detection.finalize_ms": (
            prof.mean_us("detection.finalize") / 1e3, "ms"),
        "serve.protocol.dumps_us": (
            prof.mean_us("serve.protocol.dumps_event"), "us"),
        "serve.protocol.events_per_record": (
            prof.calls["serve.protocol.dumps_event"] / records, "1/record"),
        "serve.workers.batch_rtt_ms.p50": (
            percentile(rtts, 0.5) if rtts else 0.0, "ms"),
        "serve.workers.batch_rtt_ms.p90": (
            percentile(rtts, 0.9) if rtts else 0.0, "ms"),
        "serve.workers.lines_per_batch": (
            sum(batch) / len(batch) if batch else 0.0, "lines"),
        "serve.durability.wal_append_us": (
            prof.mean_us("serve.durability.log_record"), "us"),
        "serve.durability.flush_ms": (
            prof.mean_us("serve.durability.flush") / 1e3, "ms"),
        "serve.durability.flushes": (
            prof.calls["serve.durability.flush"] / sessions, "1/session"),
        "serve.durability.checkpoint_ms": (ckpt_us / 1e3, "ms"),
        "serve.durability.checkpoints": (
            prof.calls["serve.durability.commit_checkpoint"] / sessions,
            "1/session"),
        "serve.durability.recover_ms": (
            whole.mean_us("serve.durability.recover_all") / 1e3, "ms"),
        "serve.session.restore_ms": (
            whole.mean_us("serve.session.restore") / 1e3, "ms"),
        "serve.durability.replayed_records": (
            sum(replayed) / len(replayed) if replayed else 0.0,
            "1/restore"),
        "client.drain_wait_ms": (
            sum(s.drain_s for s in ok) * 1e3 / len(ok), "ms"),
        "traced.unattributed_pct": (unattributed, "%"),
        "traced.overhead_pct": (overhead, "%"),
    }
