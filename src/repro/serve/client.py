"""Client side of ``repro-serve/1``: dial, stream, subscribe, resume.

Thin async helpers over the wire protocol documented in
:mod:`repro.serve.server`, plus the ``host:port`` / ``unix:PATH``
connect-string parser shared by ``repro serve`` and ``repro tail``.
Tests, the E16/E17 benchmarks, and the CI smoke scripts all drive
servers through these helpers so the protocol has exactly one client
implementation.

:func:`stream_events_durable` is the crash-safe producer: it speaks the
framed durable protocol (hello ``durable: true``, per-record sequence
numbers, an explicit end-of-stream marker) and survives any number of
connection losses by reconnecting with bounded exponential backoff and
retransmitting only the suffix the server has not yet made durable.
The verdict events it returns are byte-identical to what an
uninterrupted :func:`stream_events` run would have collected -- the
server replays missed events from its log and never duplicates one.
"""

from __future__ import annotations

import asyncio
import json
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.serve.protocol import dumps_event
from repro.serve.server import SERVE_FORMAT, _LINE_LIMIT

__all__ = [
    "parse_connect",
    "open_connection",
    "stream_events",
    "stream_events_durable",
    "subscribe",
    "Backoff",
    "StreamLostError",
]


class StreamLostError(ReproError):
    """A durable stream ran out of reconnect budget."""


class Backoff:
    """Bounded exponential backoff with jitter for retry loops.

    ``next_delay()`` returns the next sleep (``base * factor**attempt``,
    capped at ``max_delay``, stretched ±``jitter``), or ``None`` once
    ``max_retries`` attempts are spent.  ``reset()`` on success so a
    long-lived loop only pays for *consecutive* failures.  Shared by the
    durable stream client and the subscriber reconnect path;
    ``repro tail FILE --follow`` hands one to
    :func:`repro.trace.io.iter_stream_lines`.
    """

    def __init__(self, base: float = 0.05, factor: float = 2.0,
                 max_delay: float = 2.0, jitter: float = 0.25,
                 max_retries: Optional[int] = 10, seed: Optional[int] = None):
        if base <= 0 or factor < 1.0 or not (0.0 <= jitter < 1.0):
            raise ValueError("backoff needs base > 0, factor >= 1, "
                             "jitter in [0, 1)")
        self.base = base
        self.factor = factor
        self.max_delay = max_delay
        self.jitter = jitter
        self.max_retries = max_retries
        self.attempts = 0
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self.attempts = 0

    def next_delay(self) -> Optional[float]:
        if self.max_retries is not None and self.attempts >= self.max_retries:
            return None
        delay = min(self.base * (self.factor ** self.attempts),
                    self.max_delay)
        self.attempts += 1
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return delay


def parse_connect(connect: str) -> Tuple[str, Any]:
    """``"host:port"`` -> ``("tcp", (host, port))``;
    ``"unix:/path"`` -> ``("unix", "/path")``."""
    if connect.startswith("unix:"):
        path = connect[len("unix:"):]
        if not path:
            raise ValueError("unix: connect string needs a socket path")
        return ("unix", path)
    host, sep, port = connect.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"connect string {connect!r} is neither 'host:port' nor 'unix:PATH'"
        )
    return ("tcp", (host or "127.0.0.1", int(port)))


async def open_connection(
    connect: str,
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    kind, target = parse_connect(connect)
    if kind == "unix":
        return await asyncio.open_unix_connection(target, limit=_LINE_LIMIT)
    host, port = target
    return await asyncio.open_connection(host, port, limit=_LINE_LIMIT)


def _hello(t: str, **fields: Any) -> bytes:
    hello = {"format": SERVE_FORMAT, "t": t}
    hello.update(fields)
    return (dumps_event(hello) + "\n").encode()


async def stream_events(
    connect: str,
    tenant: str,
    session: str,
    predicate: str,
    lines: Sequence[str],
    *,
    timeout: float = 60.0,
    chunk: int = 256,
) -> List[Dict[str, Any]]:
    """Stream a whole ``repro-events/1`` document (header line first) to a
    server and collect every verdict event until ``closed`` / EOF.

    The stream side half-closes after the last record, which is the
    protocol's end-of-stream signal; verdicts keep flowing back on the
    same socket.  Writes pause on the transport's own flow control
    (``drain``), so a paused server session propagates backpressure all
    the way into this coroutine.
    """
    reader, writer = await open_connection(connect)
    events: List[Dict[str, Any]] = []

    async def pump() -> None:
        writer.write(_hello("hello", tenant=tenant, session=session,
                            predicate=predicate))
        for start in range(0, len(lines), chunk):
            payload = "".join(
                line.rstrip("\n") + "\n"
                for line in lines[start:start + chunk]
            )
            writer.write(payload.encode())
            await writer.drain()
        writer.write_eof()

    pump_task = asyncio.ensure_future(pump())
    try:
        while True:
            raw = await asyncio.wait_for(reader.readline(), timeout)
            if raw == b"":
                break
            events.append(json.loads(raw.decode()))
            # read until the server's last word (after an error the server
            # still closes the socket, so EOF ends the loop either way)
            if events[-1].get("e") == "closed":
                break
    finally:
        pump_task.cancel()
        await asyncio.gather(pump_task, return_exceptions=True)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError, OSError):
            pass
    return events


async def stream_events_durable(
    connect: str,
    tenant: str,
    session: str,
    predicate: str,
    lines: Sequence[str],
    *,
    timeout: float = 60.0,
    backoff: Optional[Backoff] = None,
    transport=None,
) -> List[Dict[str, Any]]:
    """Stream a ``repro-events/1`` document over the durable protocol,
    surviving connection loss by resuming from the server's watermark.

    ``lines[0]`` must be the stream header.  ``transport``, if given, is
    a :class:`~repro.serve.faulty.FaultyTransport`-style object whose
    ``send(writer, line)`` coroutine forwards (or mangles) each outgoing
    wire line -- the chaos harness's injection point.  Raises
    :class:`StreamLostError` when the reconnect budget is spent; the
    budget counts *consecutive no-progress* failures only (an attempt
    that advanced the server's durable watermark or collected new events
    resets it), so a stream that keeps moving survives any number of
    connection losses.
    """
    bo = backoff or Backoff()
    events: List[Dict[str, Any]] = []
    records = [l.rstrip("\n") for l in lines[1:] if l.strip()]
    header_line = lines[0].rstrip("\n")
    #: (durable watermark, events collected) high-water mark across
    #: attempts -- an attempt that beats it earns a backoff reset, so the
    #: budget only counts *consecutive* failures that made no progress
    progress = (-1, -1)

    async def send(writer: asyncio.StreamWriter, line: str) -> None:
        if transport is not None:
            await transport.send(writer, line)
        else:
            writer.write((line + "\n").encode())

    while True:
        try:
            reader, writer = await open_connection(connect)
        except (ConnectionError, OSError) as exc:
            delay = bo.next_delay()
            if delay is None:
                raise StreamLostError(
                    f"durable stream {tenant}/{session}: server unreachable "
                    f"after {bo.attempts} attempt(s): {exc}"
                )
            await asyncio.sleep(delay)
            continue
        if transport is not None:
            transport.new_connection()
        done, watermark = await _durable_attempt(
            reader, writer, tenant, session, predicate,
            header_line, records, events, send, timeout,
        )
        if done:
            return events
        marker = (watermark, len(events))
        if marker > progress:
            progress = marker
            bo.reset()
        delay = bo.next_delay()
        if delay is None:
            raise StreamLostError(
                f"durable stream {tenant}/{session}: gave up after "
                f"{bo.attempts} reconnect(s) ({len(events)} event(s) so far)"
            )
        await asyncio.sleep(delay)


async def _durable_attempt(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    tenant: str,
    session: str,
    predicate: str,
    header_line: str,
    records: Sequence[str],
    events: List[Dict[str, Any]],
    send,
    timeout: float,
) -> Tuple[bool, int]:
    """One connection's worth of the durable protocol; returns
    ``(done, watermark)`` where ``done`` means the final verdict landed
    (the stream is complete) and ``watermark`` is the highest durable
    seq the server reported this attempt (``-1`` before the handshake)
    -- the caller's progress signal for resetting its backoff."""
    pump_task: Optional[asyncio.Future] = None
    watermark = -1
    try:
        writer.write(_hello("hello", tenant=tenant, session=session,
                            predicate=predicate, durable=True,
                            have_events=len(events)))
        await writer.drain()
        raw = await asyncio.wait_for(reader.readline(), timeout)
        first = json.loads(raw.decode()) if raw else None
        if not isinstance(first, dict) or first.get("e") != "_resume":
            if isinstance(first, dict) and first.get("e") == "error":
                events.append(first)
                return True, watermark  # refused outright: final
            return False, watermark
        start = int(first.get("seq", 0))
        watermark = start
        # If the server finished and closed the session but the closing
        # events never reached us, a reconnect lands on a *fresh* session
        # that deterministically regenerates the whole event stream; the
        # server's log length tells us how many incoming events are ones
        # we already collected and must skip to stay duplicate-free.
        skip = max(0, len(events) - int(first.get("events", 0)))

        async def pump() -> None:
            if start == 0:
                await send(writer, json.dumps(
                    {"t": "hdr", "line": header_line},
                    separators=(",", ":"),
                ))
            for i in range(start, len(records)):
                await send(writer, json.dumps(
                    {"t": "rec", "q": i + 1, "line": records[i]},
                    separators=(",", ":"),
                ))
                if (i - start) % 64 == 63:
                    await writer.drain()
            await send(writer, json.dumps({"t": "end"},
                                          separators=(",", ":")))
            await writer.drain()

        pump_task = asyncio.ensure_future(pump())
        while True:
            raw = await asyncio.wait_for(reader.readline(), timeout)
            if raw == b"":
                return False, watermark  # server went away: resume
            ev = json.loads(raw.decode())
            kind = ev.get("e", "")
            if kind.startswith("_"):
                if kind == "_durable":
                    watermark = max(watermark, int(ev.get("seq", 0)))
                continue  # in-band acks and friends
            if kind == "closed":
                return True, watermark
            if skip > 0:
                skip -= 1
                continue
            events.append(ev)
            if kind in ("final", "error"):
                return True, watermark  # terminal: don't risk 'closed'
    except (ConnectionError, OSError, asyncio.TimeoutError,
            json.JSONDecodeError, UnicodeDecodeError):
        return False, watermark
    finally:
        if pump_task is not None:
            pump_task.cancel()
            await asyncio.gather(pump_task, return_exceptions=True)
        with _suppress_conn_errors():
            writer.close()
            await writer.wait_closed()


class _suppress_conn_errors:
    """``async with``-free helper: swallow teardown socket errors."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return exc_type is not None and issubclass(
            exc_type, (ConnectionError, BrokenPipeError, OSError)
        )


async def subscribe(
    connect: str,
    tenant: str,
    on_event: Callable[[Dict[str, Any]], Any],
    *,
    stop: Optional[asyncio.Event] = None,
    timeout: float = 0.5,
) -> int:
    """Attach as a read-only subscriber and feed every pushed verdict
    event to ``on_event`` until ``stop`` is set or the server goes away.
    Returns the number of events received.  ``on_event`` may return a
    truthy value to stop early."""
    reader, writer = await open_connection(connect)
    count = 0
    try:
        writer.write(_hello("subscribe", tenant=tenant))
        await writer.drain()
        while stop is None or not stop.is_set():
            try:
                raw = await asyncio.wait_for(reader.readline(), timeout)
            except asyncio.TimeoutError:
                continue
            if raw == b"":
                break
            count += 1
            if on_event(json.loads(raw.decode())):
                break
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError, OSError):
            pass
    return count
