"""CLI surfaces: ``watch --format json``, ``repro tail``, quota specs.

The schema-sharing pin: ``repro watch --format json`` on a stream file
must emit the same event sequence ``repro serve`` pushes for that stream
(modulo the tenant/session naming), because both go through
:mod:`repro.serve.protocol` and nothing else.  ``repro tail FILE`` runs
watch's session loop, so its JSON equals watch's but for ``tenant``.
"""

import asyncio
import json
import os
import threading

import pytest

from repro.cli import _parse_quota, _stream_session, main
from repro.serve import (
    Backoff,
    ReproServer,
    ServeConfig,
    dumps_event,
    stream_events,
)
from repro.trace.io import iter_stream_lines, write_event_stream
from repro.workloads import random_deposet

from .conftest import PREDICATE, make_stream


@pytest.fixture
def stream_file(tmp_path):
    dep = random_deposet(seed=7, n=3, events_per_proc=6,
                         message_rate=0.4, flip_rate=0.4)
    path = tmp_path / "stream.jsonl"
    write_event_stream(dep, path)
    return path


def anonymize(event):
    return {k: v for k, v in event.items() if k not in ("tenant", "session")}


def assert_watch_equals_serve(stream_file, unix_sock, capsys):
    rc = main(["watch", str(stream_file), "--predicate", PREDICATE,
               "--format", "json"])
    watch_events = [
        json.loads(ln) for ln in capsys.readouterr().out.splitlines()
    ]

    async def scenario():
        server = ReproServer(ServeConfig(unix=unix_sock, workers=0))
        await server.start()
        try:
            lines = stream_file.read_text().splitlines()
            return await stream_events(f"unix:{unix_sock}", "t", "s",
                                       PREDICATE, lines, timeout=30)
        finally:
            await server.drain()

    serve_events = asyncio.run(scenario())
    assert [anonymize(e) for e in watch_events] == \
        [anonymize(e) for e in serve_events]
    assert rc in (0, 1)


def test_watch_json_equals_serve_events(stream_file, unix_sock, capsys):
    assert_watch_equals_serve(stream_file, unix_sock, capsys)


def test_watch_json_equals_serve_events_with_obs_record(stream_file,
                                                        unix_sock, capsys):
    """``closed`` counts the trailing ``obs`` line, as the server does."""
    assert_watch_equals_serve(variant(stream_file, "obs"), unix_sock, capsys)


def test_watch_json_verify_agrees_with_batch(stream_file, capsys):
    rc = main(["watch", str(stream_file), "--predicate", PREDICATE,
               "--format", "json", "--verify"])
    assert rc in (0, 1)  # 2 would be a streamed-vs-batch mismatch


def variant(path, kind):
    """``path`` (a clean stream) rewritten as a ``kind`` input."""
    lines = path.read_text().splitlines()
    if kind == "obs":
        lines.append(json.dumps({"t": "obs", "obs": {"k": 1}}))
    elif kind == "malformed":
        lines[8] = '{"t":"ev","p":9}'
    elif kind == "torn":
        path.write_text("\n".join(lines[:8]) + "\n" + lines[8][:5])
        return path
    path.write_text("\n".join(lines) + "\n")
    return path


def untenanted(events):
    return [{k: v for k, v in e.items() if k != "tenant"} for e in events]


def run_json(capsys, argv):
    rc = main(argv + ["--format", "json"])
    return rc, [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize("kind", ["clean", "obs", "malformed", "torn"])
def test_tail_json_equals_watch_json(stream_file, capsys, monkeypatch, kind):
    """One output contract: ``tail FILE`` and ``watch FILE`` print the same
    events (tenant aside), errors included, with the same exit code."""

    def no_event_loop(*_args, **_kwargs):
        raise AssertionError("reading a file must not start an event loop")

    monkeypatch.setattr(asyncio, "run", no_event_loop)
    path = str(variant(stream_file, kind))
    argv = [path, "--predicate", PREDICATE]
    tail_rc, tail = run_json(capsys, ["tail"] + argv)
    watch_rc, watch = run_json(capsys, ["watch"] + argv)
    assert untenanted(tail) == untenanted(watch)
    assert tail_rc == watch_rc
    assert {e["tenant"] for e in tail} == {"default"}
    if kind in ("clean", "obs"):
        assert tail_rc in (0, 1) and tail[-1]["e"] == "closed"
        return
    # lines 2..8 were applied before the bad line 9; as in ``repro
    # serve``, ``closed`` follows the error and counts the lines read
    assert tail_rc == 3
    error, closed = tail[-2:]
    assert error["e"] == "error" and error["code"] == "malformed"
    assert error["seq"] == 7 and error["where"] == f"{path}:9"
    assert closed["e"] == "closed"
    if kind == "torn":
        assert "the writer may still be appending" in error["message"]
        assert closed["seq"] == 7  # the torn line was never read whole
    else:
        assert closed["seq"] == 8


def test_watch_json_reports_malformed_record_as_error_event(stream_file,
                                                            capsys):
    path = str(variant(stream_file, "malformed"))
    rc, events = run_json(capsys, ["watch", path, "--predicate", PREDICATE])
    assert rc == 3
    error = events[-2]
    assert error["e"] == "error" and error["code"] == "malformed"
    assert error["where"] == f"{path}:9"
    assert "must be a process index" in error["message"]
    assert events[-1]["e"] == "closed"
    # text mode keeps its one stderr line
    assert main(["watch", path, "--predicate", PREDICATE]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {error['message']}\n"
    assert "error" not in captured.out


def test_tail_file_prints_verdict_events(stream_file, capsys):
    rc = main(["tail", str(stream_file), "--predicate", PREDICATE,
               "--format", "json"])
    events = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    kinds = [e["e"] for e in events]
    assert kinds[0] == "open" and kinds[-1] == "closed"
    final = [e for e in events if e["e"] == "final"]
    assert len(final) == 1
    assert rc == (1 if final[0]["witness"] is not None else 0)
    assert all(e["session"] == str(stream_file) for e in events)


def test_tail_text_format_is_human(stream_file, capsys):
    main(["tail", str(stream_file), "--predicate", PREDICATE])
    out = capsys.readouterr().out
    assert "open:" in out and "final after" in out


def test_tail_needs_a_source(capsys):
    assert main(["tail"]) == 2
    assert "--connect" in capsys.readouterr().err


def test_tail_file_needs_a_predicate(stream_file, capsys):
    assert main(["tail", str(stream_file)]) == 2
    assert "--predicate" in capsys.readouterr().err


def follow_session(path, got, **reader):
    """``repro tail FILE --follow``'s session loop, events into ``got``."""
    return _stream_session(
        iter_stream_lines(path, follow=True, **reader), str(path), "t",
        PREDICATE, lambda ev, _lineno: got.append(ev),
    )


def later(delay, action):
    """Run ``action`` on a helper thread after ``delay`` seconds."""
    thread = threading.Timer(delay, action)
    thread.start()
    return thread


def test_tail_follow_completes_on_truncated_then_finished_file(tmp_path):
    """Follow mode waits through a torn final line instead of dying."""
    dep, header, lines = make_stream(seed=7)
    path = tmp_path / "grow.jsonl"
    doc = [dumps_event(header)] + lines
    # first half, last line torn in the middle of a record
    torn = "\n".join(doc[: len(doc) // 2]) + "\n" + doc[len(doc) // 2][:5]
    path.write_text(torn)
    stop = threading.Event()

    def finish():  # the tail is now waiting on the torn line
        path.write_text("\n".join(doc) + "\n")  # writer finishes the file
        later(0.2, stop.set)

    got = []
    writer = later(0.1, finish)
    sess = follow_session(path, got, poll_interval=0.02, stop=stop)
    writer.join(10)
    assert not writer.is_alive()
    finals = [e for e in got if e["e"] == "final"]
    assert sess is not None and len(finals) == 1
    final = finals[0]
    assert final["seq"] == len(lines)
    assert final["degraded"] is False


def test_tail_follow_stop_mid_file_finalizes_on_lines_read(tmp_path):
    """The stop flag (SIGINT/SIGTERM in ``repro tail``), set mid-file, ends
    the read there and finalizes on the records seen so far."""
    dep, header, lines = make_stream(seed=7)
    path = tmp_path / "full.jsonl"
    doc = [dumps_event(header)] + lines
    path.write_text("\n".join(doc) + "\n")
    cut = len(doc) // 2  # file lines read before the stop
    stop = threading.Event()

    def reader():
        for lineno, line in iter_stream_lines(path, follow=True, stop=stop):
            yield lineno, line
            if lineno == cut:
                stop.set()

    got = []
    sess = _stream_session(reader(), str(path), "t", PREDICATE,
                           lambda ev, _lineno: got.append(ev))
    assert sess is not None and sess.seq == cut - 1

    prefix = tmp_path / "prefix.jsonl"
    prefix.write_text("\n".join(doc[:cut]) + "\n")
    want = []
    _stream_session(iter_stream_lines(prefix), str(path), "t", PREDICATE,
                    lambda ev, _lineno: want.append(ev))
    assert got == want
    assert got[-2]["e"] == "final" and got[-2]["seq"] == cut - 1


def test_tail_missing_file_exits_3_with_typed_event(tmp_path, capsys):
    """A source that never appears is a typed ``source-lost`` error and
    exit code 3 -- not a traceback."""
    rc = main(["tail", str(tmp_path / "nope.jsonl"),
               "--predicate", PREDICATE, "--format", "json"])
    assert rc == 3
    events = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    errors = [e for e in events if e["e"] == "error"]
    assert errors and errors[-1]["code"] == "source-lost"


def test_tail_follow_source_vanishing_spends_backoff_then_exits_3(tmp_path):
    """In follow mode the file disappearing permanently must exhaust the
    bounded retry budget (not loop forever) and fail with source-lost."""
    dep, header, lines = make_stream(seed=8)
    path = tmp_path / "vanish.jsonl"
    doc = [dumps_event(header)] + lines
    path.write_text("\n".join(doc[: len(doc) // 2]) + "\n")
    retry = Backoff(base=0.01, max_retries=3, seed=1)

    got = []
    vanisher = later(0.05, lambda: os.unlink(path))  # mid-tail, at EOF
    sess = follow_session(path, got, poll_interval=0.01, retry=retry)
    vanisher.join(10)
    assert not vanisher.is_alive()
    assert sess is None
    assert retry.attempts == 3
    errors = [e for e in got if e.get("e") == "error"]
    assert errors and errors[-1]["code"] == "source-lost"
    assert "retries" in errors[-1]["message"]


def test_parse_quota_specs():
    tenant, quota = _parse_quota("8,512,10000")
    assert tenant is None
    assert (quota.max_streams, quota.max_buffered_events,
            quota.max_store_states) == (8, 512, 10000)
    tenant, quota = _parse_quota("acme=1,16,0")
    assert tenant == "acme" and quota.max_streams == 1
    with pytest.raises(ValueError, match="STREAMS,BUFFERED"):
        _parse_quota("1,2")
