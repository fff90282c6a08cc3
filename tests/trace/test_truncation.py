"""A truncated final line is a typed, located error -- not a JSON traceback.

A ``repro-events/1`` file whose last line has no trailing newline is the
signature of a writer that crashed (or is still appending) mid-record.
``ingest_event_stream`` must surface that as
:class:`~repro.errors.TruncatedStreamError` carrying ``file:lineno`` so
tail-style consumers can wait for the rest, while a malformed line
*inside* the stream stays the ordinary :class:`MalformedTraceError`.
"""

import pytest

from repro.cli import main
from repro.errors import MalformedTraceError, ReproError, TruncatedStreamError
from repro.trace.io import ingest_event_stream, write_event_stream
from repro.workloads import random_deposet


@pytest.fixture
def stream_file(tmp_path):
    dep = random_deposet(seed=5, n=3, events_per_proc=5,
                         message_rate=0.4, flip_rate=0.4)
    path = tmp_path / "stream.jsonl"
    write_event_stream(dep, path)
    return path


def drain(path):
    for _ in ingest_event_stream(path):
        pass


def test_truncated_final_line_raises_typed_error(stream_file):
    text = stream_file.read_text()
    stream_file.write_text(text.rstrip("\n")[:-7])  # cut mid-record
    nlines = len(stream_file.read_text().splitlines())
    with pytest.raises(TruncatedStreamError) as exc_info:
        drain(stream_file)
    err = exc_info.value
    assert err.lineno == nlines
    assert f"{stream_file}:{nlines}" in str(err)
    assert "truncated record at end of stream" in str(err)
    assert "still be appending" in str(err)


def test_truncation_error_is_a_malformed_trace_error(stream_file):
    """Existing ``except MalformedTraceError`` call sites keep working."""
    assert issubclass(TruncatedStreamError, MalformedTraceError)
    assert issubclass(TruncatedStreamError, ReproError)
    stream_file.write_text(stream_file.read_text().rstrip("\n")[:-7])
    with pytest.raises(MalformedTraceError):
        drain(stream_file)


def test_midstream_garbage_is_not_reported_as_truncation(stream_file):
    lines = stream_file.read_text().splitlines()
    lines[2] = '{"t": "ev", "p":'  # broken, but newline-terminated
    stream_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedTraceError) as exc_info:
        drain(stream_file)
    assert not isinstance(exc_info.value, TruncatedStreamError)
    assert f"{stream_file}:3" in str(exc_info.value)


def test_complete_final_line_without_newline_is_accepted(stream_file):
    """Only *unparseable* final lines are truncation; a valid record that
    merely lacks the trailing newline ingests fine."""
    stream_file.write_text(stream_file.read_text().rstrip("\n"))
    drain(stream_file)  # no raise


def test_watch_cli_exits_cleanly_on_truncation(stream_file, capsys):
    stream_file.write_text(stream_file.read_text().rstrip("\n")[:-7])
    rc = main(["watch", str(stream_file), "--predicate", "at-least-one:up"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "error:" in captured.err
    assert "truncated record" in captured.err
    assert "Traceback" not in captured.err


def test_watch_json_reports_truncation_as_error_event(stream_file, capsys):
    import json

    stream_file.write_text(stream_file.read_text().rstrip("\n")[:-7])
    rc = main(["watch", str(stream_file), "--predicate", "at-least-one:up",
               "--format", "json"])
    assert rc == 3
    events = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    error, closed = events[-2:]
    assert error["e"] == "error"
    assert error["code"] == "malformed"
    assert "truncated" in error["message"]
    assert error["where"].startswith(str(stream_file))
    assert closed["e"] == "closed"  # as repro serve ends a failed session
