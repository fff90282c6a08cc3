"""The repro-events/1 stream format and path-carrying trace errors."""

import json

import numpy as np
import pytest

from repro.errors import MalformedTraceError
from repro.trace import ComputationBuilder
from repro.trace.io import (
    deposet_from_dict,
    deposet_to_dict,
    dump_deposet,
    ingest_event_stream,
    load_deposet,
    read_event_stream,
    sniff_trace_format,
    write_event_stream,
    FORMAT,
    STREAM_FORMAT,
)
from repro.workloads import random_deposet


def sample_dep():
    b = ComputationBuilder(3, start_vars=[{"up": True, "x": 0}, {"up": True}, {}])
    b.local(0, up=False, x=1)
    m = b.send(0, payload={"k": [1, 2]}, tag="ping")
    b.local(1, up=False)
    b.receive(2, m, up=False)
    b.local(0, up=True)
    b.local(1, up=True)
    return b.build()


def assert_deposets_equal(a, b):
    assert a.state_counts == b.state_counts
    assert set(a.messages) == set(b.messages)
    assert set(a.control_arrows) == set(b.control_arrows)
    assert a.timestamps == b.timestamps
    for i in range(a.n):
        for s in range(a.state_counts[i]):
            assert a.state_vars((i, s)) == b.state_vars((i, s))
        assert np.array_equal(a.order.clock_matrix(i), b.order.clock_matrix(i))


# -- streaming round-trips ---------------------------------------------------


def test_stream_roundtrip_with_control_payload_and_obs(tmp_path):
    dep = sample_dep().with_control([((0, 1), (1, 2))])
    path = tmp_path / "t.jsonl"
    obs = {"metrics": {"counters": {"sim.runs": 1}}}
    write_event_stream(dep, path, obs=obs)
    store, obs_back = read_event_stream(path)
    assert obs_back == obs
    assert_deposets_equal(store.snapshot(), dep)
    (msg,) = store.messages
    assert msg.payload == {"k": [1, 2]} and msg.tag == "ping"


def test_stream_roundtrip_preserves_timestamps(tmp_path):
    from repro.trace.deposet import Deposet

    dep = Deposet(
        [[{}, {"a": 1}], [{}, {}]],
        [((0, 0), (1, 1))],
        timestamps=[[0.0, 2.5], [1.0, 3.25]],
    )
    path = tmp_path / "t.jsonl"
    write_event_stream(dep, path)
    dep2 = read_event_stream(path)[0].snapshot()
    assert dep2.timestamps == ((0.0, 2.5), (1.0, 3.25))
    assert_deposets_equal(dep2, dep)


def test_stream_roundtrip_deleted_variable_key(tmp_path):
    """Deleting a key cannot be expressed as an update overlay; the writer
    must fall back to a full 'vars' record."""
    from repro.trace.deposet import Deposet

    dep = Deposet([[{"x": 1, "y": 2}, {"x": 1}], [{}]], [])
    path = tmp_path / "t.jsonl"
    write_event_stream(dep, path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[1] == {"t": "ev", "p": 0, "vars": {"x": 1}}
    assert_deposets_equal(read_event_stream(path)[0].snapshot(), dep)


def test_stream_roundtrip_random_traces(tmp_path):
    for seed in range(5):
        dep = random_deposet(n=3, events_per_proc=5, message_rate=0.5, seed=seed)
        path = tmp_path / f"t{seed}.jsonl"
        write_event_stream(dep, path)
        assert_deposets_equal(read_event_stream(path)[0].snapshot(), dep)


def test_ingest_yields_after_every_record(tmp_path):
    dep = sample_dep()
    path = tmp_path / "t.jsonl"
    write_event_stream(dep, path)
    counts = []
    for store, _rec in ingest_event_stream(path):
        counts.append(store.num_states)
    # header yields the start states, then one state per event record
    assert counts[0] == dep.n
    assert counts == list(range(dep.n, dep.num_states + 1))


def test_sniff_trace_format(tmp_path):
    dep = sample_dep()
    batch, stream = tmp_path / "b.json", tmp_path / "s.jsonl"
    dump_deposet(dep, batch)
    write_event_stream(dep, stream)
    assert sniff_trace_format(batch) == FORMAT
    assert sniff_trace_format(stream) == STREAM_FORMAT


# -- stream errors carry file:line -------------------------------------------


def write_lines(path, *lines):
    path.write_text("\n".join(lines) + "\n")


HEADER = json.dumps(
    {"format": STREAM_FORMAT, "proc_names": ["a", "b"],
     "start": [{}, {}], "start_times": None}
)


def test_stream_error_bad_json(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, HEADER, "{not json")
    with pytest.raises(MalformedTraceError, match=rf"{path.name}:2: not valid JSON"):
        list(ingest_event_stream(path))


def test_stream_error_unknown_record(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, HEADER, '{"t": "frob"}')
    with pytest.raises(MalformedTraceError, match=r":2: unknown record type"):
        list(ingest_event_stream(path))


def test_stream_error_semantic_carries_line(tmp_path):
    path = tmp_path / "t.jsonl"
    # the receive names a source state that has not completed
    write_lines(path, HEADER, '{"t": "ev", "p": 0, "u": {}}',
                '{"t": "recv", "p": 1, "src": [0, 1], "u": {}}')
    with pytest.raises(MalformedTraceError, match=r":3: .*causal delivery order"):
        list(ingest_event_stream(path))


def test_stream_error_bad_header_and_empty(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, json.dumps({"format": "nope"}))
    with pytest.raises(MalformedTraceError, match=r":1: unknown stream format"):
        list(ingest_event_stream(path))
    path.write_text("")
    with pytest.raises(MalformedTraceError, match="empty stream"):
        list(ingest_event_stream(path))


def test_stream_error_bad_ref(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, HEADER, '{"t": "ctl", "src": [0], "dst": [1, 1]}')
    with pytest.raises(MalformedTraceError,
                       match=r":2: src: expected a \[process, state\] pair"):
        list(ingest_event_stream(path))


# -- batch document errors carry the JSON path -------------------------------


def test_dict_error_names_offending_state():
    data = deposet_to_dict(sample_dep())
    data["states"][1][2] = "not-an-object"
    with pytest.raises(MalformedTraceError, match=r"states\[1\]\[2\]"):
        deposet_from_dict(data)


def test_dict_error_names_offending_message():
    data = deposet_to_dict(sample_dep())
    data["messages"][0]["src"] = [0]
    with pytest.raises(MalformedTraceError, match=r"messages\[0\]\.src"):
        deposet_from_dict(data)
    data = deposet_to_dict(sample_dep())
    del data["messages"][0]["dst"]
    with pytest.raises(MalformedTraceError, match=r"messages\[0\]"):
        deposet_from_dict(data)


def test_dict_error_names_offending_control_and_timestamps():
    data = deposet_to_dict(sample_dep().with_control([((0, 1), (1, 2))]))
    data["control"][0] = [[0, 1]]
    with pytest.raises(MalformedTraceError, match=r"control\[0\]"):
        deposet_from_dict(data)
    data = deposet_to_dict(sample_dep())
    data["timestamps"] = [[0.0] * 4, [0.0] * 3, ["x", 0.0]]
    with pytest.raises(MalformedTraceError, match=r"timestamps\[2\]"):
        deposet_from_dict(data)
    data["timestamps"] = [[0.0], [0.0]]
    with pytest.raises(MalformedTraceError, match=r"timestamps"):
        deposet_from_dict(data)


def test_load_deposet_prefixes_file_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    with pytest.raises(MalformedTraceError, match="bad.json.*not valid JSON"):
        load_deposet(path)
    data = deposet_to_dict(sample_dep())
    data["messages"][0]["src"] = "nope"
    path.write_text(json.dumps(data))
    with pytest.raises(MalformedTraceError,
                       match=r"bad\.json: messages\[0\]\.src"):
        load_deposet(path)


# -- format sniffing errors ---------------------------------------------------


def test_sniff_empty_file(tmp_path):
    from repro.errors import UnknownTraceFormatError

    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(UnknownTraceFormatError, match="empty file"):
        sniff_trace_format(path)
    path.write_text("\n\n  \n")  # whitespace-only is just as empty
    with pytest.raises(UnknownTraceFormatError, match="empty file"):
        sniff_trace_format(path)


def test_sniff_garbage(tmp_path):
    from repro.errors import UnknownTraceFormatError

    path = tmp_path / "garbage.txt"
    path.write_text("this is not a trace\n")
    with pytest.raises(UnknownTraceFormatError) as exc:
        sniff_trace_format(path)
    # the error names both accepted formats so the fix is actionable
    assert FORMAT in str(exc.value) and STREAM_FORMAT in str(exc.value)


def test_sniff_unknown_format_field(tmp_path):
    from repro.errors import UnknownTraceFormatError

    path = tmp_path / "alien.json"
    path.write_text(json.dumps({"format": "alien/9"}))
    with pytest.raises(UnknownTraceFormatError, match="alien/9"):
        sniff_trace_format(path)


def test_sniff_non_dict_head(tmp_path):
    from repro.errors import UnknownTraceFormatError

    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(UnknownTraceFormatError):
        sniff_trace_format(path)


def test_sniff_pretty_printed_batch(tmp_path):
    # a pretty-printed batch document's first line is just "{": the
    # sniffer must still recognise it as the batch format
    dep = sample_dep()
    path = tmp_path / "pretty.json"
    from repro.trace.io import deposet_to_dict

    path.write_text(json.dumps(deposet_to_dict(dep), indent=2))
    assert sniff_trace_format(path) == FORMAT


def test_unknown_format_error_is_malformed_trace_error(tmp_path):
    # callers catching the old MalformedTraceError keep working
    from repro.errors import MalformedTraceError, UnknownTraceFormatError

    assert issubclass(UnknownTraceFormatError, MalformedTraceError)


# -- inputs that used to crash with an untyped ValueError/TypeError ----------


@pytest.mark.parametrize("header, match", [
    ({"start_times": [0.0, "x"]},
     r":1: start_times: expected 2 numbers, got \[0\.0, 'x'\]"),
    ({"start_times": [0.0, True]}, r":1: start_times: expected 2 numbers"),
    ({"proc_names": 5}, r":1: proc_names: expected 2 names, got 5"),
])
def test_stream_header_field_errors_are_typed(tmp_path, header, match):
    path = tmp_path / "t.jsonl"
    write_lines(path, json.dumps({"format": STREAM_FORMAT,
                                  "start": [{}, {}], **header}))
    with pytest.raises(MalformedTraceError, match=match):
        list(ingest_event_stream(path))


@pytest.mark.parametrize("time", ['"x"', "true", "[1]"])
def test_stream_record_time_must_be_a_number(tmp_path, time):
    path = tmp_path / "t.jsonl"
    write_lines(path, HEADER, '{"t": "ev", "p": 0, "u": {}, "time": %s}' % time)
    with pytest.raises(MalformedTraceError,
                       match=r":2: time: expected a number, got "):
        list(ingest_event_stream(path))


def test_stream_record_numeric_and_missing_time_still_apply(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, HEADER, '{"t": "ev", "p": 0, "u": {}, "time": 2}',
                '{"t": "ev", "p": 1, "u": {}, "time": null}')
    store, _obs = read_event_stream(path)
    assert store.state_counts == (2, 2)


@pytest.mark.parametrize("key, value, match", [
    ("messages", 5, r"^messages: expected a list, got 5$"),
    ("messages", None, r"^messages: expected a list, got None$"),
    ("control", 5, r"^control: expected a list, got 5$"),
    ("proc_names", 5, r"^proc_names: expected 3 names, got 5$"),
])
def test_dict_field_errors_are_typed(key, value, match):
    data = deposet_to_dict(sample_dep())
    data[key] = value
    with pytest.raises(MalformedTraceError, match=match):
        deposet_from_dict(data)


def test_dict_boolean_timestamp_is_rejected():
    data = deposet_to_dict(sample_dep())
    data["timestamps"] = [[0.0] * 4, [0.0] * 3, [True, 0.0]]
    with pytest.raises(MalformedTraceError, match=r"^timestamps\[2\]: "):
        deposet_from_dict(data)
