"""Strict loader and lenient linter read a trace through one decoder.

For every structural problem branch of :mod:`repro.trace.decode`, in
both formats, the strict reader's error text equals the location and
message of the first ``T001`` the lenient parser reports.  A hypothesis
property extends this to randomly corrupted streams: a stream the
strict path ingests completely has no T001/T009, and the first T001 is
where (and how) strict ingestion fails unless it failed earlier -- it
never fails later than the first T001/T009.
"""

import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.raw import parse_batch, parse_stream
from repro.errors import MalformedTraceError
from repro.trace.io import (
    deposet_from_dict,
    ingest_event_stream,
    write_event_stream,
)
from repro.workloads import random_deposet

from .conftest import _chain
from .test_incremental import _mutate


def first_t001(findings):
    t001 = [f for f in findings if f.rule_id == "T001"]
    assert t001, [f.describe() for f in findings]
    f = t001[0]
    # a problem with the whole document has no location
    return f.message if f.location is None else f"{f.location}: {f.message}"


def strict_error(fn, *args):
    with pytest.raises(MalformedTraceError) as info:
        fn(*args)
    return str(info.value)


def _set(path, value):
    """A mutation of the clean chain document at ``path``."""
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        if value is KeyError:
            del doc[last]
        else:
            doc[last] = value
    return mutate


DOCUMENT_CASES = {
    "not an object": lambda doc: [1, 2],
    "format": _set(["format"], "alien/9"),
    "states missing": _set(["states"], KeyError),
    "states empty": _set(["states"], []),
    "states row not a list": _set(["states", 1], {"b": 0}),
    "states row empty": _set(["states", 1], []),
    "state not an object": _set(["states", 1, 2], 3),
    "proc_names not a list": _set(["proc_names"], 5),
    "proc_names wrong length": _set(["proc_names"], ["P0"]),
    "messages not a list": _set(["messages"], 5),
    "messages null": _set(["messages"], None),
    "message not an object": _set(["messages", 0], "m"),
    "message src": _set(["messages", 0, "src"], [0]),
    "message dst missing": _set(["messages", 1, "dst"], KeyError),
    "message src boolean": _set(["messages", 0, "src"], [0, True]),
    "control not a list": _set(["control"], 5),
    "control not a pair": _set(["control"], [[[0, 1]]]),
    "control src": _set(["control"], [[[0, "x"], [1, 2]]]),
    "control dst": _set(["control"], [[[0, 1], None]]),
    "timestamps not a list": _set(["timestamps"], 5),
    "timestamps wrong rows": _set(["timestamps"], [[0.0, 1.0, 2.0]]),
    "timestamp not a number": _set(
        ["timestamps"], [[0.0, 1.0, 2.0], [0.0, "x", 2.0], [0.0, 1.0, 2.0]]),
    "timestamp boolean": _set(
        ["timestamps"], [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.0, 1.0, True]]),
    "timestamp row length": _set(
        ["timestamps"], [[0.0, 1.0, 2.0], [0.0, 1.0], [0.0, 1.0, 2.0]]),
}


@pytest.mark.parametrize("case", sorted(DOCUMENT_CASES))
def test_document_problem_reads_the_same_strict_and_lenient(case):
    doc = copy.deepcopy(_chain())
    mutated = DOCUMENT_CASES[case](doc)
    data = doc if mutated is None else mutated
    _raw, findings = parse_batch(data, source="<doc>")
    assert strict_error(deposet_from_dict, data) == first_t001(findings)


HEADER = {"format": "repro-events/1", "proc_names": ["P0", "P1"],
          "start": [{"up": True}, {"up": True}], "start_times": [0.0, 0.0]}
BODY = ['{"t": "ev", "p": 0, "u": {"up": false}, "time": 1.0}',
        '{"t": "recv", "p": 1, "src": [0, 0], "u": {}, "time": 2.0}',
        '{"t": "ev", "p": 0, "u": {"up": true}, "time": 3.0}']

HEADER_CASES = {
    "not an object": "[1, 2]",
    "format": dict(HEADER, format="repro-events/0"),
    "start missing": {k: v for k, v in HEADER.items() if k != "start"},
    "start empty": dict(HEADER, start=[]),
    "start entry not an object": dict(HEADER, start=[{}, 3]),
    "proc_names not a list": dict(HEADER, proc_names=5),
    "proc_names wrong length": dict(HEADER, proc_names=["P0"]),
    "start_times not a list": dict(HEADER, start_times=0.0),
    "start_times entry": dict(HEADER, start_times=[0.0, "x"]),
    "start_times boolean": dict(HEADER, start_times=[True, 0.0]),
    "start_times wrong length": dict(HEADER, start_times=[0.0]),
}

RECORD_CASES = {
    "not valid JSON": "{not json",
    "not an object": "[1, 2]",
    "unknown type": '{"t": "warp", "p": 0}',
    "p missing": '{"t": "ev", "u": {}}',
    "p boolean": '{"t": "ev", "p": true, "u": {}}',
    "p out of range": '{"t": "ev", "p": 2, "u": {}}',
    "vars not an object": '{"t": "ev", "p": 0, "vars": 3}',
    "u not an object": '{"t": "ev", "p": 0, "u": [1]}',
    "time not a number": '{"t": "ev", "p": 0, "u": {}, "time": "x"}',
    "time boolean": '{"t": "ev", "p": 0, "u": {}, "time": true}',
    "recv src": '{"t": "recv", "p": 1, "src": [0], "u": {}}',
    "recv src missing": '{"t": "recv", "p": 1, "u": {}}',
    "ctl src": '{"t": "ctl", "src": 4, "dst": [1, 1]}',
    "ctl dst": '{"t": "ctl", "src": [0, 1], "dst": [1, "x"]}',
}


def _stream_parity(tmp_path, lines):
    path = tmp_path / "s.jsonl"
    path.write_text("\n".join(lines) + "\n")
    _raw, findings = parse_stream(path)
    strict = strict_error(lambda: list(ingest_event_stream(path)))
    assert strict == first_t001(findings)


@pytest.mark.parametrize("case", sorted(HEADER_CASES))
def test_stream_header_problem_reads_the_same(tmp_path, case):
    header = HEADER_CASES[case]
    line = header if isinstance(header, str) else json.dumps(header)
    _stream_parity(tmp_path, [line] + BODY)


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_stream_record_problem_reads_the_same(tmp_path, case):
    _stream_parity(tmp_path,
                   [json.dumps(HEADER)] + BODY[:2] + [RECORD_CASES[case]])


# -- randomly corrupted streams ----------------------------------------------


def _strict_outcome(path):
    """``(records ingested, error text or None)``."""
    done = 0
    try:
        for _ in ingest_event_stream(path):
            done += 1
    except MalformedTraceError as exc:
        return done, str(exc)
    return done, None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_strict_and_lenient_agree_on_corrupted_streams(tmp_path_factory,
                                                       seed):
    rng = np.random.default_rng(seed)
    dep = random_deposet(n=3, events_per_proc=4, message_rate=0.5, seed=seed)
    buf = io.StringIO()
    write_event_stream(dep, buf)
    lines = buf.getvalue().splitlines()
    for _ in range(int(rng.integers(0, 3))):
        lines = _mutate(lines, rng)
    path = tmp_path_factory.mktemp("corrupt") / "s.jsonl"
    path.write_text("\n".join(lines) + "\n")

    done, error = _strict_outcome(path)
    _raw, findings = parse_stream(path)
    parse_findings = [f for f in findings if f.rule_id in ("T001", "T009")]
    if error is None:
        assert parse_findings == [], [f.describe() for f in parse_findings]
        return
    failed_at = done + 1  # 1-based line of the record strict refused
    if parse_findings:
        first = parse_findings[0]
        assert failed_at <= int(first.location.rsplit(":", 1)[1])
    t001 = [f for f in parse_findings if f.rule_id == "T001"]
    if t001 and t001[0].location == f"{path}:{failed_at}":
        assert error == f"{t001[0].location}: {t001[0].message}"
