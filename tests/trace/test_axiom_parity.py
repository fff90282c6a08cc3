"""One judge of the trace axioms: every reader gives one rule and text.

Each bad input is run through every surface that can express it -- the
strict document loader, the ``Deposet`` constructor and the store for a
``repro-deposet/1`` document; the store, stream ingestion, ``repro
watch`` and ``repro tail FILE`` for a ``repro-events/1`` stream -- and
through ``repro lint``.  All of them must report the same rule ID and
the same text, and a file's strict error must sit where lint's first
error does.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.raw import parse_batch
from repro.analysis.runner import lint_trace, run_rules
from repro.cli import main
from repro.errors import InterferenceError, MalformedTraceError
from repro.store import TraceStore
from repro.trace import Deposet, MessageArrow
from repro.trace.io import (
    FORMAT, STREAM_FORMAT, deposet_from_dict, deposet_to_dict,
    ingest_event_stream, load_deposet,
)
from repro.workloads.random_traces import random_deposet

PREDICATE = "at-least-one:up"
#: two processes of three states each, as a document
STATES = [[{}, {}, {}], [{}, {}, {}]]

# (id, messages, control, rule, text) of a document with one bad arrow
DOCUMENTS = [
    ("D1", [((0, 0), (1, 0))], [], "T002",
     "message (0,0) -> (1,0): target is the initial state of process 1, "
     "which is entered before any receive can happen (D1)"),
    ("D2", [((0, 2), (1, 1))], [], "T003",
     "message (0,2) -> (1,1): source is the final state of process 0, "
     "which never completes (D2)"),
    ("D3-send-send", [((0, 0), (1, 1)), ((0, 0), (1, 2))], [], "T004",
     "event (0,0) is the send of (0,0) -> (1,1) and the send of "
     "(0,0) -> (1,2) (event carries two messages; D3)"),
    ("D3-receive-send", [((0, 0), (1, 1)), ((1, 0), (0, 2))], [], "T004",
     "event (1,0) is the receive of (0,0) -> (1,1) and the send of "
     "(1,0) -> (0,2) (event carries two messages; D3)"),
    ("missing-state", [((0, 0), (1, 7))], [], "T005",
     "message dst (1,7): process 1 has no state 7 (it has 3)"),
    ("missing-process", [((0, 0), (5, 1))], [], "T005",
     "message dst (5,1): no process 5 (trace has 2)"),
    ("same-process", [((0, 0), (0, 2))], [], "T006",
     "message (0,0) -> (0,2) stays on process 0"),
    ("backwards", [((0, 2), (0, 1))], [], "T006",
     "message (0,2) -> (0,1) points backwards on process 0"),
    ("C103", [], [((0, 2), (1, 1))], "C103",
     "control arrow is unenforceable: source (0,2) is the final state of "
     "process 0 and never completes"),
]

EV0 = {"t": "ev", "p": 0, "u": {}}
EV1 = {"t": "ev", "p": 1, "u": {}}


def recv(p, src):
    return {"t": "recv", "p": p, "src": list(src), "u": {}}


# (id, records after the header, rule, text); the last record is the bad one
STREAMS = [
    ("D1-control", [EV0, EV1, {"t": "ctl", "src": [0, 0], "dst": [1, 0]}],
     "C103", "control arrow is unenforceable: target (1,0) is the initial "
     "state of process 1 and is entered unconditionally"),
    ("D3-send-send", [EV0, recv(1, (0, 0)), recv(1, (0, 0))], "T004",
     "event (0,0) is the send of (0,0) -> (1,1) and the send of "
     "(0,0) -> (1,2) (event carries two messages; D3)"),
    ("D3-receive-send", [EV0, recv(1, (0, 0)), recv(0, (1, 0))], "T004",
     "event (1,0) is the receive of (0,0) -> (1,1) and the send of "
     "(1,0) -> (0,2) (event carries two messages; D3)"),
    ("missing-state", [EV0, recv(1, (0, 7))], "T009",
     "message (0,7) -> (1,1): source event at (0,7) has not completed "
     "(causal delivery order)"),
    ("missing-process", [EV0, recv(1, (5, 0))], "T005",
     "message src (5,0): no process 5 (trace has 2)"),
    ("same-process", [EV0, recv(0, (0, 0))], "T006",
     "message (0,0) -> (0,2) stays on process 0"),
    ("backwards", [EV0, recv(0, (0, 2))], "T006",
     "message (0,2) -> (0,2) points backwards on process 0"),
    ("out-of-order", [EV0, recv(1, (0, 1))], "T009",
     "message (0,1) -> (1,1): source event at (0,1) has not completed "
     "(causal delivery order)"),
    ("D2", [EV0, EV0, recv(1, (0, 2))], "T009",
     "message (0,2) -> (1,1): source event at (0,2) has not completed "
     "(causal delivery order)"),
]


def raised(fn, *args, **kwargs):
    with pytest.raises(MalformedTraceError) as err:
        fn(*args, **kwargs)
    return err.value


def first_lint_error(path):
    report = lint_trace(path)
    errors = [f for f in report.findings if f.severity.name == "ERROR"]
    assert errors, f"lint found no error in {path}"
    return errors[0]


def cli_error(capsys, argv):
    assert main(argv + ["--predicate", PREDICATE, "--format", "json"]) == 3
    events = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    (error,) = [e for e in events if e["e"] == "error"]
    return error


@pytest.mark.parametrize(
    "messages, control, rule, text",
    [case[1:] for case in DOCUMENTS], ids=[case[0] for case in DOCUMENTS],
)
def test_document_parity(tmp_path, messages, control, rule, text):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({
        "format": FORMAT,
        "states": STATES,
        "messages": [{"src": list(s), "dst": list(d)} for s, d in messages],
        "control": [[list(s), list(d)] for s, d in control],
    }))
    lint = first_lint_error(path)
    assert (lint.rule_id, lint.message) == (rule, text)

    loaded = raised(load_deposet, path)
    assert (loaded.rule, loaded.location) == (rule, lint.location)
    assert str(loaded) == f"{path}: {lint.location}: {text}"

    built = raised(Deposet, STATES,
                   [MessageArrow(s, d) for s, d in messages], control)
    assert (built.rule, built.location) == (rule, lint.location)
    assert str(built) == f"{lint.location}: {text}"

    store = TraceStore(2)
    for proc in (0, 0, 1, 1):
        store.append_state(proc)
    *good, bad = messages or control
    append = store.append_message if messages else store.append_control
    for arrow in good:
        append(*arrow)
    stored = raised(append, *bad)
    assert (stored.rule, str(stored)) == (rule, text)


@pytest.mark.parametrize(
    "records, rule, text",
    [case[1:] for case in STREAMS], ids=[case[0] for case in STREAMS],
)
def test_stream_parity(tmp_path, capsys, records, rule, text):
    path = tmp_path / "s.jsonl"
    header = {"format": STREAM_FORMAT, "start": [{}, {}]}
    path.write_text("".join(json.dumps(r) + "\n" for r in [header, *records]))
    where = f"{path}:{len(records) + 1}"
    lint = first_lint_error(path)
    assert (lint.rule_id, lint.message, lint.location) == (rule, text, where)

    ingested = raised(lambda: list(ingest_event_stream(path)))
    assert (ingested.rule, ingested.location) == (rule, where)
    assert str(ingested) == f"{where}: {text}"

    for command in ("watch", "tail"):
        error = cli_error(capsys, [command, str(path)])
        assert (error["rule"], error["where"]) == (rule, where)
        assert error["message"] == f"{where}: {text}"

    store = TraceStore(2)
    *good, bad = records
    for rec in good:
        store.append_state(rec["p"], received_from=rec.get("src"))
    if bad["t"] == "ctl":
        stored = raised(store.append_control, bad["src"], bad["dst"])
    else:
        stored = raised(store.append_state, bad["p"],
                        received_from=bad["src"])
    assert (stored.rule, str(stored)) == (rule, text)


ENDPOINT = st.tuples(st.integers(-1, 3), st.integers(-1, 6))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    faults=st.lists(
        st.tuples(st.sampled_from(["messages", "control", "copy"]),
                  st.integers(0, 20), ENDPOINT, ENDPOINT),
        min_size=1, max_size=3,
    ),
)
def test_deposet_raises_lints_first_error(seed, faults):
    """On documents with several bad arrows, ``Deposet(...)`` raises the
    error ``repro lint`` reports first: same rule, text and location."""
    doc = deposet_to_dict(random_deposet(3, 4, message_rate=0.4, seed=seed))
    for key, k, src, dst in faults:
        if key == "copy":  # a second message on a used send (D3)
            if doc["messages"]:
                m = doc["messages"][k % len(doc["messages"])]
                doc["messages"].append({"src": m["src"], "dst": list(dst)})
            continue
        arrows = doc[key]
        arrow = ({"src": list(src), "dst": list(dst)} if key == "messages"
                 else [list(src), list(dst)])
        if arrows and k < len(arrows):
            arrows[k] = arrow
        else:
            arrows.append(arrow)
    raw, parse_findings = parse_batch(doc)
    assert not parse_findings
    errors = [f for f in run_rules(raw, parse_findings=parse_findings).findings
              if f.severity.name == "ERROR"]
    try:
        deposet_from_dict(doc)
    except (MalformedTraceError, InterferenceError) as exc:
        assert errors
        if getattr(exc, "rule", None) is None:
            # a cycle: lint's T011 / C101 witness has its own text
            assert errors[0].rule_id in ("T011", "C101")
        else:
            first = errors[0]
            assert (exc.rule, exc.location) == (first.rule_id, first.location)
            assert str(exc) == f"{first.location}: {first.message}"
    else:
        assert not errors
