"""The trace sanitizer: one planted corruption -> exactly one rule id."""

import json

from repro.analysis.sanitizer import find_event_cycle, sanitize

from .conftest import parse_clean


def ids(findings):
    return sorted(f.rule_id for f in findings)


def test_clean_chain_is_clean(chain_dict):
    assert sanitize(parse_clean(chain_dict)) == []


def test_t002_receive_into_initial_state(chain_dict):
    chain_dict["messages"][0]["dst"] = [1, 0]
    (f,) = sanitize(parse_clean(chain_dict))
    assert f.rule_id == "T002"
    assert f.states == ((1, 0),)
    assert "D1" in f.message


def test_t003_send_from_final_state(chain_dict):
    chain_dict["messages"][0]["src"] = [0, 2]
    (f,) = sanitize(parse_clean(chain_dict))
    assert f.rule_id == "T003"
    assert "D2" in f.message


def test_t004_duplicate_delivery(chain_dict):
    chain_dict["messages"].append({"src": [2, 0], "dst": [1, 1]})
    found = [f for f in sanitize(parse_clean(chain_dict)) if f.rule_id == "T004"]
    assert len(found) == 1
    assert "duplicate delivery" in found[0].message
    assert found[0].data["other_location"] == "messages[0]"


def test_t004_event_sends_two_messages(chain_dict):
    chain_dict["messages"].append({"src": [1, 1], "dst": [0, 2]})
    found = [f for f in sanitize(parse_clean(chain_dict)) if f.rule_id == "T004"]
    assert len(found) == 1
    assert "two messages" in found[0].message


def test_t005_unknown_process(chain_dict):
    chain_dict["messages"][0]["dst"] = [7, 1]
    (f,) = sanitize(parse_clean(chain_dict))
    assert f.rule_id == "T005"
    assert "no process 7" in f.message
    assert f.location == "messages[0]"


def test_t005_unknown_state(chain_dict):
    chain_dict["messages"][0]["src"] = [0, 9]
    (f,) = sanitize(parse_clean(chain_dict))
    assert f.rule_id == "T005"
    assert "no state 9" in f.message


def test_t006_same_process_message(chain_dict):
    chain_dict["messages"][0] = {"src": [0, 0], "dst": [0, 1]}
    (f,) = sanitize(parse_clean(chain_dict))
    assert f.rule_id == "T006"
    assert "stays on" in f.message


def test_t006_backwards_message(chain_dict):
    chain_dict["messages"][0] = {"src": [0, 1], "dst": [0, 1]}
    (f,) = sanitize(parse_clean(chain_dict))
    assert f.rule_id == "T006"
    assert "backwards" in f.message


def test_t007_fifo_inversion(chain_dict):
    chain_dict["messages"] = [
        {"src": [0, 0], "dst": [1, 2]},
        {"src": [0, 1], "dst": [1, 1]},
    ]
    (f,) = sanitize(parse_clean(chain_dict))
    assert f.rule_id == "T007"
    assert "not FIFO" in f.message
    assert f.arrows and len(f.arrows) == 2


def test_t008_clock_mismatch(chain_dict):
    # correct extended clocks for the chain, then skew one entry
    from repro.trace.io import deposet_to_dict

    raw = parse_clean(chain_dict)
    full = deposet_to_dict(raw.to_deposet(), clocks=True)
    full["clocks"][2][2][0] += 5
    (f,) = sanitize(parse_clean(full))
    assert f.rule_id == "T008"
    assert f.location == "clocks[2][2]"
    assert f.data["recorded"] != f.data["recomputed"]


def test_t008_suppressed_when_an_arrow_was_dropped(chain_dict):
    # the orphan arrow owns the report; stale recomputed clocks must not
    # cascade into a wall of T008s
    from repro.trace.io import deposet_to_dict

    raw = parse_clean(chain_dict)
    full = deposet_to_dict(raw.to_deposet(), clocks=True)
    full["messages"][0]["dst"] = [7, 1]
    assert ids(sanitize(parse_clean(full))) == ["T005"]


def test_t010_local_time_regression(chain_dict):
    chain_dict["timestamps"] = [[0.0, 2.0, 1.0], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]
    (f,) = sanitize(parse_clean(chain_dict))
    assert f.rule_id == "T010"
    assert "backwards" in f.message


def test_t010_receive_before_send(chain_dict):
    chain_dict["timestamps"] = [[5.0, 6.0, 7.0], [0.0, 1.0, 2.0], [0.0, 3.0, 4.0]]
    found = [f for f in sanitize(parse_clean(chain_dict)) if f.rule_id == "T010"]
    assert any("before it was sent" in f.message for f in found)


def test_t011_cyclic_messages(chain_dict):
    chain_dict["messages"] = [
        {"src": [0, 0], "dst": [1, 2]},
        {"src": [1, 1], "dst": [0, 1]},
    ]
    found = sanitize(parse_clean(chain_dict))
    cyc = [f for f in found if f.rule_id == "T011"]
    assert len(cyc) == 1
    assert cyc[0].data["cycle_events"]


def test_find_event_cycle_minimal_and_none():
    # acyclic
    assert find_event_cycle([3, 3], [((0, 0), (1, 1))]) is None
    # two-event cycle
    got = find_event_cycle([3, 3], [((0, 0), (1, 2)), ((1, 1), (0, 1))])
    assert got is not None
    events, k = got
    assert len(events) == 2


# -- T001: inputs that used to crash the lenient parser ----------------------


def t001s(findings):
    return [(f.location, f.message) for f in findings if f.rule_id == "T001"]


def test_t001_non_list_messages_and_control(chain_dict):
    from repro.analysis.raw import parse_batch

    for key in ("messages", "control"):
        for value in (5, None):
            data = dict(chain_dict, **{key: value})
            raw, findings = parse_batch(data, source="<test>")
            assert t001s(findings) == [(key, f"expected a list, got {value!r}")]
            assert raw is not None and getattr(raw, key) == []


def test_t001_non_list_proc_names(chain_dict):
    from repro.analysis.raw import parse_batch

    raw, findings = parse_batch(dict(chain_dict, proc_names=5))
    assert t001s(findings) == [("proc_names", "expected 3 names, got 5")]
    assert raw.proc_names == []


def test_t001_stream_header_start_times_and_proc_names():
    from repro.analysis.raw import parse_stream_lines

    header = {"format": "repro-events/1", "start": [{}, {}],
              "start_times": [0.0, "x"], "proc_names": 5}
    raw, findings = parse_stream_lines([json.dumps(header)], source="s")
    assert t001s(findings) == [
        ("s:1", "proc_names: expected 2 names, got 5"),
        ("s:1", "start_times: expected 2 numbers, got [0.0, 'x']"),
    ]
    # repaired: no names, no timestamp channel, the stream still parses
    assert raw.n == 2 and raw.proc_names == [] and raw.timestamps is None


def test_t001_record_time_drops_the_timestamp_channel():
    from repro.analysis.raw import parse_stream_lines

    header = {"format": "repro-events/1", "start": [{}, {}],
              "start_times": [0.0, 0.0]}
    lines = [json.dumps(header),
             '{"t": "ev", "p": 0, "u": {}, "time": 1.0}',
             '{"t": "ev", "p": 1, "u": {}, "time": "x"}',
             '{"t": "ev", "p": 1, "u": {}, "time": true}']
    raw, findings = parse_stream_lines(lines, source="s")
    assert t001s(findings) == [
        ("s:3", "time: expected a number, got 'x'"),
        ("s:4", "time: expected a number, got True"),
    ]
    assert raw.state_counts == (2, 3) and raw.timestamps is None
