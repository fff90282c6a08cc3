"""DetectionSession == batch detection on the same stream (the oracle)."""

import pytest

from repro.serve.session import DetectionSession, session_key

from .conftest import PREDICATE, batch_verdict, make_stream


def run_session(header, lines, **kwargs):
    sess = DetectionSession("t", "s", header, PREDICATE, **kwargs)
    events = [sess.open_event()]
    events += sess.feed(list(lines), base_lineno=2)
    events += sess.finalize()
    return sess, events


@pytest.mark.parametrize("seed", [0, 7, 23, 101])
def test_final_verdict_matches_batch(seed):
    dep, header, lines = make_stream(seed)
    sess, events = run_session(header, lines)
    witness, df = batch_verdict(dep)
    final = events[-1]
    assert final["e"] == "final"
    got = tuple(final["witness"]) if final["witness"] is not None else None
    assert got == witness
    assert final["definitely"] == df
    assert final["seq"] == sess.seq == len(lines)


def test_witness_events_replay_to_current_frontier():
    """Applying found/withdrawn in order always yields the live witness."""
    for seed in range(12):
        dep, header, lines = make_stream(seed)
        sess, events = run_session(header, lines)
        frontier = None
        for ev in events:
            if ev["e"] == "witness":
                frontier = tuple(ev["cut"]) if ev["status"] == "found" else None
        final = events[-1]
        got = tuple(final["witness"]) if final["witness"] is not None else None
        assert frontier == got


def test_malformed_line_fails_session_with_location():
    _dep, header, lines = make_stream(3)
    sess = DetectionSession("t", "s", header, PREDICATE)
    ok = sess.feed([lines[0]], base_lineno=2)
    bad = sess.feed(["{not json"], base_lineno=3)
    assert [e["e"] for e in bad] == ["error"]
    assert bad[0]["code"] == "malformed"
    assert bad[0]["where"] == "t/s:3"
    assert sess.failed
    # failed sessions are inert: no further events, no final
    assert sess.feed(lines[1:], base_lineno=4) == []
    assert sess.finalize() == []
    assert ok is not None  # the prefix before the bad line still applied


def test_unknown_record_kind_is_malformed_not_crash():
    _dep, header, _lines = make_stream(3)
    sess = DetectionSession("t", "s", header, PREDICATE)
    bad = sess.feed_line('{"t": "warp", "p": 0}', lineno=2)
    assert bad[0]["e"] == "error" and bad[0]["code"] == "malformed"


def test_store_quota_fails_session_over_budget():
    dep, header, lines = make_stream(5, events_per_proc=8)
    sess = DetectionSession("t", "s", header, PREDICATE, max_store_states=6)
    events = sess.feed(list(lines))
    errors = [e for e in events if e["e"] == "error"]
    assert len(errors) == 1 and errors[0]["code"] == "quota"
    assert "max_store_states=6" in errors[0]["message"]
    assert sess.failed and sess.finalize() == []


def test_shed_finalize_is_degraded_with_marker():
    dep, header, lines = make_stream(9)
    cut = len(lines) // 2
    sess = DetectionSession("t", "s", header, PREDICATE)
    sess.feed(lines[:cut])
    events = sess.finalize(shed=len(lines) - cut)
    assert [e["e"] for e in events] == ["shed", "final"]
    assert events[0]["dropped"] == len(lines) - cut
    assert events[1]["degraded"] is True


def test_finalize_without_definitely_leaves_it_null():
    dep, header, lines = make_stream(7)  # seed 7 has a witness (smoke run)
    sess = DetectionSession("t", "s", header, PREDICATE)
    sess.feed(list(lines))
    final = sess.finalize(with_definitely=False)[-1]
    if final["witness"] is not None:
        assert final["definitely"] is None


def test_session_key_is_the_routing_key():
    assert session_key("acme", "run-1") == "acme/run-1"


@pytest.mark.parametrize("record", [
    '{"t": "ev", "p": 0, "u": {}, "time": "x"}',
    '{"t": "ev", "p": 0, "u": {}, "time": true}',
    '{"t": "recv", "p": 1, "src": "x", "u": {}}',
    '{"t": "ev", "p": 99, "u": {}}',
    '[1, 2]',
])
def test_bad_record_field_is_malformed_not_internal(record):
    """A structurally bad field fails the session with a typed, located
    ``malformed`` error; nothing escapes feed_line (the worker would
    otherwise report it as ``internal``)."""
    _dep, header, lines = make_stream(3)
    sess = DetectionSession("t", "s", header, PREDICATE)
    sess.feed(lines[:2], base_lineno=2)
    bad = sess.feed_line(record, lineno=4)
    assert [e["e"] for e in bad] == ["error"]
    assert bad[0]["code"] == "malformed"
    assert bad[0]["where"] == "t/s:4"
    assert bad[0]["message"].startswith("t/s:4: ")
    assert sess.failed and sess.finalize() == []
