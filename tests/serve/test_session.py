"""DetectionSession == batch detection on the same stream (the oracle)."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core import overlap
from repro.obs import METRICS
from repro.predicates import false_intervals
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


def test_finalize_always_decides_definitely():
    # Figure 2 decides *definitely* in O(n^2 p), so there is no size cut-off
    # any more: the final verdict carries a boolean on every stream, and
    # the old skip switch is gone from the API.
    for seed in (0, 7, 23, 101):
        dep, header, lines = make_stream(seed)
        sess = DetectionSession("t", "s", header, PREDICATE)
        sess.feed(list(lines))
        final = sess.finalize()[-1]
        assert final["definitely"] is batch_verdict(dep)[1]
    with pytest.raises(TypeError):
        DetectionSession("t", "s", header, PREDICATE).finalize(
            with_definitely=False)


#: perfbench ``corpus.serve_corpus(7, 294)`` stream ``s196``: 4 processes,
#: 133 records, infeasible.  The exponential slice search used to spend
#: about 13 s deciding *definitely* on it.
S196 = Path(__file__).parent.parent / "fixtures" / "serve_seed7_s196.jsonl"


def test_infeasible_four_process_stream_finalizes_in_polynomial_work():
    lines = S196.read_text().splitlines()
    sess = DetectionSession("t", "s196", json.loads(lines[0]), PREDICATE)
    sess.feed(lines[1:], base_lineno=2)
    with METRICS.scoped() as scope:
        final = sess.finalize()[-1]
    assert final["witness"] == [10, 11, 17, 6]
    assert final["definitely"] is True
    dep = sess.store.snapshot()
    assert overlap(dep, sess.result.obstruction)
    # Figure 2's work bound: O(n^2) pair checks per crossed interval
    n = dep.n
    intervals = sum(len(ivs) for ivs in false_intervals(dep, sess.pred))
    checks = scope.counter("offline.pair_checks")
    assert 0 < checks <= 2 * n * n * (1 + intervals)


def test_finalize_loads_neither_slicing_nor_the_classifier():
    # The first finalize in a fresh server must not pay for importing the
    # batch detection engines: Figure 2 lives in core.offline, which the
    # session already has loaded.
    code = textwrap.dedent("""
        import json, sys
        from repro.serve.session import DetectionSession
        lines = open(sys.argv[1]).read().splitlines()
        sess = DetectionSession("t", "s", json.loads(lines[0]),
                                "at-least-one:up")
        sess.feed(lines[1:])
        assert sess.finalize()[-1]["definitely"] is True
        print(json.dumps(sorted(m for m in sys.modules if m.startswith(
            ("repro.slicing", "repro.analysis.classifier")))))
    """)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code, str(S196)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == []


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
