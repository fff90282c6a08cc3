"""Per-session streaming lint on the serving path (``repro serve --lint``).

A lint-enabled :class:`DetectionSession` interleaves ``repro-findings/1``
events with the verdict stream: header findings ride the ``open`` batch,
arrival-order corruptions (T007 &c.) surface the moment their record is
fed, and ``finalize`` emits the remaining whole-trace findings plus one
``lint`` summary -- all byte-deterministic across snapshot/restore, so a
resumed session replays the same findings a crash-free one would.
"""

import json
from pathlib import Path

from repro.serve.protocol import FINDINGS_FORMAT
from repro.serve.session import DetectionSession

from .conftest import PREDICATE, make_stream


def run_session(header, lines, **kwargs):
    sess = DetectionSession("t", "s", header, PREDICATE, lint=True, **kwargs)
    events = sess.open_events()
    events += sess.feed(list(lines), base_lineno=2)
    events += sess.finalize()
    return sess, events


T007_LINES = [
    json.dumps({"t": "ev", "p": 0, "u": {}}),
    json.dumps({"t": "ev", "p": 0, "u": {}}),
    json.dumps({"t": "recv", "p": 1, "src": [0, 1], "u": {}}),
    json.dumps({"t": "recv", "p": 1, "src": [0, 0], "u": {}}),
]
T007_HEADER = {"format": "repro-events/1", "n": 2,
               "start": [{"up": True}, {"up": True}]}


def test_lint_disabled_by_default_no_finding_events():
    _dep, header, lines = make_stream(0)
    sess = DetectionSession("t", "s", header, PREDICATE)
    events = [sess.open_event()]
    events += sess.feed(list(lines), base_lineno=2)
    events += sess.finalize()
    assert sess.linter is None
    assert all(e["e"] not in ("finding", "lint") for e in events)


def test_lint_events_carry_the_findings_format():
    _dep, header, lines = make_stream(0)
    _sess, events = run_session(header, lines)
    lint_events = [e for e in events if e["e"] in ("finding", "lint")]
    assert lint_events, "lint-enabled session emitted no lint events"
    assert all(e["format"] == FINDINGS_FORMAT for e in lint_events)
    # verdict events are untouched
    assert [e["e"] for e in events if e["e"] in ("open", "final")] \
        == ["open", "final"]


def test_feed_time_finding_streams_at_its_record():
    sess = DetectionSession("t", "s", T007_HEADER, PREDICATE, lint=True)
    sess.open_events()
    per_line = [sess.feed_line(ln, lineno=i + 2)
                for i, ln in enumerate(T007_LINES)]
    # the crossed delivery is reported on the line that crossed it,
    # not at finalize
    assert [e["finding"]["rule"] for e in per_line[3]
            if e["e"] == "finding"] == ["T007"]
    assert all(e["e"] != "finding"
               for evs in per_line[:3] for e in evs)


def test_finding_events_carry_fingerprints():
    sess = DetectionSession("t", "s", T007_HEADER, PREDICATE, lint=True)
    sess.open_events()
    events = sess.feed(list(T007_LINES), base_lineno=2)
    events += sess.finalize()
    findings = [e for e in events if e["e"] == "finding"]
    assert findings
    for e in findings:
        assert e["fp"] and isinstance(e["fp"], str)
        assert e["rule"] == e["finding"]["rule"]


def test_finalize_emits_summary_after_findings_before_final():
    _dep, header, lines = make_stream(4)
    _sess, events = run_session(header, lines)
    kinds = [e["e"] for e in events]
    assert "lint" in kinds and "final" in kinds
    assert kinds.index("lint") < kinds.index("final")
    # every finding precedes the summary
    finding_idx = [i for i, k in enumerate(kinds) if k == "finding"]
    assert all(i < kinds.index("lint") for i in finding_idx)
    summary = events[kinds.index("lint")]
    emitted = [e for e in events if e["e"] == "finding"]
    assert summary["findings"] == len(emitted)
    assert summary["errors"] + summary["warnings"] <= summary["findings"]
    assert summary["dirty"] is False  # kept for the schema only


def test_lint_summary_counts_match_linter_report():
    _dep, header, lines = make_stream(7)
    sess, events = run_session(header, lines)
    summary = next(e for e in events if e["e"] == "lint")
    report = sess.linter.report()
    assert summary["findings"] == len(report.findings)


def test_snapshot_restore_replays_identical_lint_events():
    _dep, header, lines = make_stream(11)
    cut = len(lines) // 2

    live = DetectionSession("t", "s", header, PREDICATE, lint=True)
    live.open_events()
    live.feed(lines[:cut], base_lineno=2)
    snap = json.loads(json.dumps(live.snapshot()))
    assert snap["lint"] is not None

    resumed = DetectionSession.restore(
        "t", "s", header, PREDICATE, snap, lint=True,
    )
    live_rest = live.feed(lines[cut:], base_lineno=2 + cut)
    live_rest += live.finalize()
    res_rest = resumed.feed(lines[cut:], base_lineno=2 + cut)
    res_rest += resumed.finalize()
    assert json.dumps(live_rest, sort_keys=True) == \
        json.dumps(res_rest, sort_keys=True)


def test_restore_without_lint_state_still_serves():
    """A pre-lint checkpoint (no ``lint`` key) restores into a working
    lint-enabled session: the linter starts over but the session never
    crashes and still closes with a summary."""
    _dep, header, lines = make_stream(2)
    cut = len(lines) // 2
    live = DetectionSession("t", "s", header, PREDICATE, lint=True)
    live.open_events()
    live.feed(lines[:cut], base_lineno=2)
    snap = live.snapshot()
    snap.pop("lint", None)

    resumed = DetectionSession.restore(
        "t", "s", header, PREDICATE, snap, lint=True,
    )
    assert resumed.linter is not None
    events = resumed.feed(lines[cut:], base_lineno=2 + cut)
    events += resumed.finalize()
    assert any(e["e"] == "lint" for e in events)
    assert events[-1]["e"] == "final"


def test_obs_suppressions_mute_serve_findings():
    sess = DetectionSession("t", "s", T007_HEADER, PREDICATE, lint=True)
    sess.open_events()
    lines = list(T007_LINES) + [json.dumps(
        {"t": "obs", "obs": {"lint": {"suppress": ["T007"]}}}
    )]
    events = sess.feed(lines, base_lineno=2)
    fed_t007 = [e for e in events if e["e"] == "finding"
                and e["rule"] == "T007"]
    assert fed_t007  # already on the wire before the obs arrived
    tail = sess.finalize()
    # ...but the roll-up honours the suppression: no re-emission, and
    # the summary counts exclude the muted rule
    assert all(e["e"] != "finding" or e["rule"] != "T007" for e in tail)
    summary = next(e for e in tail if e["e"] == "lint")
    unsuppressed = sess.linter.report().findings
    assert summary["findings"] == \
        len([f for f in unsuppressed if f.rule_id != "T007"])


def test_worker_opts_plumb_lint_through():
    from repro.serve.workers import _open_session

    _dep, header, _lines = make_stream(1)
    sessions = {}
    events = _open_session(
        sessions, "t/s", "t", "s", header, PREDICATE,
        {"lint": True},
    )
    assert sessions["t/s"].linter is not None
    assert any(e["e"] == "open" for e in events)
    sessions.clear()
    _open_session(sessions, "t/s", "t", "s", header, PREDICATE, {})
    assert sessions["t/s"].linter is None


def test_restore_from_a_v1_lint_checkpoint():
    """A session checkpointed with the ``repro-lint-state/1`` linter (a
    lenient mirror of the whole trace) resumes: the suffix produces the
    events the uninterrupted run of that version produced."""
    fixture = Path(__file__).parent.parent / "fixtures" / \
        "lint_state_v1_session.json"
    case = json.loads(fixture.read_text())
    assert case["snapshot"]["lint"]["format"] == "repro-lint-state/1"
    resumed = DetectionSession.restore(
        "t", "s", case["header"], PREDICATE, case["snapshot"], lint=True,
    )
    cut = case["cut"]
    events = resumed.feed(case["lines"][cut:], base_lineno=2 + cut)
    events += resumed.finalize()
    assert json.dumps(events, sort_keys=True) == \
        json.dumps(case["events"], sort_keys=True)
    assert resumed.snapshot()["lint"]["format"] == "repro-lint-state/2"


def _lint_snapshot_bytes(records):
    header = {"format": "repro-events/1", "n": 2,
              "start": [{"up": True}, {"up": True}], "start_times": [0, 0]}
    sess = DetectionSession("t", "s", header, PREDICATE, lint=True)
    sess.open_events()
    sess.feed([json.dumps({"t": "ev", "p": k % 2, "u": {"up": k % 3 > 0},
                           "time": k}) for k in range(records)])
    return len(json.dumps(sess.snapshot()["lint"]))


def test_lint_snapshot_keeps_no_per_state_data():
    """The linter checkpoints its findings and arrow locations; the
    states live in the session's store checkpoint only."""
    assert _lint_snapshot_bytes(100) == _lint_snapshot_bytes(1000)
