"""The streaming linter: prefix identity against batch ``run_rules``.

The contract under test is the invariant of the online linter: at
**every** prefix of a record stream the strict reader accepts -- with
FIFO inversions, timestamp regressions, records without ``time``, and
repeated or redundant control records -- the cumulative findings of
:class:`StreamingLinter` equal the batch pipeline run over the lenient
parse of that prefix, as a multiset, with identical pass/skip
bookkeeping.  A record the strict reader rejects is exactly the strict
error, and nothing follows it.
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.findings import RULES
from repro.analysis.fingerprint import fingerprint
from repro.analysis.incremental import (
    LINT_STATE_FORMAT,
    RULE_MODES,
    StreamingLinter,
)
from repro.analysis.raw import parse_stream_lines
from repro.analysis.runner import run_rules
from repro.errors import MalformedTraceError, ReproError
from repro.serve.session import DetectionSession
from repro.trace.io import write_event_stream
from repro.workloads import random_deposet


def stream_lines(dep, obs=None):
    buf = io.StringIO()
    write_event_stream(dep, buf, obs=obs)
    return buf.getvalue().splitlines()


def canon(findings):
    return sorted(json.dumps(f.to_dict(), sort_keys=True) for f in findings)


def batch_prefix(lines, source="<s>"):
    raw, parse_findings = parse_stream_lines(lines, source=source)
    return run_rules(raw, parse_findings=parse_findings, source=source)


def assert_prefix_identity(lines):
    """Feed ``lines`` one by one, checking report == batch at each prefix."""
    linter = StreamingLinter(source="<s>")
    for k, line in enumerate(lines, start=1):
        linter.feed_line(line)
        streamed = linter.report()
        batch = batch_prefix(lines[:k])
        assert canon(streamed.findings) == canon(batch.findings), (
            f"prefix {k}/{len(lines)}: streamed != batch\n"
            f"streamed: {[f.describe() for f in streamed.findings]}\n"
            f"batch:    {[f.describe() for f in batch.findings]}"
        )
        assert streamed.passes == batch.passes
        assert streamed.skipped == batch.skipped
    return linter


# -- random clean streams ---------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_prefix_identity_random_clean(seed):
    dep = random_deposet(n=3, events_per_proc=5, message_rate=0.4, seed=seed)
    linter = assert_prefix_identity(stream_lines(dep))
    assert not linter.rejected


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_prefix_identity_with_control_arrows(seed):
    dep = random_deposet(n=3, events_per_proc=5, message_rate=0.5, seed=seed)
    if dep.messages:
        # shadow a message with a control arrow: valid by construction
        m = dep.messages[0]
        dep = dep.with_control([(tuple(m.src), tuple(m.dst))])
    assert_prefix_identity(stream_lines(dep))


# -- random corrupted streams ----------------------------------------------


def _mutate(lines, rng):
    """Apply a random arrival-order/content corruption to a clean stream."""
    lines = list(lines)
    body = list(range(1, len(lines)))  # never touch the header slot
    kind = rng.integers(0, 4)
    if kind == 0 and len(body) >= 1:  # duplicate a record
        i = int(rng.choice(body))
        lines.insert(i, lines[i])
    elif kind == 1 and len(body) >= 2:  # swap two adjacent records
        i = int(rng.choice(body[:-1]))
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif kind == 2 and len(body) >= 1:  # drop a record
        del lines[int(rng.choice(body))]
    else:  # inject garbage
        pos = int(rng.integers(1, len(lines) + 1))
        lines.insert(pos, "{not json")
    return lines


def strict_rejection(lines):
    """``(index, rule, where, message)`` of the first line of ``lines``
    the strict reader rejects -- the ``error`` event ``repro watch`` and
    ``repro serve`` end the session with -- or ``None``."""
    try:
        sess = DetectionSession("t", "s", json.loads(lines[0]),
                                "at-least-one:up", label="<s>")
    except json.JSONDecodeError as exc:
        return 0, "T001", "<s>:1", f"<s>:1: not valid JSON ({exc})"
    except MalformedTraceError as exc:
        return 0, exc.rule, exc.location, str(exc)
    for k, line in enumerate(lines[1:], start=1):
        for ev in sess.feed_line(line, lineno=k + 1):
            if ev["e"] == "error":
                return k, ev.get("rule"), ev["where"], ev["message"]
    return None


def assert_strict_rejection(lines):
    """Before the rejected line, prefix identity; at it, exactly the
    strict error as one finding; after it, nothing."""
    k, rule, where, message = strict_rejection(lines)
    if k:
        assert_prefix_identity(lines[:k])
    linter = StreamingLinter(source="<s>")
    for line in lines[:k]:
        linter.feed_line(line)
    before = list(linter.findings())
    got = linter.feed_line(lines[k])
    assert [(f.rule_id, f.location, f"{where}: {f.message}")
            for f in got] == [(rule or "C101", where, message)]
    if rule is not None:
        # the strict error carries lint's witness: same fingerprint as
        # the batch finding for that record
        batch = batch_prefix(lines[:k + 1]).findings
        assert fingerprint(got[0]) in {fingerprint(f) for f in batch}
    for line in lines[k + 1:]:
        assert linter.feed_line(line) == []
    report = linter.report()
    assert report.findings == before + got
    assert report.passes == (["parse", "sanitizer"] if k else ["parse"])
    return got[0]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_prefix_identity_random_corrupted(seed):
    """A corrupted stream is linted like the strict reader reads it:
    prefix identity up to the first rejected record, the strict error
    there, nothing after."""
    import numpy as np

    rng = np.random.default_rng(seed)
    dep = random_deposet(n=3, events_per_proc=4, message_rate=0.5, seed=seed)
    lines = stream_lines(dep)
    for _ in range(int(rng.integers(1, 3))):
        lines = _mutate(lines, rng)
    if strict_rejection(lines) is None:
        assert_prefix_identity(lines)
    else:
        assert_strict_rejection(lines)


# -- random accepted streams with every streamable finding -----------------


def _accepted_stream(seed, times, drop_time, repeat_ctl):
    """A stream the strict reader accepts: random control arrows (one
    redundant with a message), optional times with regressions (and one
    event record without ``time``), repeated ctl records."""
    import numpy as np

    rng = np.random.default_rng(seed)
    dep = random_deposet(n=3, events_per_proc=5, message_rate=0.6, seed=seed)
    arrows = []
    if dep.messages:
        m = dep.messages[int(rng.integers(len(dep.messages)))]
        arrows.append((tuple(m.src), tuple(m.dst)))
    for _ in range(3):
        sp, dp = (int(x) for x in rng.integers(0, dep.n, 2))
        si = int(rng.integers(0, dep.state_counts[sp] - 1))
        di = int(rng.integers(1, dep.state_counts[dp]))
        try:
            stream_lines(dep.with_control(arrows + [((sp, si), (dp, di))]))
        except ReproError:
            continue
        arrows.append(((sp, si), (dp, di)))
    lines = stream_lines(dep.with_control(arrows) if arrows else dep)
    if times:
        header = json.loads(lines[0])
        header["start_times"] = [float(rng.integers(0, 3))] * dep.n
        body, clock = [], 0.0
        for line in lines[1:]:
            rec = json.loads(line)
            if rec["t"] in ("ev", "recv"):
                clock += float(rng.integers(-2, 4))
                if drop_time and rng.random() < 0.15:
                    drop_time = False
                else:
                    rec["time"] = clock
            body.append(json.dumps(rec))
        lines = [json.dumps(header)] + body
    ctl = [line for line in lines if '"ctl"' in line]
    for line in ctl[:repeat_ctl]:
        lines.insert(int(rng.integers(lines.index(line) + 1,
                                      len(lines) + 1)), line)
    assert strict_rejection(lines) is None
    return lines


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), times=st.booleans(),
       drop_time=st.booleans(), repeat_ctl=st.integers(0, 2))
def test_prefix_identity_accepted_streams(seed, times, drop_time,
                                         repeat_ctl):
    lines = _accepted_stream(seed, times, drop_time, repeat_ctl)
    linter = assert_prefix_identity(lines)
    assert not linter.rejected


# -- hand-crafted corruption: the dirty path --------------------------------


HEADER = json.dumps({
    "format": "repro-events/1", "n": 2,
    "start": [{"up": True}, {"up": True}],
})


def test_t009_record_is_the_strict_error():
    lines = [
        HEADER,
        json.dumps({"t": "ev", "p": 0, "u": {"up": False}}),
        # recv referencing the just-appended (not yet completed) state
        json.dumps({"t": "recv", "p": 1, "src": [0, 1], "u": {}}),
        json.dumps({"t": "ev", "p": 0, "u": {"up": True}}),
    ]
    assert assert_strict_rejection(lines).rule_id == "T009"


def test_clean_stream_stays_clean_and_not_dirty():
    lines = [
        HEADER,
        json.dumps({"t": "ev", "p": 0, "u": {"up": False}}),
        json.dumps({"t": "ev", "p": 0, "u": {"up": True}}),
        json.dumps({"t": "recv", "p": 1, "src": [0, 0], "u": {}}),
    ]
    linter = assert_prefix_identity(lines)
    assert not linter.rejected
    assert linter.findings() == []


def test_interfering_ctl_record_is_c101():
    lines = [
        HEADER,
        json.dumps({"t": "ev", "p": 0, "u": {}}),
        json.dumps({"t": "recv", "p": 1, "src": [0, 0], "u": {}}),
        json.dumps({"t": "ev", "p": 1, "u": {}}),
        # the message orders (0,0) before (1,1); this waits the other way
        json.dumps({"t": "ctl", "src": [1, 1], "dst": [0, 1]}),
    ]
    assert assert_strict_rejection(lines).rule_id == "C101"


def test_t007_crossed_delivery_streams_at_arrival():
    lines = [
        HEADER,
        json.dumps({"t": "ev", "p": 0, "u": {}}),
        json.dumps({"t": "ev", "p": 0, "u": {}}),
        json.dumps({"t": "recv", "p": 1, "src": [0, 1], "u": {}}),
        json.dumps({"t": "recv", "p": 1, "src": [0, 0], "u": {}}),
    ]
    linter = StreamingLinter()
    emitted = []
    for line in lines:
        emitted.extend(linter.feed_line(line))
    # the inversion was emitted the moment the second recv arrived
    assert [f.rule_id for f in emitted] == ["T007"]
    assert_prefix_identity(lines)


def test_t006_same_process_arrow_streams():
    lines = [
        HEADER,
        json.dumps({"t": "ev", "p": 0, "u": {}}),
        json.dumps({"t": "recv", "p": 0, "src": [0, 0], "u": {}}),
    ]
    assert assert_strict_rejection(lines).rule_id == "T006"


def test_t004_duplicate_delivery_streams():
    lines = [
        HEADER,
        json.dumps({"t": "ev", "p": 0, "u": {}}),
        json.dumps({"t": "ev", "p": 0, "u": {}}),
        json.dumps({"t": "recv", "p": 1, "src": [0, 0], "u": {}}),
        json.dumps({"t": "recv", "p": 1, "src": [0, 0], "u": {}}),
    ]
    assert assert_strict_rejection(lines).rule_id == "T004"


def test_garbage_and_bad_header_identity():
    assert assert_strict_rejection(["not json at all", HEADER]).rule_id \
        == "T001"
    assert assert_strict_rejection(
        [json.dumps({"format": "nope"}), HEADER]).rule_id == "T001"
    assert_prefix_identity([])  # degenerate: no lines at all


# -- the mode table ---------------------------------------------------------


def test_rule_modes_cover_the_catalogue_exactly():
    assert set(RULE_MODES) == set(RULES)
    for rid, mode in RULE_MODES.items():
        assert mode.mode in ("incremental", "finalize"), rid
        assert mode.reason  # every mode claim carries its argument


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_rule_modes_match_what_streams(seed):
    """Streamed findings are incremental-mode rules; the ones only
    ``report()`` adds are finalize-mode rules."""
    linter = StreamingLinter(predicate=None)
    for line in _accepted_stream(seed, True, False, 1):
        for f in linter.feed_line(line):
            assert RULE_MODES[f.rule_id].mode == "incremental", f.rule_id
    for f in linter.report().findings[len(linter.findings()):]:
        assert RULE_MODES[f.rule_id].mode == "finalize", f.rule_id


# -- work accounting --------------------------------------------------------


def _per_record_work(events_per_proc):
    dep = random_deposet(n=3, events_per_proc=events_per_proc,
                         message_rate=0.4, seed=7)
    linter = StreamingLinter()
    for line in stream_lines(dep):
        linter.feed_line(line)
    units = sum(
        linter.work.get(k, 0)
        for k in ("events", "arrows", "heap_ops", "channel_cmps")
    )
    return units / max(1, linter.records), linter


def test_per_record_cost_is_length_independent():
    small, _ = _per_record_work(5)
    large, linter = _per_record_work(40)
    # O(delta) per record: 8x the stream must not raise the per-record
    # unit cost (allow slack for integer effects on tiny streams)
    assert large <= small * 1.5 + 1.0, (small, large)
    assert linter.work["records"] == linter.records


def test_work_metrics_reach_the_global_registry():
    from repro.obs import METRICS

    with METRICS.scoped() as scope:
        dep = random_deposet(n=3, events_per_proc=4, message_rate=0.4, seed=3)
        linter = StreamingLinter()
        for line in stream_lines(dep):
            linter.feed_line(line)
    counters = scope.delta()["counters"]
    assert counters.get("analysis.lint.work.records") == linter.records
    assert counters.get("analysis.lint.work.events", 0) >= 1


# -- snapshot / restore -----------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), cut=st.integers(1, 12))
def test_snapshot_restore_identity(seed, cut):
    dep = random_deposet(n=3, events_per_proc=4, message_rate=0.5, seed=seed)
    lines = stream_lines(dep)
    cut = min(cut, len(lines))

    live = StreamingLinter(source="<s>")
    for line in lines[:cut]:
        live.feed_line(line)
    snap = json.loads(json.dumps(live.snapshot()))  # must survive JSON
    assert snap["format"] == LINT_STATE_FORMAT
    restored = StreamingLinter.restore(snap)

    live_rest, restored_rest = [], []
    for line in lines[cut:]:
        live_rest.extend(live.feed_line(line))
        restored_rest.extend(restored.feed_line(line))
    assert canon(live_rest) == canon(restored_rest)
    assert canon(live.report().findings) == canon(restored.report().findings)


def test_restore_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown lint state format"):
        StreamingLinter.restore({"format": "bogus/9"})


def test_feed_record_and_feed_line_agree():
    dep = random_deposet(n=2, events_per_proc=4, message_rate=0.5, seed=11)
    lines = stream_lines(dep)
    a, b = StreamingLinter(), StreamingLinter()
    got_a, got_b = [], []
    for line in lines:
        got_a.extend(a.feed_line(line))
        got_b.extend(b.feed_record(json.loads(line)))
    assert canon(got_a) == canon(got_b)
    assert canon(a.report().findings) == canon(b.report().findings)
