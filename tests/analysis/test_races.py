"""The message-race detector: R301--R303."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.races import detect_races
from repro.analysis.runner import lint_deposet
from repro.errors import InterferenceError
from repro.trace import ComputationBuilder
from repro.workloads import (
    philosophers_trace,
    random_deposet,
    random_server_trace,
)

from ..oracles import detect_races_pairwise


def ids(findings):
    return sorted(f.rule_id for f in findings)


def two_islands(var="x"):
    """Two processes that never communicate, both writing ``var``."""
    b = ComputationBuilder(2, start_vars=[{var: 0}, {var: 0}])
    b.local(0, **{var: 1})
    b.local(1, **{var: 2})
    return b.build()


def test_r301_concurrent_writes():
    found = detect_races(two_islands())
    assert ids(found) == ["R301"]
    (f,) = found
    assert f.data["variable"] == "x"
    assert f.states  # a witness pair of writes


def test_r301_needs_actual_writes_not_initial_values():
    # both initial states carry the same variable but nobody writes it:
    # initial states are always pairwise concurrent, so flagging them
    # would condemn every trace
    b = ComputationBuilder(2, start_vars=[{"x": 0}, {"x": 0}])
    b.local(0)
    b.local(1)
    assert detect_races(b.build()) == []


def test_r301_silent_when_writes_are_ordered():
    b = ComputationBuilder(2, start_vars=[{"x": 0}, {"x": 0}])
    b.local(0, x=1)
    m = b.send(0)
    b.receive(1, m)
    b.local(1, x=2)
    assert ids(detect_races(b.build())) == []


def test_r302_racing_receives():
    # P2 receives from P0 and P1; the two sends are concurrent, so the
    # delivery order was a coin flip
    b = ComputationBuilder(3)
    m0 = b.send(0)
    m1 = b.send(1)
    b.receive(2, m0)
    b.receive(2, m1)
    found = detect_races(b.build())
    assert "R302" in ids(found)
    (f,) = [f for f in found if f.rule_id == "R302"]
    assert len(f.arrows) == 2


def test_r302_silent_when_sends_ordered():
    # P0's send reaches P1 before P1 sends: deliveries at P2 are causally
    # forced (FIFO chain), no race
    b = ComputationBuilder(3)
    m0 = b.send(0)
    b.receive(1, m0)
    m1 = b.send(1)
    m2 = b.send(1)
    b.receive(2, m1)
    b.receive(2, m2)
    found = [f for f in detect_races(b.build()) if f.rule_id == "R302"]
    assert found == []


def test_r303_crossed_sends():
    b = ComputationBuilder(2)
    m0 = b.send(0)
    m1 = b.send(1)
    b.receive(1, m0)
    b.receive(0, m1)
    found = detect_races(b.build())
    assert "R303" in ids(found)


def test_races_are_warnings_not_errors():
    dep = philosophers_trace(3, 2, seed=7)
    report = lint_deposet(dep, source="phil")
    assert report.ok()  # races never fail the default gate
    for f in report.findings:
        if f.rule_id.startswith("R"):
            assert str(f.severity) == "warning"


def test_witness_cap_mentions_overflow():
    # 6 isolated writers -> 15 concurrent pairs, capped in the witness
    b = ComputationBuilder(6, start_vars=[{"x": 0}] * 6)
    for p in range(6):
        b.local(p, x=p + 1)
    (f,) = detect_races(b.build())
    assert f.rule_id == "R301"
    assert "more" in f.message


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["random", "server"]), st.integers(0, 1_000_000))
def test_races_equal_pairwise_oracle(kind, seed):
    """The clock-matrix scans equal one ``concurrent`` query per pair:
    same findings in the same order, R301 witness cap and ``pairs``
    totals included.  Control arrows do not change the verdicts: races
    are judged on the underlying computation."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    if kind == "random":
        dep = random_deposet(n=n, events_per_proc=rng.randint(1, 14),
                             message_rate=rng.random(),
                             flip_rate=rng.random(), seed=seed)
    else:
        dep = random_server_trace(n=n, outages_per_server=rng.randint(1, 4),
                                  message_rate=rng.random(), seed=seed)
    arrows = []
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j and dep.state_counts[i] > 1 and dep.state_counts[j] > 1:
            arrows.append(((i, rng.randrange(dep.state_counts[i] - 1)),
                           (j, rng.randrange(1, dep.state_counts[j]))))
    try:
        dep = dep.with_control(arrows)
    except InterferenceError:
        pass
    assert [f.to_dict() for f in detect_races(dep)] == \
        [f.to_dict() for f in detect_races_pairwise(dep)]
