"""The control-relation analyzer: C101--C107."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.control import analyze_control
from repro.analysis.findings import Report
from repro.analysis.runner import _underlying_deposet
from repro.analysis.sanitizer import find_event_cycle
from repro.cli import parse_predicate
from repro.core import overlap
from repro.predicates import FalseInterval, false_intervals
from repro.trace.io import deposet_to_dict
from repro.workloads import (
    availability_predicate,
    random_deposet,
    random_server_trace,
)

from ..oracles import (
    analyze_control_rebuild,
    find_event_cycle_bfs,
    find_overlapping_intervals,
)
from .conftest import parse_clean


def run(data, predicate=None):
    raw = parse_clean(data)
    # the runner hands the control pass the deposet of the *underlying*
    # computation (messages only): a bad control arrow must become a
    # finding, not a constructor crash
    dep = _underlying_deposet(raw, Report(source="<test>", format="repro-deposet/1"))
    assert dep is not None
    return analyze_control(dep, raw.control, predicate=predicate)


def ids(findings):
    return sorted(f.rule_id for f in findings)


def test_clean_chain_no_control_findings(chain_dict):
    assert run(chain_dict) == []


def test_c101_interfering_arrow(chain_dict):
    # message orders event (1,1) before (2,1); the arrow demands the opposite
    chain_dict["control"] = [[[2, 1], [1, 1]]]
    (f,) = run(chain_dict)
    assert f.rule_id == "C101"
    assert "deadlock" in f.message
    assert f.data["cycle_events"]
    assert f.arrows  # names the closing control arrow


def test_c102_redundant_arrow(chain_dict):
    # (0,0) already happens before (1,2) through the token message
    chain_dict["control"] = [[[0, 0], [1, 2]]]
    (f,) = run(chain_dict)
    assert f.rule_id == "C102"


def test_c103_source_final(chain_dict):
    chain_dict["control"] = [[[0, 2], [1, 1]]]
    (f,) = run(chain_dict)
    assert f.rule_id == "C103"


def test_c103_target_initial(chain_dict):
    chain_dict["control"] = [[[2, 0], [1, 0]]]
    (f,) = run(chain_dict)
    assert f.rule_id == "C103"


def test_c103_backwards_on_one_process(chain_dict):
    chain_dict["control"] = [[[0, 1], [0, 1]]]
    (f,) = run(chain_dict)
    assert f.rule_id == "C103"


def test_c105_duplicate_arrow(chain_dict):
    chain_dict["control"] = [[[2, 1], [0, 2]], [[2, 1], [0, 2]]]
    (f,) = run(chain_dict)
    assert f.rule_id == "C105"
    assert f.data["other_location"] == "control[0]"


def test_c104_no_controller_for_overlapping_false_intervals():
    # two isolated processes, the predicate false everywhere: both false
    # intervals run to the final state, neither can be crossed (Lemma 2)
    data = {
        "format": "repro-deposet/1",
        "states": [
            [{"up": False}, {"up": False}],
            [{"up": False}, {"up": False}],
        ],
        "messages": [],
        "control": [],
    }
    pred = parse_predicate("at-least-one:up", 2)
    found = run(data, predicate=pred)
    c104 = [f for f in found if f.rule_id == "C104"]
    assert len(c104) == 1
    assert c104[0].data["intervals"]
    assert c104[0].states  # witness states from both intervals


def test_c104_absent_when_controllable(chain_dict):
    # "some process holds a token-ish var" with staggered truth: figure-4
    # style, controllable
    for i, row in enumerate(chain_dict["states"]):
        for a, st in enumerate(row):
            st["up"] = (a + i) % 2 == 0
    pred = parse_predicate("at-least-one:up", 3)
    assert "C104" not in ids(run(chain_dict, predicate=pred))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["random", "server"]),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=50_000),
)
def test_c104_matches_brute_force_overlap_search(kind, n, seed):
    # C104 comes from Figure 2 in O(n^2 p); the brute-force product over
    # one false-interval per process is the ground truth it must match.
    if kind == "random":
        dep = random_deposet(n=n, events_per_proc=5, message_rate=0.4,
                             flip_rate=0.4, var="avail", seed=seed)
    else:
        dep = random_server_trace(n=n, outages_per_server=2, down_run=5,
                                  message_rate=0.6, seed=seed)
    pred = availability_predicate(n)
    brute = find_overlapping_intervals(dep, false_intervals(dep, pred))
    found = run(deposet_to_dict(dep), predicate=pred)
    c104 = [f for f in found if f.rule_id == "C104"]
    assert len(c104) == (brute is not None)
    if c104:
        witness = [FalseInterval(iv["proc"], iv["lo"], iv["hi"])
                   for iv in c104[0].data["intervals"]]
        assert overlap(dep, witness)


def test_c106_blocks_where_local_predicate_false(chain_dict):
    for row in chain_dict["states"]:
        for st in row:
            st["up"] = True
    chain_dict["states"][1][0]["up"] = False  # blocked state of the arrow
    chain_dict["control"] = [[[2, 1], [1, 1]]]
    # interference would mask this; use a non-interfering arrow instead
    chain_dict["messages"] = []
    pred = parse_predicate("at-least-one:up", 3)
    found = run(chain_dict, predicate=pred)
    assert "C106" in ids(found)


def test_c107_local_predicate_false_at_final_state(chain_dict):
    for row in chain_dict["states"]:
        for st in row:
            st["up"] = True
    chain_dict["states"][2][2]["up"] = False
    pred = parse_predicate("at-least-one:up", 3)
    found = run(chain_dict, predicate=pred)
    assert "C107" in ids(found)


# -- the linear checks equal their per-arrow forms ---------------------------


def random_control_doc(seed):
    """A random deposet's batch document plus a random control relation:
    cyclic and redundant arrows, duplicates, same-process arrows, arrows
    equal to a message, and unenforceable ones (C103)."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    dep = random_deposet(n=n, events_per_proc=rng.randint(2, 6),
                         message_rate=rng.uniform(0.1, 0.7), flip_rate=0.4,
                         seed=seed)
    counts = dep.state_counts
    control = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        if roll < 0.15 and dep.messages:
            m = rng.choice(dep.messages)
            control.append([list(m.src), list(m.dst)])
        elif roll < 0.3 and control:
            control.append(rng.choice(control))
        else:
            i, j = rng.randrange(n), rng.randrange(n)
            control.append([[i, rng.randrange(counts[i])],
                            [j, rng.randrange(counts[j])]])
    doc = deposet_to_dict(dep)
    doc["control"] = control
    return dep, doc


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000), st.booleans())
def test_control_checks_equal_per_arrow_oracles(seed, with_predicate):
    """C101 (Kahn first, BFS only on a cycle) and C102 (one order, one
    clock lookup per out-edge) equal the BFS-per-arrow search and the
    per-arrow rebuild, as full findings in order."""
    dep, doc = random_control_doc(seed)
    pred = availability_predicate(dep.n, "up") if with_predicate else None
    found = run(doc, predicate=pred)
    expect = analyze_control_rebuild(parse_clean(doc), found)
    assert [f.to_dict() for f in found] == [f.to_dict() for f in expect]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_find_event_cycle_equals_bfs_per_arrow(seed):
    """Any arrows whose events exist (backwards, same-event and repeated
    ones included), any candidate subset."""
    rng = random.Random(seed)
    counts = [rng.randint(2, 6) for _ in range(rng.randint(1, 4))]
    arrows = []
    for _ in range(rng.randint(0, 9)):
        i, j = rng.randrange(len(counts)), rng.randrange(len(counts))
        arrows.append(((i, rng.randrange(counts[i] - 1)),
                       (j, rng.randrange(1, counts[j]))))
    if arrows and rng.random() < 0.3:
        arrows.append(rng.choice(arrows))
    candidates = None
    if rng.random() < 0.5:
        candidates = sorted(rng.sample(range(len(arrows)),
                                       rng.randint(0, len(arrows))))
    assert find_event_cycle(counts, arrows, candidates) == \
        find_event_cycle_bfs(counts, arrows, candidates)
