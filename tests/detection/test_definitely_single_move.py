"""*definitely* is the single-move notion in every engine.

``definitely(dep, B.negated())`` must say exactly "no single-move global
sequence satisfies ``B``" (``sgsd(..., moves="single") is None``), i.e.
"no controller for ``B`` exists".  Checked over every small trace of a
bounded family, and by hypothesis on larger random ones.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection import definitely
from repro.detection.sgsd import sgsd
from repro.trace.io import deposet_from_dict
from repro.workloads import availability_predicate, random_deposet

ENGINES = ("exhaustive", "slice")


def small_traces(n, max_states):
    """Every trace with ``n`` processes of 1..``max_states`` states each,
    every ``up`` truth pattern, and no message or one message between any
    send and receive position."""
    for counts in itertools.product(range(1, max_states + 1), repeat=n):
        messages = [[]]
        for p, q in itertools.permutations(range(n), 2):
            for a in range(counts[p] - 1):
                for b in range(1, counts[q]):
                    messages.append([{"src": [p, a], "dst": [q, b]}])
        total = sum(counts)
        for bits in range(1 << total):
            flat = [bool(bits >> k & 1) for k in range(total)]
            states, k = [], 0
            for m in counts:
                states.append([{"up": v} for v in flat[k:k + m]])
                k += m
            for msgs in messages:
                yield deposet_from_dict({
                    "format": "repro-deposet/1", "states": states,
                    "messages": msgs, "control": [],
                })


def assert_single_move(dep):
    pred = availability_predicate(dep.n, "up")
    want = sgsd(dep, pred, moves="single") is None
    for engine in ENGINES:
        assert definitely(dep, pred.negated(), engine=engine) == want, engine


@pytest.mark.parametrize("n,max_states", [(1, 5), (2, 4), (3, 2)])
def test_definitely_is_single_move_on_every_small_trace(n, max_states):
    for dep in small_traces(n, max_states):
        assert_single_move(dep)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("events", [1, 2, 3, 4])
def test_definitely_is_single_move_on_seeded_small_traces(n, events):
    for seed in range(40):
        assert_single_move(random_deposet(
            n=n, events_per_proc=events, message_rate=0.4, flip_rate=0.4,
            seed=seed,
        ))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=3, max_value=6),
    st.floats(min_value=0.0, max_value=0.7),
    st.integers(min_value=0, max_value=50_000),
)
def test_definitely_is_single_move_beyond_small(n, events, rate, seed):
    assert_single_move(random_deposet(
        n=n, events_per_proc=events, message_rate=rate, flip_rate=0.4,
        seed=seed,
    ))


def test_the_notions_differ_somewhere_in_the_small_family():
    # Guard against a vacuous check: some small trace has a subset-move
    # escape but no single-move one (the corner-cutting diagonal).
    pred = availability_predicate(2, "up")
    assert any(
        sgsd(dep, pred, moves="single") is None
        and sgsd(dep, pred, moves="subset") is not None
        for dep in small_traces(2, 2)
    )
