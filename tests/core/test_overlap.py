"""Tests for Lemma 2's overlap/crossable predicates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    control_disjunctive,
    crossable,
    is_feasible,
    overlap,
)
from repro.errors import NoControllerExistsError
from repro.predicates import FalseInterval, false_intervals
from repro.trace import ComputationBuilder
from repro.workloads import availability_predicate, random_deposet

from ..oracles import find_overlapping_intervals


def patterns(*seqs):
    b = ComputationBuilder(len(seqs), start_vars=[{"up": s[0]} for s in seqs])
    for i, s in enumerate(seqs):
        for v in s[1:]:
            b.local(i, up=v)
    return b.build()


def test_crossable_basic_concurrent_intervals():
    dep = patterns([True, False, True], [True, False, True])
    i0 = FalseInterval(0, 1, 1)
    i1 = FalseInterval(1, 1, 1)
    assert crossable(dep, i0, i1)
    assert crossable(dep, i1, i0)


def test_crossable_boundary_conditions():
    dep = patterns([False, True], [True, False])
    at_bottom = FalseInterval(0, 0, 0)
    at_top = FalseInterval(1, 1, 1)
    mid = FalseInterval(0, 0, 0)
    # an interval starting at bottom cannot be the "stays true" side
    assert not crossable(dep, at_bottom, at_top)
    # an interval ending at top cannot be crossed
    assert not crossable(dep, FalseInterval(1, 1, 1), at_top)


def test_interval_never_crossable_against_itself():
    dep = patterns([True, False, True])
    iv = FalseInterval(0, 1, 1)
    assert not crossable(dep, iv, iv)


def test_overlap_requires_one_interval_per_process():
    dep = patterns([False, True], [False, True])
    with pytest.raises(ValueError):
        overlap(dep, [FalseInterval(0, 0, 0)])
    with pytest.raises(ValueError):
        overlap(dep, [FalseInterval(0, 0, 0), FalseInterval(0, 0, 0)])


def test_overlap_bottom_anchored_intervals():
    # both processes false at bottom: trivially overlapping via the
    # bottom/top boundary disjuncts
    dep = patterns([False, False, True], [False, True])
    ivs = [FalseInterval(0, 0, 1), FalseInterval(1, 0, 0)]
    assert overlap(dep, ivs)
    assert not is_feasible(dep, availability_predicate(2, var="up"))


def test_find_overlapping_none_when_a_process_is_clean():
    dep = patterns([True, True], [False, True])
    pred = availability_predicate(2, var="up")
    assert find_overlapping_intervals(dep, false_intervals(dep, pred)) is None


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_overlap_witness_agrees_with_algorithm(seed):
    """Brute-force overlap search vs the algorithm's feasibility verdict.

    Overlap existing implies infeasible (Lemma 2).  The converse direction
    (infeasible implies some overlapping set exists) is checked too --
    empirically validating the completeness argument.
    """
    dep = random_deposet(
        n=3, events_per_proc=4, message_rate=0.4, flip_rate=0.5, seed=seed,
        start_true_prob=0.5,
    )
    pred = availability_predicate(3, var="up")
    intervals = false_intervals(dep, pred)
    witness = find_overlapping_intervals(dep, intervals)
    feasible = is_feasible(dep, pred)
    if witness is not None:
        assert not feasible, f"overlap {witness} but controller found"
    if not feasible:
        assert witness is not None, "infeasible but no overlapping set found"


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_algorithm_witness_is_overlapping(seed):
    """The interval set attached to NoControllerExists genuinely overlaps."""
    dep = random_deposet(
        n=3, events_per_proc=4, message_rate=0.4, flip_rate=0.6, seed=seed,
        start_true_prob=0.4,
    )
    pred = availability_predicate(3, var="up")
    try:
        control_disjunctive(dep, pred)
    except NoControllerExistsError as exc:
        assert exc.witness is not None
        assert all(iv is not None for iv in exc.witness)
