"""Property suite: slicing engines agree with the exhaustive ground truth.

The load-bearing guarantee of the whole subsystem: on any (small) random
deposet -- with or without control arrows -- ``possibly_slice`` /
``definitely_slice`` return the same verdicts as the exponential lattice
walk.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.causality.relations import StateRef
from repro.detection import (
    definitely,
    definitely_exhaustive,
    possibly,
    possibly_exhaustive,
)
from repro.errors import InterferenceError, MalformedTraceError, NotRegularError
from repro.predicates import LocalPredicate, Or
from repro.slicing import definitely_slice, possibly_slice
from repro.workloads import availability_predicate, random_deposet

SMALL = dict(n=3, events_per_proc=4, message_rate=0.4, flip_rate=0.4)


def small_dep(seed):
    return random_deposet(seed=seed, **SMALL)


def bad(n=3):
    """All-servers-down: the conjunctive (regular) bug predicate."""
    return availability_predicate(n, "up").negated()


def with_random_control(dep, seed):
    """``dep`` plus a few control arrows between concurrent states, or
    ``None`` when the sampled arrows are invalid/interfering."""
    rng = random.Random(seed)
    order = dep.order
    arrows = []
    for _ in range(4):
        i, j = rng.sample(range(dep.n), 2)
        if dep.state_counts[i] < 2 or dep.state_counts[j] < 2:
            continue
        a = rng.randrange(dep.state_counts[i] - 1)
        b = rng.randrange(1, dep.state_counts[j])
        if order.concurrent((i, a), (j, b)):
            arrows.append((StateRef(i, a), StateRef(j, b)))
    if not arrows:
        return None
    try:
        return dep.with_control(arrows)
    except (InterferenceError, MalformedTraceError):
        return None


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_possibly_agrees_with_exhaustive(seed):
    dep = small_dep(seed)
    ws = possibly_slice(dep, bad())
    we = possibly_exhaustive(dep, bad())
    assert (ws is None) == (we is None)
    if ws is not None:
        # the slice witness is a real satisfying consistent cut
        assert dep.order.is_consistent_cut(ws)
        assert bad().evaluate(dep, ws)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_definitely_agrees_with_exhaustive(seed):
    dep = small_dep(seed)
    assert definitely_slice(dep, bad()) == definitely_exhaustive(dep, bad())


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_agreement_survives_control_arrows(seed):
    cdep = with_random_control(small_dep(seed), seed * 7 + 1)
    assume(cdep is not None)
    ws = possibly_slice(cdep, bad())
    we = possibly_exhaustive(cdep, bad())
    assert (ws is None) == (we is None)
    assert definitely_slice(cdep, bad()) == definitely_exhaustive(cdep, bad())


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_engine_auto_matches_exhaustive_on_regular(seed):
    dep = small_dep(seed)
    assert (possibly(dep, bad(), engine="auto") is None) == (
        possibly_exhaustive(dep, bad()) is None
    )
    assert definitely(dep, bad(), engine="auto") == definitely_exhaustive(
        dep, bad()
    )


def nonregular():
    return Or(
        LocalPredicate.var_true(0, "up"), LocalPredicate.var_true(1, "up")
    )


def test_explicit_slice_engine_rejects_non_regular():
    dep = small_dep(0)
    with pytest.raises(NotRegularError):
        possibly_slice(dep, nonregular())
    with pytest.raises(NotRegularError):
        definitely_slice(dep, nonregular())


def test_engine_auto_falls_back_for_non_regular():
    from repro.obs import METRICS

    dep = small_dep(0)
    with METRICS.scoped() as scope:
        got = possibly(dep, nonregular(), engine="auto")
    assert got == possibly_exhaustive(dep, nonregular())
    assert scope.counter("detection.slice.fallbacks") == 1
    # the fallback ran the exhaustive walk, not the slice engine
    assert scope.counter("detection.lattice_walks") >= 1
    assert scope.counter("detection.slice.walks") == 0


def test_unknown_engine_rejected():
    dep = small_dep(0)
    with pytest.raises(ValueError):
        possibly(dep, bad(), engine="warp")
