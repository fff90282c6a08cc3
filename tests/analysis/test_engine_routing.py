"""Engine auto-routing soundness: auto may never hand a non-regular
predicate to the slicing engine, and all engines agree on verdicts."""

import pytest

from repro.analysis.classifier import classify
from repro.detection.engine import ENGINES, _resolve, definitely, possibly
from repro.errors import NotRegularError
from repro.obs.metrics import METRICS
from repro.predicates.base import FALSE, TRUE
from repro.predicates.disjunctive import DisjunctivePredicate
from repro.predicates.local import LocalPredicate
from repro.slicing.regular import regular_form
from repro.workloads import random_deposet


def up(p):
    return LocalPredicate.var_true(p, "up")


PREDICATES = [
    TRUE,
    FALSE,
    up(0),
    up(0) & up(1),
    ~(up(0) | up(1)),  # negated disjunction -> conjunction of locals
    up(0) | up(1),
    DisjunctivePredicate([up(0), up(1), up(2)]),
]


@pytest.mark.parametrize("pred", PREDICATES, ids=lambda p: repr(p)[:40])
def test_auto_routes_slice_iff_slicing_accepts(pred):
    which = _resolve(pred, "auto")
    accepts = regular_form(pred) is not None
    assert (which == "slice") == accepts
    # and the classifier's verdict IS the routing decision
    assert classify(pred).engine == which


@pytest.mark.parametrize("pred", PREDICATES, ids=lambda p: repr(p)[:40])
def test_auto_agrees_with_exhaustive(pred):
    for seed in (0, 1):
        dep = random_deposet(3, 2, seed=seed)
        want = possibly(dep, pred, engine="exhaustive")
        got = possibly(dep, pred, engine="auto")
        assert (want is None) == (got is None)
        assert definitely(dep, pred, engine="auto") == definitely(
            dep, pred, engine="exhaustive"
        )


def test_explicit_slice_on_non_regular_raises():
    dep = random_deposet(3, 2, seed=0)
    pred = DisjunctivePredicate([up(0), up(1), up(2)])
    with pytest.raises(NotRegularError):
        possibly(dep, pred, engine="slice")
    with pytest.raises(NotRegularError):
        definitely(dep, pred, engine="slice")


def test_unknown_engine_rejected():
    dep = random_deposet(2, 2, seed=0)
    with pytest.raises(ValueError):
        possibly(dep, TRUE, engine="warp")


def test_parallel_engine_is_gone():
    assert ENGINES == ("auto", "exhaustive", "slice")
    dep = random_deposet(2, 2, seed=0)
    for fn in (possibly, definitely):
        with pytest.raises(ValueError) as exc_info:
            fn(dep, up(0) & up(1), engine="parallel")
        msg = str(exc_info.value)
        assert "unknown engine 'parallel'" in msg
        assert all(repr(e) in msg for e in ENGINES)


def test_fallback_counter_increments_on_exhaustive_routing():
    counter = METRICS.counter("detection.slice.fallbacks")
    before = counter.value
    _resolve(up(0) | up(1), "auto")
    assert counter.value == before + 1
    _resolve(up(0) & up(1), "auto")  # regular: no fallback
    assert counter.value == before + 1
