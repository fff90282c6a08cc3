"""Tests for exhaustive possibly/definitely detection."""

from repro.detection import (
    definitely_exhaustive,
    possibly_exhaustive,
    violating_cuts,
)
from repro.detection.sgsd import sgsd
from repro.predicates import And, LocalPredicate, Not, Or
from repro.trace import ComputationBuilder


def two_flags():
    b = ComputationBuilder(2, start_vars=[{"f": False}, {"f": False}])
    b.local(0, f=True)
    b.local(0, f=False)
    b.local(1, f=True)
    b.local(1, f=False)
    return b.build()


def test_possibly_finds_conjunction():
    dep = two_flags()
    both = And(LocalPredicate.var_true(0, "f"), LocalPredicate.var_true(1, "f"))
    cut = possibly_exhaustive(dep, both)
    assert cut == (1, 1)


def test_possibly_none_when_impossible():
    dep = two_flags()
    impossible = And(
        LocalPredicate.var_true(0, "f"),
        LocalPredicate.at_or_after(0, 2),  # f is false from state 2 on
    )
    assert possibly_exhaustive(dep, impossible) is None


def test_definitely_holds_for_unavoidable_predicate():
    # every sequence must pass a cut where P0 has the flag up: P0's states
    # are 0(false) 1(true) 2(false) and state 1 cannot be skipped; BUT a
    # cut's predicate can mention other processes too -- here it does not,
    # so the predicate is definitely true.
    dep = two_flags()
    assert definitely_exhaustive(dep, LocalPredicate.var_true(0, "f"))


def test_definitely_false_when_avoidable():
    dep = two_flags()
    both = And(LocalPredicate.var_true(0, "f"), LocalPredicate.var_true(1, "f"))
    # sequences can keep the flags apart
    assert not definitely_exhaustive(dep, both)


def test_definitely_with_corner_cutting():
    # predicate true only at the two mixed corners of a 1x1 grid: every
    # single-move sequence passes a corner, so it is definite; only the
    # paper's subset moves can take the diagonal (simultaneous) step
    b = ComputationBuilder(2)
    b.local(0)
    b.local(1)
    dep = b.build()
    corner = Or(
        And(LocalPredicate.at_or_after(0, 1), LocalPredicate.before(1, 1)),
        And(LocalPredicate.before(0, 1), LocalPredicate.at_or_after(1, 1)),
    )
    assert possibly_exhaustive(dep, corner) is not None
    assert definitely_exhaustive(dep, corner)
    escape = sgsd(dep, Not(corner), moves="subset")
    assert escape == [(0, 0), (1, 1)]


def test_violating_cuts_ordering_and_content():
    dep = two_flags()
    safety = Not(
        And(LocalPredicate.var_true(0, "f"), LocalPredicate.var_true(1, "f"))
    )
    cuts = violating_cuts(dep, safety)
    assert cuts == [(1, 1)]
