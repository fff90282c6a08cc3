"""The slice structure: extreme cuts, enumeration, skip arrows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality.relations import StateRef
from repro.predicates import local_truth_table
from repro.slicing import (
    compute_slice,
    definitely_slice,
    greatest_satisfying_cut,
    possibly_slice,
    slice_of,
)
from repro.trace import CutLattice
from repro.workloads import availability_predicate, random_deposet

SMALL = dict(n=3, events_per_proc=4, message_rate=0.4, flip_rate=0.4)


def small_dep(seed):
    return random_deposet(seed=seed, **SMALL)


def bad_tables(dep):
    """Truth tables for the conjunctive bug predicate all-servers-down."""
    return [~t for t in local_truth_table(dep, availability_predicate(dep.n, "up"))]


def brute_satisfying(dep, tables):
    return {
        cut
        for cut in CutLattice(dep).iter_consistent_cuts()
        if all(bool(t[c]) for t, c in zip(tables, cut))
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_extreme_cuts_are_lattice_min_and_max(seed):
    dep = small_dep(seed)
    tables = bad_tables(dep)
    sl = compute_slice(dep, tables)
    sat = brute_satisfying(dep, tables)
    if not sat:
        assert sl.empty
        assert sl.greatest is None
        return
    assert sl.least == tuple(min(c[i] for c in sat) for i in range(dep.n))
    assert sl.greatest == tuple(max(c[i] for c in sat) for i in range(dep.n))
    # regularity: the extremes are themselves satisfying cuts
    assert sl.least in sat and sl.greatest in sat


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_iter_cuts_enumerates_exactly_the_satisfying_cuts(seed):
    dep = small_dep(seed)
    tables = bad_tables(dep)
    sl = compute_slice(dep, tables)
    assert set(sl.iter_cuts()) == brute_satisfying(dep, tables)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_greatest_cut_mirror_elimination(seed):
    dep = small_dep(seed)
    tables = bad_tables(dep)
    sat = brute_satisfying(dep, tables)
    got = greatest_satisfying_cut(dep, tables)
    if not sat:
        assert got is None
    else:
        assert got == tuple(max(c[i] for c in sat) for i in range(dep.n))


def test_skip_arrows_one_per_false_state():
    dep = small_dep(7)
    tables = bad_tables(dep)
    sl = compute_slice(dep, tables)
    expected = sum(int((~t).sum()) for t in tables)
    arrows = sl.skip_arrows()
    assert len(arrows) == expected
    for src, dst in arrows:
        # collapse edge: successor state back onto the ruled-out state
        assert src.proc == dst.proc
        assert src.index == dst.index + 1
        assert not tables[dst.proc][dst.index]


def test_skip_arrows_virtual_top_for_false_last_state():
    dep = small_dep(7)
    m0 = dep.state_counts[0]
    tables = [t.copy() for t in bad_tables(dep)]
    tables[0][:] = True
    tables[0][m0 - 1] = False  # rule out the last state of P0
    sl = compute_slice(dep, tables)
    assert (StateRef(0, m0), StateRef(0, m0 - 1)) in sl.skip_arrows()


def test_empty_slice_has_no_cuts_and_zero_volume():
    dep = small_dep(3)
    tables = bad_tables(dep)
    for t in tables:
        t[:] = False
    sl = compute_slice(dep, tables)
    assert sl.empty
    assert list(sl.iter_cuts()) == []
    assert sl.band_volume == 0


def test_band_volume_bounds_enumeration():
    dep = small_dep(11)
    tables = bad_tables(dep)
    sl = compute_slice(dep, tables)
    if not sl.empty:
        assert sl.count_cuts() <= sl.band_volume


def test_malformed_predicate_raises_same_valueerror_everywhere():
    dep = random_deposet(n=2, events_per_proc=4, message_rate=0.3, seed=9)
    pred = availability_predicate(4, "up").negated()  # constrains P3; dep has 2
    msgs = []
    for call in (slice_of, possibly_slice, definitely_slice):
        with pytest.raises(ValueError) as exc_info:
            call(dep, pred)
        msgs.append(str(exc_info.value))
    assert len(set(msgs)) == 1, f"callers disagree on the error: {msgs}"
    assert "constrains process 3" in msgs[0]
