"""Polynomial possibly/definitely detection via computation slicing.

Drop-in counterparts of the exhaustive walkers in
:mod:`repro.detection.lattice_walk`, for predicates that normalise into the
regular (conjunctive) class -- :func:`repro.slicing.regular.regular_form`
decides; outside the class both entry points raise
:class:`~repro.errors.NotRegularError` so the engine dispatcher can fall
back.

* :func:`possibly_slice` -- the least satisfying cut, straight from the
  slice's candidate elimination.  No lattice enumeration at all.
* :func:`definitely_slice` -- "every global sequence hits a satisfying
  cut", i.e. **no** subset-move path ``bottom -> top`` through
  non-satisfying cuts.  The search is pruned with the slice's extreme cuts
  ``W`` (least) and ``M`` (greatest):

  - every cut with some component ``> M_i`` is non-satisfying (``M`` upper-
    bounds all satisfying cuts) **and** can reach ``top`` through such cuts
    only: joining it with the consistent cuts of any event linearisation
    yields a single-move path to ``top`` that never leaves the zone (joins
    of consistent cuts are consistent, and components never decrease).  So
    the DFS stops with a verdict the moment it crosses above ``M`` --
    searching only the ``[bottom, M]`` box instead of the whole lattice;
  - trivially, if ``bottom`` or ``top`` satisfies, every sequence does.

Metrics (all under ``detection.slice.*``):

* ``walks``      -- +1 per public call, mirroring ``detection.lattice_walks``;
* ``states``     -- work units: one per *local* state whose conjunct was
  **actually evaluated** (truth-table build: unconstrained processes and
  the constant-false short-circuit contribute nothing) plus one per
  *global* cut the search materialised (see :func:`_table_states`;
  contract pinned in ``tests/detection/test_walk_counters.py``).
  Comparable against
  ``detection.lattice_states`` -- both count predicate-evaluation work --
  which is the E14 ratio;
* ``fallbacks``  -- +1 per :class:`NotRegularError` raised.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import NotRegularError
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.predicates.base import Predicate
from repro.slicing.regular import RegularForm, regular_form
from repro.slicing.slice import ComputationSlice, compute_slice
from repro.trace.deposet import Deposet
from repro.trace.global_state import Cut, CutLattice, final_cut, initial_cut

__all__ = ["possibly_slice", "definitely_slice", "slice_of"]

_SLICE_WALKS = METRICS.counter("detection.slice.walks")
_SLICE_STATES = METRICS.counter("detection.slice.states")
_SLICE_FALLBACKS = METRICS.counter("detection.slice.fallbacks")


def _require_regular(pred: Predicate) -> RegularForm:
    form = regular_form(pred)
    if form is None:
        _SLICE_FALLBACKS.inc()
        raise NotRegularError(
            f"{pred!r} does not normalise into a conjunction of per-process "
            f"local predicates; use the exhaustive engine"
        )
    return form


def _table_states(form: RegularForm, dep: Deposet) -> int:
    """Work units of one truth-table build over ``dep``.

    One per local state whose conjunct is actually evaluated: only the
    processes named in ``form.conjuncts`` count (unconstrained rows are a
    single ``np.ones``), and a constant-false short-circuit builds no
    tables at all, so it counts zero.
    """
    if form.constants_false(dep):
        return 0
    counts = dep.state_counts
    return sum(counts[i] for i in form.conjuncts)


def slice_of(dep: Deposet, pred: Predicate) -> ComputationSlice:
    """The computation slice of ``dep`` w.r.t. regular ``pred``.

    Raises :class:`NotRegularError` outside the regular class, and
    ``ValueError`` when the predicate constrains a process ``dep`` lacks.
    """
    form = _require_regular(pred)
    tables = form.truth_tables(dep)
    _SLICE_STATES.inc(_table_states(form, dep))
    return compute_slice(dep, tables)


def possibly_slice(dep: Deposet, pred: Predicate) -> Optional[Cut]:
    """The least consistent cut satisfying ``pred``, or ``None``.

    Same contract as ``possibly_exhaustive`` (a witness cut or ``None``),
    except the witness is the lattice-least one rather than the first in
    enumeration order.  Polynomial; never enumerates the lattice.
    """
    _SLICE_WALKS.inc()
    with TRACER.span("slice.possibly", states=dep.num_states):
        sl = slice_of(dep, pred)
        if sl.least is not None:
            _SLICE_STATES.inc(1)
            if TRACER.enabled:
                TRACER.event("slice.witness", cut=list(sl.least))
        return sl.least


def definitely_slice(dep: Deposet, pred: Predicate) -> bool:
    """Does every global sequence hit a cut satisfying ``pred``?

    Subset-move semantics, identical to ``definitely_exhaustive``; the
    search space is pruned to the ``[bottom, greatest-satisfying-cut]``
    box (see module docstring for the zone argument).
    """
    _SLICE_WALKS.inc()
    with TRACER.span("slice.definitely", states=dep.num_states):
        sl = slice_of(dep, pred)
        return _definitely_from_slice(sl)


def _definitely_from_slice(sl: ComputationSlice) -> bool:
    dep = sl.dep
    bottom = initial_cut(dep)
    top = final_cut(dep)
    trace_on = TRACER.enabled

    if sl.empty:
        # No satisfying cut anywhere: no sequence can hit one.
        return False
    if sl.in_tables(bottom) or sl.in_tables(top):
        # Every global sequence contains bottom and top.
        _SLICE_STATES.inc(2)
        return True

    M = sl.greatest
    assert M is not None
    lat = CutLattice(dep)
    n = dep.n

    # Memoised DFS from bottom over non-satisfying consistent cuts.  A cut
    # strictly above M in some component is an escape: from there, top is
    # reachable through non-satisfying cuts only (zone argument), so an
    # avoiding sequence exists and the verdict is False.
    visited = {bottom}
    stack = [bottom]
    verdict = True
    while stack:
        cut = stack.pop()
        if trace_on:
            TRACER.event("slice.expand", cut=list(cut))
        if cut == top or any(c > M[i] for i, c in enumerate(cut)):
            verdict = False
            break
        fresh = [nxt for nxt in lat.subset_successors(cut) if nxt not in visited]
        if not fresh:
            continue
        visited.update(fresh)
        satisfied = sl.in_tables_many(fresh)
        for nxt, sat in zip(fresh, satisfied):
            if not sat:
                stack.append(nxt)
            elif trace_on:
                TRACER.event("slice.blocked", cut=list(nxt))
    _SLICE_STATES.inc(len(visited))
    return verdict
