"""Polynomial possibly/definitely detection for regular predicates.

Drop-in counterparts of the exhaustive walkers in
:mod:`repro.detection.lattice_walk`, for predicates that normalise into the
regular (conjunctive) class -- :func:`repro.slicing.regular.regular_form`
decides; outside the class both entry points raise
:class:`~repro.errors.NotRegularError` so the engine dispatcher can fall
back.

* :func:`possibly_slice` -- the least satisfying cut, straight from the
  slice's candidate elimination.  No lattice enumeration at all.
* :func:`definitely_slice` -- "every global sequence hits a satisfying
  cut", with single-move sequences (one process advances per step, the
  sequences a controller can enforce).  For ``B = c_1 and ... and c_k``
  that holds exactly when no controller exists for the disjunctive
  ``not B = not c_1 or ... or not c_k``, so the paper's Figure 2
  (:func:`~repro.core.offline.control_disjunctive`, ``O(n^2 p)``)
  decides it: ``NoControllerExistsError`` means *definitely*.

Metrics (all under ``detection.slice.*``):

* ``walks``      -- +1 per public call, mirroring ``detection.lattice_walks``;
* ``states``     -- work units: one per *local* state whose conjunct was
  **actually evaluated** (truth tables for ``possibly``, false-intervals
  for ``definitely``: unconstrained processes and the constant-false
  short-circuit contribute nothing, see :func:`_table_states`) plus one
  for a ``possibly`` witness (contract pinned in
  ``tests/detection/test_walk_counters.py``).  Comparable against
  ``detection.lattice_states`` -- both count predicate-evaluation work --
  which is the E14 ratio;
* ``fallbacks``  -- +1 per :class:`NotRegularError` raised.
"""

from __future__ import annotations

from typing import Optional

from repro.core.verify import definitely_violated
from repro.errors import NotRegularError
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.predicates.base import Predicate
from repro.predicates.boolean import Not
from repro.predicates.disjunctive import DisjunctivePredicate, fold_local
from repro.slicing.regular import RegularForm, regular_form
from repro.slicing.slice import ComputationSlice, compute_slice
from repro.trace.deposet import Deposet
from repro.trace.global_state import Cut

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
    """Does every single-move global sequence hit a cut satisfying ``pred``?

    Same verdict as ``definitely_exhaustive``.  Runs Figure 2 on the
    negated conjunction: ``pred`` is definite exactly when no controller
    exists for ``not pred`` (see module docstring).
    """
    _SLICE_WALKS.inc()
    with TRACER.span("slice.definitely", states=dep.num_states):
        form = _require_regular(pred)
        form.validate_for(dep)
        if form.constants_false(dep):
            return False  # no cut satisfies, so no sequence hits one
        if not form.conjuncts:
            return True  # constant true: bottom already satisfies
        _SLICE_STATES.inc(_table_states(form, dep))
        avoid = DisjunctivePredicate(
            [fold_local(Not(c)) for c in form.conjuncts.values()], n=dep.n
        )
        return definitely_violated(dep, avoid)
