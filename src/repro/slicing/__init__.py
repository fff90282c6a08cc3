"""Computation slicing: polynomial predicate detection for regular predicates.

The exhaustive lattice walk in :mod:`repro.detection.lattice_walk` is the
ground truth but exponential (Lemma 1 territory).  For *regular* predicates
-- satisfying cuts closed under lattice meet/join, with conjunctions of
per-process locals as the syntactic core -- the *computation slice*
(Mittal & Garg) captures all satisfying cuts in a polynomial summary:
truth tables plus the least/greatest satisfying cuts, equivalently the
original computation plus skip edges.

Layers:

* :mod:`repro.slicing.regular`  -- normalisation into the regular class
  (backs ``Predicate.is_regular()``);
* :mod:`repro.slicing.slice`    -- the slice itself: bidirectional
  candidate elimination, skip arrows, satisfying-cut enumeration;
* :mod:`repro.slicing.detect`   -- ``possibly_slice`` / ``definitely_slice``,
  counterparts of the exhaustive walkers with ``detection.slice.*`` metrics.

Truth tables are built serially: compiled conjuncts evaluate as one
vectorised numpy kernel per process, which leaves nothing worth spreading
over worker processes.  Engine selection (auto/exhaustive/slice) lives in
:mod:`repro.detection.engine`; non-regular predicates raise
:class:`~repro.errors.NotRegularError` here and fall back there.

Nomenclature: :mod:`repro.trace.slicing` (``prefix_at``) slices a deposet
*by time* into a prefix; this package slices *by predicate*.
"""

from repro.slicing.regular import RegularForm, regular_form
from repro.slicing.slice import (
    ComputationSlice,
    compute_slice,
    greatest_satisfying_cut,
)
from repro.slicing.detect import definitely_slice, possibly_slice, slice_of

__all__ = [
    "RegularForm",
    "regular_form",
    "ComputationSlice",
    "compute_slice",
    "greatest_satisfying_cut",
    "slice_of",
    "possibly_slice",
    "definitely_slice",
]
