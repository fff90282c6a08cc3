"""Lemma 2: ``overlap`` and ``crossable`` over false-intervals.

With false-intervals ``I_1, ..., I_n`` (one per process):

``overlap(I_1..I_n)``::

    forall i, j:  I_i.lo ->= I_j.hi  or  I_i.lo = bottom_i  or  I_j.hi = top_j

i.e. no process can leave its interval before every other process has
entered its own.  If an overlapping set exists, every global sequence hits
a global state with all ``l_i`` false, so no controller exists (Lemma 2).

``crossable(I_i, I_j)`` is the negation of one conjunct: interval ``I_j``
can be completely crossed before ``I_i`` is entered::

    not (I_i.lo ->= I_j.hi)  and  I_i.lo != bottom_i  and  I_j.hi != top_j

We use the reflexive ``->=``: on the diagonal ``i = j`` the first disjunct
of ``overlap`` then always holds (``I.lo ->= I.hi`` even for single-state
intervals), so an interval is never "crossable against itself" -- which is
what makes the single-process case come out right (a lone process with a
mid-trace false interval is uncontrollable).
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence

from repro.causality.relations import CausalOrder, StateRef
from repro.predicates.intervals import FalseInterval
from repro.trace.deposet import Deposet

__all__ = ["crossable", "overlap"]


def crossable(
    dep: Deposet,
    ii: FalseInterval,
    ij: FalseInterval,
    order: Optional[CausalOrder] = None,
) -> bool:
    """Can ``ij`` be completely crossed before ``ii`` is entered?

    Evaluated with the entered-level relation
    (:meth:`~repro.causality.relations.CausalOrder.enters_before`): entering
    ``ij.hi`` must not causally force ``ii.lo`` to have been entered.  The
    paper states the condition with the state relation ``->=``; the
    entered-level version closes the half-step gap between "state completed"
    and "state entered" (they are the same event), without which a crossing
    can silently drag a supposedly-true process into its false interval.
    """
    if order is None:
        order = dep.order
    if dep.is_bottom(ii.lo_ref) or dep.is_top(ij.hi_ref):
        return False
    # Crossing ij means *exiting* it (entering the state after its hi);
    # the exit must not force ii.lo to have been entered.
    exit_ref = StateRef(ij.proc, ij.hi + 1)
    return not order.enters_before(ii.lo_ref, exit_ref)


def overlap(
    dep: Deposet,
    intervals: Sequence[FalseInterval],
    order: Optional[CausalOrder] = None,
) -> bool:
    """Lemma 2's condition on one false-interval per process.

    ``intervals`` must contain exactly one interval for each process of
    ``dep`` (an overlapping *set* needs every process pinned down).
    """
    if order is None:
        order = dep.order
    if sorted(iv.proc for iv in intervals) != list(range(dep.n)):
        raise ValueError("need exactly one false-interval per process")
    for ii, ij in product(intervals, repeat=2):
        if crossable(dep, ii, ij, order):
            return False
    return True
