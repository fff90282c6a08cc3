"""Exhaustive possibly/definitely detection by walking the cut lattice.

Ground truth for small traces; exponential in general (that is Lemma 1).

* ``possibly(pred)``  -- some consistent cut satisfies ``pred``;
* ``definitely(pred)`` -- every global sequence passes through a cut
  satisfying ``pred``, i.e. there is **no** global sequence all of whose
  cuts satisfy ``not pred``.  Sequences advance one process per step
  (single moves): the sequences a controller can enforce, so
  ``definitely(not B)`` holds exactly when no controller for ``B``
  exists.  The paper's subset-move notion stays in
  :func:`repro.detection.sgsd.sgsd` (``moves="subset"``).

Counter contract (pinned by ``tests/detection/test_walk_counters.py``):

* ``detection.lattice_walks`` -- exactly +1 per public detection call
  (one logical walk counts once, no matter how the helpers compose);
* ``detection.lattice_states`` -- the number of **distinct** consistent
  cuts this walk evaluated.  ``definitely_exhaustive`` memoises its
  predicate evaluations so a cut generated from several parents (or the
  goal cut, evaluated up front) is counted -- and evaluated -- once.

Tracing contract: ``TRACER.enabled`` is sampled once per walk, and the
disabled path performs no per-cut tracer work at all -- no payload
materialisation, no attribute reads, no event calls.  Counter updates are
batched per walk (one ``inc`` with the visited total), so a disabled-
tracing walk's per-cut cost is the enumeration itself and nothing else.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.predicates.base import Predicate
from repro.trace.deposet import Deposet
from repro.trace.global_state import Cut, CutLattice

__all__ = ["possibly_exhaustive", "definitely_exhaustive", "violating_cuts"]

_LATTICE_STATES = METRICS.counter("detection.lattice_states")
_LATTICE_WALKS = METRICS.counter("detection.lattice_walks")


def _iter_counted(lat: CutLattice):
    """Iterate consistent cuts, counting (and, when on, tracing) each one.

    The tracer guard is hoisted out of the loop: when the flight recorder
    is off the per-cut body is just the yield.  The state counter is
    added once, in the ``finally`` (which also runs when the consumer
    stops early -- generators are closed on loop exit).
    """
    _LATTICE_WALKS.inc()
    visited = 0
    try:
        if TRACER.enabled:
            for cut in lat.iter_consistent_cuts():
                visited += 1
                TRACER.event("lattice.expand", cut=list(cut))
                yield cut
        else:
            for cut in lat.iter_consistent_cuts():
                visited += 1
                yield cut
    finally:
        if visited:
            _LATTICE_STATES.inc(visited)


def possibly_exhaustive(dep: Deposet, pred: Predicate) -> Optional[Cut]:
    """The first consistent cut (in enumeration order) satisfying ``pred``."""
    for cut in _iter_counted(CutLattice(dep)):
        if pred.evaluate(dep, cut):
            return cut
    return None


def definitely_exhaustive(dep: Deposet, pred: Predicate) -> bool:
    """Does every single-move global sequence hit a cut satisfying ``pred``?"""
    lat = CutLattice(dep)
    _LATTICE_WALKS.inc()
    trace_on = TRACER.enabled
    seen: Dict[Cut, bool] = {}

    def avoids(cut: Cut) -> bool:
        # Memoised: the sequence search generates the same cut from many
        # parents (and probes the goal up front); each distinct cut is
        # evaluated -- and counted -- exactly once per walk.
        cached = seen.get(cut)
        if cached is not None:
            return cached
        if trace_on:
            TRACER.event("lattice.expand", cut=list(cut), mode="sequence")
        value = not pred.evaluate(dep, cut)
        seen[cut] = value
        return value

    try:
        return not lat.exists_satisfying_sequence(avoids, moves="single")
    finally:
        if seen:
            _LATTICE_STATES.inc(len(seen))


def violating_cuts(dep: Deposet, safety: Predicate) -> List[Cut]:
    """All consistent cuts violating a safety predicate (enumeration order).

    This is the "detect the bug, then look at where it can happen" step of
    the paper's Section 7 walkthrough (the global states G and H of
    Figure 4).
    """
    lat = CutLattice(dep)
    with TRACER.span("lattice.walk", states=dep.num_states):
        return [
            cut
            for cut in _iter_counted(lat)
            if not safety.evaluate(dep, cut)
        ]
