"""Predicate detection over traced computations.

The active-debugging cycle starts by *detecting* a bug -- a global state
where a safety predicate fails.  This package provides:

* :func:`possibly_bad` -- the efficient weak-conjunctive detector
  (Garg-Waldecker style) used both for bug detection and for verifying
  controller output: for a disjunctive ``B = l_1 v ... v l_n`` it finds a
  consistent global state where *all* ``l_i`` are false, if one exists.
* :func:`possibly` / :func:`definitely` -- the engine front door:
  ``engine="auto"`` routes regular predicates to the polynomial slicing
  engine (:mod:`repro.slicing`) and everything else to the exhaustive
  walk; ``exhaustive``/``slice`` force a choice.
* :func:`possibly_exhaustive` / :func:`definitely_exhaustive` -- lattice
  BFS ground truth for small traces.
* :class:`IncrementalDetector` -- the streaming variant of the
  conjunctive detector: polls a growing
  :class:`~repro.store.TraceStore` and answers over the current prefix
  without per-poll rescans (``repro watch``, ``repro serve``).
* :class:`ViolationMonitor` -- live detection in the simulator: an
  observer that polls an :class:`IncrementalDetector` over the run's
  recorder store after every event and reports each disjoint witness.
* :mod:`repro.detection.sgsd` -- satisfying-global-sequence detection, the
  NP-complete problem of Lemma 1 (exhaustive, subset-move semantics).
* :mod:`repro.detection.reduction` -- the SAT -> SGSD mapping of Figure 1.
"""

from repro.detection.conjunctive import possibly_bad, find_conjunctive_cut
from repro.detection.engine import ENGINES, definitely, possibly
from repro.detection.incremental import IncrementalDetector, WatchResult
from repro.detection.lattice_walk import (
    possibly_exhaustive,
    definitely_exhaustive,
    violating_cuts,
)
from repro.detection.sgsd import sgsd, sgsd_feasible
from repro.detection.reduction import sat_to_sgsd, decode_assignment, SGSDInstance
from repro.detection.online import Violation, ViolationMonitor

__all__ = [
    "possibly_bad",
    "find_conjunctive_cut",
    "IncrementalDetector",
    "WatchResult",
    "ENGINES",
    "possibly",
    "definitely",
    "possibly_exhaustive",
    "definitely_exhaustive",
    "violating_cuts",
    "sgsd",
    "sgsd_feasible",
    "sat_to_sgsd",
    "decode_assignment",
    "SGSDInstance",
    "Violation",
    "ViolationMonitor",
]
