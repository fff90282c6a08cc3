"""Engine selection for possibly/definitely detection.

One front door over the two detection implementations:

* ``exhaustive`` -- the lattice walkers in
  :mod:`repro.detection.lattice_walk`: ground truth, any predicate,
  exponential in processes;
* ``slice`` -- the polynomial engine in :mod:`repro.slicing.detect`:
  regular predicates only (``pred.is_regular()``).  ``possibly`` reads
  the computation slice; ``definitely`` runs the paper's Figure 2 on the
  negated conjunction;
* ``auto`` (default) -- routed through the static predicate classifier
  (:func:`repro.analysis.classifier.classify`): ``slice`` when the
  derived class is regular, else ``exhaustive``.  The classifier reuses
  the same normaliser the slicing engine accepts
  (:func:`repro.slicing.regular.regular_form`), so auto can never hand a
  non-regular predicate to ``slice`` -- soundness is pinned by
  ``tests/analysis/test_engine_routing.py``.  The fallback increments
  ``detection.slice.fallbacks`` so workloads silently dropping off the
  fast path are visible in metrics.

Explicitly requesting ``slice`` for a non-regular predicate
raises :class:`~repro.errors.NotRegularError` rather than silently
changing complexity class.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.obs.metrics import METRICS
from repro.predicates.base import Predicate
from repro.trace.deposet import Deposet
from repro.trace.global_state import Cut

__all__ = ["ENGINES", "possibly", "definitely"]

ENGINES: Tuple[str, ...] = ("auto", "exhaustive", "slice")

_SLICE_FALLBACKS = METRICS.counter("detection.slice.fallbacks")


def _resolve(pred: Predicate, engine: str) -> str:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if engine != "auto":
        return engine
    # Route via the classifier; lazy import keeps detection importable
    # without dragging the whole analysis subsystem in at module load.
    from repro.analysis.classifier import classify

    which = classify(pred).engine
    if which != "slice":
        _SLICE_FALLBACKS.inc()
    return which


def possibly(dep: Deposet, pred: Predicate, engine: str = "auto") -> Optional[Cut]:
    """A consistent cut satisfying ``pred``, or ``None``.

    All engines agree on ``None``-ness; the witness cut may differ (the
    slice engine returns the lattice-least witness, the exhaustive engine
    the first in enumeration order).
    """
    if _resolve(pred, engine) == "exhaustive":
        from repro.detection.lattice_walk import possibly_exhaustive

        return possibly_exhaustive(dep, pred)
    from repro.slicing.detect import possibly_slice

    return possibly_slice(dep, pred)


def definitely(dep: Deposet, pred: Predicate, engine: str = "auto") -> bool:
    """Does every global sequence pass through a cut satisfying ``pred``?

    Single-move semantics in every engine (one process advances per
    step); verdicts are identical.  ``definitely(dep, B.negated())`` for
    a disjunctive ``B`` is therefore "no controller for ``B`` exists".
    """
    if _resolve(pred, engine) == "exhaustive":
        from repro.detection.lattice_walk import definitely_exhaustive

        return definitely_exhaustive(dep, pred)
    from repro.slicing.detect import definitely_slice

    return definitely_slice(dep, pred)
