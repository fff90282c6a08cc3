"""Predicate control: the paper's primary contribution.

* :mod:`repro.core.offline` -- the efficient off-line algorithm for
  disjunctive predicates (Figure 2, Theorem 2), in both the optimized
  ``O(n^2 p)`` and naive ``O(n^3 p)`` variants;
* :mod:`repro.core.overlap` -- Lemma 2's ``overlap``/``crossable``
  predicates on false-intervals;
* :mod:`repro.core.verify` -- exact verification that a controlled deposet
  satisfies its predicate, plus feasibility queries;
* :mod:`repro.core.general` -- exponential control for arbitrary boolean
  predicates via SGSD search (the constructive half of Theorem 1's
  strategy <-> sequence equivalence);
* :mod:`repro.core.online` -- the on-line scapegoat strategy (Figure 3,
  Theorem 4) and the impossibility scenario of Theorem 3;
* :mod:`repro.core.separated` -- the Conclusions' extension to predicates
  beyond a single disjunction (CNF of disjunctive clauses) under a
  mutual-separation restriction.
"""

from repro.core.control_relation import ControlRelation
from repro.core.offline import OfflineResult, control_disjunctive
from repro.core.overlap import crossable, overlap
from repro.core.verify import (
    deposet_satisfies,
    verify_control,
    is_feasible,
    definitely_violated,
)
from repro.core.general import control_general, control_from_sequence

__all__ = [
    "ControlRelation",
    "OfflineResult",
    "control_disjunctive",
    "crossable",
    "overlap",
    "deposet_satisfies",
    "verify_control",
    "is_feasible",
    "definitely_violated",
    "control_general",
    "control_from_sequence",
]
