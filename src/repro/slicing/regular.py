"""Normalisation into the regular class the slicing engine covers.

Computation slicing (Mittal & Garg) is polynomial for *regular*
predicates: those whose satisfying consistent cuts are closed under the
cut lattice's meet (componentwise min) and join (componentwise max).  The
workhorse syntactic subclass -- and the one every "bug predicate" of the
paper's walkthroughs lands in -- is the **conjunctive** class::

    B  =  b_1 and b_2 and ... and b_k        (each b_i local to one process)

Closure is immediate: the componentwise min/max of two cuts picks, per
process, one of the two original states, and both are ``b_i``-true.

:func:`regular_form` recognises this class structurally.  It flattens
``And``, pushes ``Not`` through disjunctions (De Morgan: the negation of
the paper's disjunctive safety predicates is exactly a conjunction of
locals -- the "bug" predicate), folds every one-process subtree into a
single :class:`~repro.predicates.local.LocalPredicate`, and keeps
zero-process factors (constants) symbolic so they are resolved against a
concrete deposet only when truth tables are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.predicates.base import Predicate, TruePredicate
from repro.predicates.boolean import And, Not, Or
from repro.predicates.disjunctive import DisjunctivePredicate, fold_local
from repro.predicates.local import LocalPredicate
from repro.trace.deposet import Deposet
from repro.trace.global_state import initial_cut

__all__ = ["RegularForm", "regular_form"]


@dataclass(frozen=True)
class RegularForm:
    """A predicate normalised to ``and_i conjunct[i]`` (one local per process).

    ``conjuncts`` maps process index to its folded local conjunct;
    processes absent from the map are unconstrained.  ``constants`` holds
    zero-process factors (``TRUE``/``FALSE`` and foldings thereof) whose
    cut-independent value is only evaluated against a concrete deposet in
    :meth:`truth_tables` -- a false constant empties the slice.
    """

    conjuncts: Dict[int, LocalPredicate]
    constants: Tuple[Predicate, ...] = ()

    def validate_for(self, dep: Deposet) -> None:
        """Raise ``ValueError`` when a conjunct names a process ``dep`` lacks.

        Called by :meth:`truth_tables`, so ``slice_of`` and both slicing
        detectors reject a malformed predicate with one error text.
        """
        if self.conjuncts and max(self.conjuncts) >= dep.n:
            raise ValueError(
                f"predicate constrains process {max(self.conjuncts)}, "
                f"deposet has {dep.n}"
            )

    def constants_false(self, dep: Deposet) -> bool:
        """True when a constant factor is false (the slice is empty)."""
        bottom = initial_cut(dep)
        return any(not c.evaluate(dep, bottom) for c in self.constants)

    def conjunct_table(self, dep: Deposet, proc: int) -> np.ndarray:
        """One process's truth row: vectorised when the conjunct has IR."""
        m = dep.state_counts[proc]
        local = self.conjuncts.get(proc)
        if local is None:
            return np.ones(m, dtype=bool)
        if local.expr is not None:
            block = dep.column_block(proc, sorted(local.expr.var_names()))
            return local.expr.eval_block(block, 0, m)
        return np.fromiter(
            (local.holds_at(dep, a) for a in range(m)), dtype=bool, count=m
        )

    def truth_tables(self, dep: Deposet) -> List[np.ndarray]:
        """Per-process boolean arrays: ``table[i][a]`` = conjunct_i at state a.

        Unconstrained processes get all-true rows.  A satisfying cut is
        exactly a consistent cut with every component in a true row --
        this is the slice's membership oracle.
        """
        self.validate_for(dep)
        if self.constants_false(dep):
            # A constant-false factor: no cut satisfies the conjunction.
            return [np.zeros(m, dtype=bool) for m in dep.state_counts]
        return [self.conjunct_table(dep, i) for i in range(dep.n)]

    def __repr__(self) -> str:
        parts = [f"P{i}:{c.name}" for i, c in sorted(self.conjuncts.items())]
        parts += [repr(c) for c in self.constants]
        return f"RegularForm({' & '.join(parts) or 'TRUE'})"


def _factors(pred: Predicate) -> Optional[List[Predicate]]:
    """Multiplicands of ``pred`` as a conjunction, or ``None`` if not one.

    Each returned factor touches at most one process.  ``And`` flattens;
    ``Not`` distributes over ``Or``/``DisjunctivePredicate`` (De Morgan)
    and cancels over ``Not``; anything already confined to one process
    (or none) is a factor as-is.
    """
    if isinstance(pred, And):
        out: List[Predicate] = []
        for op in pred.operands:
            sub = _factors(op)
            if sub is None:
                return None
            out.extend(sub)
        return out
    if isinstance(pred, Not):
        op = pred.operand
        if isinstance(op, Not):
            return _factors(op.operand)
        if isinstance(op, Or):
            return _factors(And(*(Not(x) for x in op.operands)))
        if isinstance(op, DisjunctivePredicate):
            # Processes without a disjunct contribute constant-false
            # disjuncts, whose negation is true -- they drop out.
            return _factors(
                And(*(Not(d) for d in op.locals_by_proc.values()))
            )
    if isinstance(pred, DisjunctivePredicate):
        locals_ = list(pred.locals_by_proc.values())
        if len(locals_) == 1:
            return [locals_[0]]  # a one-disjunct disjunction is a local
        return None
    if len(pred.procs()) <= 1:
        return [pred]
    return None


def regular_form(pred: Predicate) -> Optional[RegularForm]:
    """Normalise ``pred`` into conjunctive :class:`RegularForm`, or ``None``.

    ``None`` means the predicate is outside the recognised regular class
    and detection must fall back to the exhaustive lattice walk.
    """
    factors = _factors(pred)
    if factors is None:
        return None
    per_proc: Dict[int, List[Predicate]] = {}
    constants: List[Predicate] = []
    for f in factors:
        ps = f.procs()
        if not ps:
            if isinstance(f, TruePredicate):
                continue  # a true factor constrains nothing
            constants.append(f)
            continue
        (proc,) = ps
        per_proc.setdefault(proc, []).append(f)
    conjuncts: Dict[int, LocalPredicate] = {}
    for proc, fs in per_proc.items():
        folded = fold_local(fs[0] if len(fs) == 1 else And(*fs))
        if folded is None:  # pragma: no cover - len(procs)==1 guarantees fold
            return None
        conjuncts[proc] = folded
    return RegularForm(conjuncts=conjuncts, constants=tuple(constants))
