"""Disjunctive predicates and normalisation into them.

``B = l_1 v l_2 v ... v l_n`` with ``l_i`` local to ``P_i``.  A process may
have no disjunct, in which case it contributes the constant *false* (it can
never "save" the predicate); the paper's examples -- two-process mutual
exclusion, at-least-one-server-available, "x before y", at-least-one-
philosopher-thinking -- are all of this shape.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import NotDisjunctiveError
from repro.predicates.base import Predicate, StateInfo, TruePredicate, FalsePredicate
from repro.predicates.boolean import And, Not, Or
from repro.predicates.expr import (
    AllExpr,
    AnyExpr,
    ConstExpr,
    Expr,
    NotExpr,
)
from repro.predicates.local import LocalPredicate

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.deposet import Deposet

__all__ = [
    "DisjunctivePredicate",
    "as_disjunctive",
    "fold_local",
    "lower_one_proc",
]


class DisjunctivePredicate(Predicate):
    """A disjunction of per-process local predicates.

    Parameters
    ----------
    disjuncts:
        One :class:`LocalPredicate` (or ``None``) per entry; each disjunct's
        ``proc`` must be unique.  ``None`` entries are allowed so callers can
        pass positional lists aligned with process indices.
    n:
        Total number of processes of the deposets this predicate will be
        applied to (defaults to ``max proc + 1``).
    """

    def __init__(
        self,
        disjuncts: Sequence[Optional[LocalPredicate]],
        n: Optional[int] = None,
    ):
        by_proc: Dict[int, LocalPredicate] = {}
        for d in disjuncts:
            if d is None:
                continue
            if not isinstance(d, LocalPredicate):
                raise NotDisjunctiveError(
                    f"disjunct {d!r} is not a LocalPredicate"
                )
            if d.proc in by_proc:
                raise NotDisjunctiveError(
                    f"two disjuncts for process {d.proc}; fold them into one "
                    f"local predicate first"
                )
            by_proc[d.proc] = d
        if not by_proc:
            raise NotDisjunctiveError("a disjunctive predicate needs >= 1 disjunct")
        self.n = n if n is not None else max(by_proc) + 1
        if max(by_proc) >= self.n:
            raise NotDisjunctiveError(
                f"disjunct for process {max(by_proc)} but n={self.n}"
            )
        self._by_proc = by_proc

    # -- access ----------------------------------------------------------------

    def local(self, proc: int) -> Optional[LocalPredicate]:
        """The disjunct of process ``proc`` (``None`` = constant false)."""
        return self._by_proc.get(proc)

    @property
    def locals_by_proc(self) -> Dict[int, LocalPredicate]:
        return dict(self._by_proc)

    def local_holds(self, dep: "Deposet", proc: int, index: int) -> bool:
        """``l_proc`` at local state ``index`` (false if no disjunct)."""
        d = self._by_proc.get(proc)
        return d.holds_at(dep, index) if d is not None else False

    # -- Predicate protocol -------------------------------------------------------

    def evaluate(self, dep: "Deposet", cut: Sequence[int]) -> bool:
        return any(
            d.holds_at(dep, cut[proc]) for proc, d in self._by_proc.items()
        )

    def procs(self) -> FrozenSet[int]:
        return frozenset(self._by_proc)

    def negated(self) -> Predicate:
        """``not B`` as a conjunction of negated locals -- the "bad" predicate
        whose *possibly*/*definitely* detection drives verification."""
        return And(*(Not(d) for d in self._by_proc.values()))

    def __repr__(self) -> str:
        parts = " v ".join(d.name for d in self._by_proc.values())
        return f"Disjunctive({parts})"


def fold_local(pred: Predicate) -> Optional[LocalPredicate]:
    """Collapse a predicate touching at most one process into one local.

    Returns ``None`` when the subtree touches two or more processes, or
    when it touches zero processes and is a constant true/false (the
    caller decides what a constant means).  Used by disjunctive
    normalisation here and by conjunctive normalisation in
    :mod:`repro.slicing.regular`.
    """
    ps = pred.procs()
    if len(ps) > 1:
        return None
    if isinstance(pred, LocalPredicate):
        return pred
    if not ps:
        return None  # constants handled by the caller
    (proc,) = ps

    def fn(info: StateInfo, _pred=pred) -> bool:
        return _EvalOneProc(proc, info).run(_pred)

    return LocalPredicate(
        proc, fn, name=f"fold({pred!r})", expr=lower_one_proc(pred)
    )


def lower_one_proc(pred: Predicate) -> Optional[Expr]:
    """Lower a one-process predicate subtree into the expression IR.

    Mirrors :class:`_EvalOneProc` node for node; returns ``None`` when any
    leaf is an opaque callable (a :class:`LocalPredicate` built without an
    ``expr``), in which case callers fall back to closure evaluation.
    """
    if isinstance(pred, LocalPredicate):
        return pred.expr
    if isinstance(pred, TruePredicate):
        return ConstExpr(True)
    if isinstance(pred, FalsePredicate):
        return ConstExpr(False)
    if isinstance(pred, Not):
        sub = lower_one_proc(pred.operand)
        return NotExpr(sub) if sub is not None else None
    if isinstance(pred, (And, Or)):
        subs = [lower_one_proc(op) for op in pred.operands]
        if any(s is None for s in subs):
            return None
        if not subs:  # pragma: no cover - _NaryOp requires operands
            return ConstExpr(isinstance(pred, And))
        node = AllExpr if isinstance(pred, And) else AnyExpr
        return node(tuple(subs))
    if isinstance(pred, DisjunctivePredicate):
        subs = [lower_one_proc(d) for d in pred.locals_by_proc.values()]
        if any(s is None for s in subs):
            return None
        return AnyExpr(tuple(subs))
    return None


class _EvalOneProc:
    """Evaluate a one-process predicate subtree given that process's state."""

    def __init__(self, proc: int, info: StateInfo):
        self.proc = proc
        self.info = info

    def run(self, pred: Predicate) -> bool:
        if isinstance(pred, LocalPredicate):
            if pred.proc != self.proc:  # pragma: no cover - guarded by procs()
                raise NotDisjunctiveError("mixed processes in local fold")
            return bool(pred.fn(self.info))
        if isinstance(pred, TruePredicate):
            return True
        if isinstance(pred, FalsePredicate):
            return False
        if isinstance(pred, Not):
            return not self.run(pred.operand)
        if isinstance(pred, And):
            return all(self.run(op) for op in pred.operands)
        if isinstance(pred, Or):
            return any(self.run(op) for op in pred.operands)
        if isinstance(pred, DisjunctivePredicate):
            return any(self.run(d) for d in pred.locals_by_proc.values())
        raise NotDisjunctiveError(f"cannot fold predicate node {pred!r}")


def as_disjunctive(pred: Predicate, n: int) -> DisjunctivePredicate:
    """Normalise ``pred`` into disjunctive form over ``n`` processes.

    Accepts:

    * a :class:`DisjunctivePredicate` (re-widened to ``n``);
    * a :class:`LocalPredicate` (one-disjunct predicate);
    * an :class:`Or` whose operands each touch exactly one process, several
      operands per process allowed (they are or-folded into one local);
      nested one-process subtrees (``And``/``Not``/constants) are folded too.

    Raises
    ------
    NotDisjunctiveError
        When any operand genuinely couples two or more processes.
    """
    if isinstance(pred, DisjunctivePredicate):
        return DisjunctivePredicate(list(pred.locals_by_proc.values()), n=n)
    if isinstance(pred, LocalPredicate):
        return DisjunctivePredicate([pred], n=n)
    if not isinstance(pred, Or):
        folded = fold_local(pred)
        if folded is not None:
            return DisjunctivePredicate([folded], n=n)
        raise NotDisjunctiveError(
            f"{pred!r} is not a disjunction of local predicates"
        )

    per_proc: Dict[int, List[Predicate]] = {}
    for op in pred.operands:
        if isinstance(op, FalsePredicate):
            continue  # a false disjunct contributes nothing
        if isinstance(op, TruePredicate):
            raise NotDisjunctiveError(
                "a constant-true disjunct makes the predicate trivially "
                "true everywhere; no control is needed (and no disjunctive "
                "form exists)"
            )
        ps = op.procs()
        if len(ps) != 1:
            raise NotDisjunctiveError(
                f"disjunct {op!r} touches processes {sorted(ps)}; each "
                f"disjunct must be local to one process"
            )
        (proc,) = ps
        per_proc.setdefault(proc, []).append(op)
    if not per_proc:
        raise NotDisjunctiveError("no non-constant disjunct")

    disjuncts: List[LocalPredicate] = []
    for proc, ops in per_proc.items():
        sub = ops[0] if len(ops) == 1 else Or(*ops)
        folded = fold_local(sub)
        if folded is None:  # pragma: no cover - len(procs)==1 guarantees fold
            raise NotDisjunctiveError(f"could not fold {sub!r}")
        disjuncts.append(folded)
    return DisjunctivePredicate(disjuncts, n=n)
