"""Local predicates: boolean functions of one process's local state."""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Optional, Sequence, TYPE_CHECKING

from repro.predicates.base import Predicate, StateInfo
from repro.predicates.expr import (
    Expr,
    IndexAtLeast,
    IndexLess,
    NotExpr,
    VarEquals,
    VarTruthy,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.deposet import Deposet

__all__ = ["LocalPredicate"]


class LocalPredicate(Predicate):
    """A predicate of process ``proc``'s local state.

    The canonical form takes a :class:`StateInfo` (variables plus the state
    index); the classmethod constructors cover the common shapes:

    * :meth:`from_vars` -- a function of the variable assignment;
    * :meth:`var_true` / :meth:`var_equals` -- single-variable tests;
    * :meth:`after` / :meth:`at_or_after` / :meth:`before` -- index tests,
      which express the paper's "x must happen before y" controls.

    The structured constructors additionally carry ``expr``, an
    :class:`~repro.predicates.expr.Expr` with the same semantics as ``fn``.
    The slicing engine uses it for vectorised evaluation; ``expr is None``
    (raw callables, :meth:`from_vars`) means the predicate can only be
    evaluated state by state via ``fn``.
    """

    def __init__(
        self,
        proc: int,
        fn: Callable[[StateInfo], bool],
        name: str = "",
        expr: Optional[Expr] = None,
    ):
        if proc < 0:
            raise ValueError(f"invalid process {proc}")
        self.proc = proc
        self.fn = fn
        self.name = name or f"l_{proc}"
        self.expr = expr

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_vars(
        cls, proc: int, fn: Callable[[dict], bool], name: str = ""
    ) -> "LocalPredicate":
        """A predicate of the variable assignment only."""
        return cls(proc, lambda s: bool(fn(s.vars)), name or f"l_{proc}")

    @classmethod
    def var_true(cls, proc: int, var: str) -> "LocalPredicate":
        """``vars[var]`` is truthy (missing variables read as false)."""
        return cls(
            proc,
            lambda s: bool(s.vars.get(var, False)),
            f"{var}@{proc}",
            expr=VarTruthy(var),
        )

    @classmethod
    def var_false(cls, proc: int, var: str) -> "LocalPredicate":
        """``vars[var]`` is falsy or missing."""
        return cls(
            proc,
            lambda s: not s.vars.get(var, False),
            f"!{var}@{proc}",
            expr=NotExpr(VarTruthy(var)),
        )

    @classmethod
    def var_equals(cls, proc: int, var: str, value: Any) -> "LocalPredicate":
        return cls(
            proc,
            lambda s: s.vars.get(var) == value,
            f"{var}=={value!r}@{proc}",
            expr=VarEquals(var, value),
        )

    @classmethod
    def at_or_after(cls, proc: int, index: int) -> "LocalPredicate":
        """True once the process has reached local state ``index``.

        The paper's "after x": the event producing state ``index`` has
        happened.
        """
        return cls(
            proc,
            lambda s: s.index >= index,
            f"after[{proc},{index}]",
            expr=IndexAtLeast(index),
        )

    @classmethod
    def before(cls, proc: int, index: int) -> "LocalPredicate":
        """True while the process has not yet reached state ``index``.

        The paper's "before y".
        """
        return cls(
            proc,
            lambda s: s.index < index,
            f"before[{proc},{index}]",
            expr=IndexLess(index),
        )

    # -- Predicate protocol ----------------------------------------------------

    def holds_at(self, dep: "Deposet", index: int) -> bool:
        """Evaluate on one local state of ``self.proc``."""
        info = StateInfo(self.proc, index, dep.state_vars((self.proc, index)))
        return bool(self.fn(info))

    def evaluate(self, dep: "Deposet", cut: Sequence[int]) -> bool:
        return self.holds_at(dep, cut[self.proc])

    def procs(self) -> FrozenSet[int]:
        return frozenset({self.proc})

    def __repr__(self) -> str:
        return f"Local({self.name})"
