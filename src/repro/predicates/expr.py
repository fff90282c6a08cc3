"""A vectorisable expression IR for local predicates.

``LocalPredicate.fn`` is a closure, and a per-state Python call cannot be
vectorised.  This module is the escape hatch: a tiny expression language
over *one process's local state* --
variable truthiness/equality and state-index comparisons, closed under
not/and/or -- that the structured ``LocalPredicate`` constructors lower
into at build time.

Every node offers two evaluation modes with identical semantics:

* :meth:`Expr.eval_state` -- one state at a time, mirroring exactly what
  the corresponding lambda computes (``vars.get`` defaults, ``bool``
  coercion, ``==`` dispatch);
* :meth:`Expr.eval_block` -- a whole state interval at once over a packed
  :class:`~repro.store.columns.ColumnBlock`, as one numpy kernel.

Nodes are frozen dataclasses of plain data (hashable, comparable).
Predicates built from raw callables (``LocalPredicate.from_vars`` / direct
construction) have no IR; callers must treat ``expr is None`` as
"evaluate the closure state by state".

Bit-for-bit agreement between the two modes and the lambda path is pinned
by ``tests/slicing/test_kernels.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Mapping, Tuple

import numpy as np

from repro.store.columns import ColumnBlock

__all__ = [
    "Expr",
    "VarTruthy",
    "VarEquals",
    "IndexAtLeast",
    "IndexLess",
    "NotExpr",
    "AllExpr",
    "AnyExpr",
    "ConstExpr",
]

#: value types whose numpy comparison semantics coincide with Python's.
_NATIVE_SCALARS = (bool, int, float, np.bool_, np.integer, np.floating)


class Expr:
    """Base class; subclasses are frozen dataclasses of plain data."""

    def eval_state(self, vars: Mapping[str, Any], index: int) -> bool:
        """The expression at one local state (``vars``, state ``index``)."""
        raise NotImplementedError

    def eval_block(self, block: ColumnBlock, lo: int, hi: int) -> np.ndarray:
        """Boolean array over states ``[lo, hi)`` of a packed column block."""
        raise NotImplementedError

    def var_names(self) -> FrozenSet[str]:
        """Variables the expression reads (what a block must pack)."""
        return frozenset()


def _truthy(col: np.ndarray, lo: int, hi: int) -> np.ndarray:
    part = col[lo:hi]
    if part.dtype == np.bool_:
        return part.astype(bool, copy=True)
    if part.dtype != object:
        return part != 0
    return np.fromiter((bool(v) for v in part), dtype=bool, count=hi - lo)


@dataclass(frozen=True)
class VarTruthy(Expr):
    """``bool(vars.get(name, False))`` -- the ``var_true`` test."""

    name: str

    def eval_state(self, vars: Mapping[str, Any], index: int) -> bool:
        return bool(vars.get(self.name, False))

    def eval_block(self, block: ColumnBlock, lo: int, hi: int) -> np.ndarray:
        return _truthy(block.columns[self.name], lo, hi)

    def var_names(self) -> FrozenSet[str]:
        return frozenset({self.name})


@dataclass(frozen=True)
class VarEquals(Expr):
    """``vars.get(name) == value`` -- the ``var_equals`` test."""

    name: str
    value: Any

    def eval_state(self, vars: Mapping[str, Any], index: int) -> bool:
        return bool(vars.get(self.name) == self.value)

    def eval_block(self, block: ColumnBlock, lo: int, hi: int) -> np.ndarray:
        part = block.columns[self.name][lo:hi]
        if part.dtype != object and isinstance(self.value, _NATIVE_SCALARS):
            return np.asarray(part == self.value, dtype=bool)
        if part.dtype != object:
            # native column vs a non-numeric constant: never equal, same
            # as Python's cross-type ``==`` on these scalar types.
            return np.zeros(hi - lo, dtype=bool)
        return np.fromiter(
            (bool(v == self.value) for v in part), dtype=bool, count=hi - lo
        )

    def var_names(self) -> FrozenSet[str]:
        return frozenset({self.name})


@dataclass(frozen=True)
class IndexAtLeast(Expr):
    """``index >= k`` -- the ``at_or_after`` test."""

    k: int

    def eval_state(self, vars: Mapping[str, Any], index: int) -> bool:
        return index >= self.k

    def eval_block(self, block: ColumnBlock, lo: int, hi: int) -> np.ndarray:
        return np.arange(lo, hi) >= self.k


@dataclass(frozen=True)
class IndexLess(Expr):
    """``index < k`` -- the ``before`` test."""

    k: int

    def eval_state(self, vars: Mapping[str, Any], index: int) -> bool:
        return index < self.k

    def eval_block(self, block: ColumnBlock, lo: int, hi: int) -> np.ndarray:
        return np.arange(lo, hi) < self.k


@dataclass(frozen=True)
class NotExpr(Expr):
    operand: Expr

    def eval_state(self, vars: Mapping[str, Any], index: int) -> bool:
        return not self.operand.eval_state(vars, index)

    def eval_block(self, block: ColumnBlock, lo: int, hi: int) -> np.ndarray:
        return ~self.operand.eval_block(block, lo, hi)

    def var_names(self) -> FrozenSet[str]:
        return self.operand.var_names()


@dataclass(frozen=True)
class AllExpr(Expr):
    operands: Tuple[Expr, ...]

    def eval_state(self, vars: Mapping[str, Any], index: int) -> bool:
        return all(op.eval_state(vars, index) for op in self.operands)

    def eval_block(self, block: ColumnBlock, lo: int, hi: int) -> np.ndarray:
        out = self.operands[0].eval_block(block, lo, hi)
        for op in self.operands[1:]:
            out &= op.eval_block(block, lo, hi)
        return out

    def var_names(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for op in self.operands:
            out |= op.var_names()
        return out


@dataclass(frozen=True)
class AnyExpr(Expr):
    operands: Tuple[Expr, ...]

    def eval_state(self, vars: Mapping[str, Any], index: int) -> bool:
        return any(op.eval_state(vars, index) for op in self.operands)

    def eval_block(self, block: ColumnBlock, lo: int, hi: int) -> np.ndarray:
        out = self.operands[0].eval_block(block, lo, hi)
        for op in self.operands[1:]:
            out |= op.eval_block(block, lo, hi)
        return out

    def var_names(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for op in self.operands:
            out |= op.var_names()
        return out


@dataclass(frozen=True)
class ConstExpr(Expr):
    value: bool

    def eval_state(self, vars: Mapping[str, Any], index: int) -> bool:
        return self.value

    def eval_block(self, block: ColumnBlock, lo: int, hi: int) -> np.ndarray:
        return np.full(hi - lo, self.value, dtype=bool)
