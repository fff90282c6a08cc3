"""Columnar variable packing: numpy columns out of per-state dict rows.

The trace stack stores local-state variables as one dict per state
(`TraceStore._vars` / `Deposet.state_vars`), which is the right shape for
appends and for arbitrary predicates, but the wrong shape for the O(n*p)
inner loops of detection: evaluating one local conjunct over a process's
whole state sequence should be one vectorised numpy pass, not ``m``
dict-lookup-and-call round trips.

:func:`pack_block` extracts the referenced variables of one process into
a :class:`ColumnBlock` -- per-variable numpy arrays, one entry per local
state.  A column gets a **native** dtype (bool/int64/float64, or what
numpy infers for the homogeneous scalar run) only when the values round
trip *exactly*; anything else -- missing keys, ``None``, strings, mixed
precision beyond float64's integer range -- falls back to an object
column, which the expression kernels evaluate with Python semantics.

Exactness contract: for every variable ``v`` and state ``a``,
``block.columns[v][a]`` compares (``==``) and truth-tests (``bool``)
exactly like ``state_vars((proc, a)).get(v)`` does.  Missing keys pack as
``None`` (``bool(None) is False`` and ``None == x`` matches ``dict.get``
semantics), which is why packing never needs a separate presence mask.
Pinned by the hypothesis suite in ``tests/slicing/test_kernels.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["ColumnBlock", "pack_block", "pack_values"]

#: ints whose |value| stays below this survive a cast to float64 exactly;
#: a mixed int/float column with anything larger must stay object-typed
#: or equality against a nearby int would collapse distinct values.
_FLOAT_EXACT_INT = 2 ** 53


def pack_values(raw: Sequence[Any]) -> np.ndarray:
    """One variable's values as a numpy column, native dtype when exact.

    ``raw`` is the per-state value sequence (``None`` for missing keys).
    Returns a bool/int/float array only when numpy's coercion is
    value-preserving under ``==`` and ``bool``; otherwise an object array
    holding the original values.
    """
    types = {type(v) for v in raw}
    if types and types <= {bool, int, float}:
        if int in types and float in types:
            # float64 cannot represent every int: keep exactness.
            if any(
                isinstance(v, int) and not isinstance(v, bool)
                and abs(v) > _FLOAT_EXACT_INT
                for v in raw
            ):
                return _object_column(raw)
        try:
            arr = np.asarray(raw)
        except (OverflowError, ValueError):
            return _object_column(raw)
        if arr.dtype.kind in "bif":
            return arr
    return _object_column(raw)


def _object_column(raw: Sequence[Any]) -> np.ndarray:
    out = np.empty(len(raw), dtype=object)
    out[:] = list(raw)
    return out


@dataclass(frozen=True)
class ColumnBlock:
    """Packed columns of one process: ``columns[name][a]`` holds the value
    at local state ``a``."""

    m: int
    columns: Dict[str, np.ndarray]


def pack_block(
    states: Sequence[Mapping[str, Any]], names: Iterable[str]
) -> ColumnBlock:
    """Pack the given variables of one process's state sequence."""
    wanted: Tuple[str, ...] = tuple(names)
    cols: Dict[str, np.ndarray] = {}
    for name in wanted:
        cols[name] = pack_values([s.get(name) for s in states])
    return ColumnBlock(m=len(states), columns=cols)
