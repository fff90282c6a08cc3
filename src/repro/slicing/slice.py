"""The computation slice of a deposet w.r.t. a regular predicate.

The *slice* (Mittal & Garg) is the smallest sublattice of the consistent-cut
lattice containing every cut that satisfies the predicate.  For a regular
predicate the satisfying cuts are closed under componentwise min/max, so the
slice is fully described by:

* the **least** satisfying cut ``W`` (meet of all satisfying cuts) -- found
  by Garg-Waldecker candidate elimination
  (:func:`repro.detection.conjunctive.find_conjunctive_cut`);
* the **greatest** satisfying cut ``M`` (join of all satisfying cuts) --
  found by :func:`greatest_satisfying_cut`, the mirrored elimination in this
  module;
* per-process truth tables restricting which states between ``W_i`` and
  ``M_i`` may appear in a cut.

All of this is polynomial in the number of *local states*, while the full
lattice is exponential in the number of processes -- that gap is what the
E14 benchmark measures.

Skip-arrow representation
-------------------------

The classic presentation represents the slice as the original computation
plus *added edges*: for every local state the predicate rules out, an edge
from its successor state back onto it.  The added edge creates a two-cycle
``(i,a) <-> (i,a+1)`` whose strongly-connected component must enter any
order ideal atomically, so the false state can never be the frontier of a
cut -- exactly "skipped".  Because these edges are cyclic **by design**,
they cannot be installed as control arrows (``Deposet.with_control`` would
rightly raise ``InterferenceError``); :meth:`ComputationSlice.skip_arrows`
therefore exposes them as data for inspection and export, not as a deposet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.causality.relations import StateRef
from repro.detection.conjunctive import find_conjunctive_cut
from repro.trace.deposet import Deposet
from repro.trace.global_state import Cut

__all__ = ["ComputationSlice", "compute_slice", "greatest_satisfying_cut"]


def greatest_satisfying_cut(
    dep: Deposet, conjunct_truth: Sequence[np.ndarray]
) -> Optional[Cut]:
    """The *greatest* consistent cut where every truth array is true.

    Mirror image of :func:`find_conjunctive_cut`: candidates start at the
    **last** true state of each process and only ever retreat.  The
    invariant is dual -- candidates are componentwise *upper* bounds on
    every satisfying cut.  When ``(i, ci) -> (j, cj)``, any consistent cut
    containing ``(j, cj)`` needs ``cut[i] > V(cj)[i] >= ci``; all true
    states of ``i`` above ``ci`` are already eliminated, so ``cj`` belongs
    to no satisfying cut and ``j`` retreats (the *destination* loses, where
    the least-cut algorithm advances the *source*).  At quiescence no pair
    is ordered, i.e. ``V(cand_j)[i] < cand_i`` for all ``i != j`` -- the
    candidates form a consistent, all-true cut that upper-bounds every
    satisfying cut: the lattice join.

    Like the least-cut sweep this runs in *batched* elimination rounds: the
    candidate row of each process is checked against every other process's
    candidate clock with one matrix comparison, and a losing process
    retreats in one jump to its last candidate position that no current
    candidate happens-before (``V(pos)[i] < cand_i`` is a prefix property
    of each clock column, so the jump target is a row count).  The fixpoint
    is the same unique greatest satisfying cut as the pairwise deque walk;
    agreement is pinned in ``tests/slicing/test_kernels.py``.
    """
    n = dep.n
    if len(conjunct_truth) != n:
        raise ValueError(f"{len(conjunct_truth)} truth arrays for {n} processes")
    order = dep.order

    positions: List[np.ndarray] = [
        np.flatnonzero(np.asarray(t, dtype=bool)) for t in conjunct_truth
    ]
    if any(len(p) == 0 for p in positions):
        return None
    # Candidate clocks restricted to true states: cp[j][k] = V(positions[j][k]);
    # each column is nondecreasing in k (clock monotonicity along a process).
    cp: List[np.ndarray] = [
        order.clock_matrix(j)[positions[j]] for j in range(n)
    ]
    ptr = [len(p) - 1 for p in positions]  # ptr[j]: index into positions[j]
    cand = np.fromiter((p[-1] for p in positions), dtype=np.int64, count=n)

    while True:
        changed = False
        for j in range(n):
            # (j, b) survives iff no (i, cand_i) -> (j, b), i.e.
            # V(b)[i] < cand_i for every i != j.  Each column test is
            # prefix-true over the candidate rows, so the surviving rows
            # of process j are exactly a prefix; keep its last row.
            sub = cp[j][: ptr[j] + 1]
            ok = sub < cand
            ok[:, j] = True  # V(b)[j] == b: a state never eliminates itself
            keep = int(ok.all(axis=1).sum())
            if keep == 0:
                return None
            if keep - 1 < ptr[j]:
                ptr[j] = keep - 1
                cand[j] = positions[j][ptr[j]]
                changed = True
        if not changed:
            # Quiescent: V(cand_j)[i] < cand_i for all i != j -- a
            # consistent all-true cut that upper-bounds every satisfying
            # cut (only excluded states were ever dropped): the join.
            return tuple(int(c) for c in cand)


@dataclass(frozen=True)
class ComputationSlice:
    """Slice of ``dep`` w.r.t. a conjunction given by per-process ``tables``.

    ``tables[i][a]`` is the predicate's conjunct for process ``i`` at local
    state ``a`` (all-true = unconstrained).  ``least``/``greatest`` are the
    extreme satisfying cuts, or both ``None`` when the slice is empty.
    """

    dep: Deposet
    tables: Tuple[np.ndarray, ...]
    least: Optional[Cut]
    greatest: Optional[Cut]

    @property
    def empty(self) -> bool:
        """True when no consistent cut satisfies the predicate."""
        return self.least is None

    # -- added-edge representation -----------------------------------------

    def skip_arrows(self) -> List[Tuple[StateRef, StateRef]]:
        """The slice's added edges ``(i, a+1) -> (i, a)``, one per ruled-out
        local state.

        A ruled-out *last* state gets an edge from the virtual final state
        ``StateRef(i, m_i)`` (the classic construction's appended top
        event).  These edges deliberately create two-cycles -- collapse
        semantics, see the module docstring -- so they are inspection data,
        not installable control arrows.
        """
        arrows: List[Tuple[StateRef, StateRef]] = []
        for i, t in enumerate(self.tables):
            for a in np.flatnonzero(~np.asarray(t, dtype=bool)):
                arrows.append((StateRef(i, int(a) + 1), StateRef(i, int(a))))
        return arrows

    # -- enumeration ----------------------------------------------------------

    def iter_cuts(self) -> Iterator[Cut]:
        """All satisfying consistent cuts, in lexicographic order.

        Mirrors ``CutLattice.iter_consistent_cuts`` but assigns each
        process only the *true* states inside the band
        ``[least_i, greatest_i]`` -- sound because regularity bounds every
        satisfying cut by the extreme cuts componentwise, complete because
        the pruning drops only false or out-of-band states.
        """
        if self.least is None:
            return
        order = self.dep.order
        n = self.dep.n
        lo, hi = self.least, self.greatest
        assert hi is not None
        tables = self.tables
        cut: List[int] = [0] * n

        def assign(j: int) -> Iterator[Cut]:
            if j == n:
                yield tuple(cut)
                return
            t = tables[j]
            for b in range(lo[j], hi[j] + 1):
                if not t[b]:
                    continue
                row = order.clock((j, b))
                ok = True
                for i in range(j):
                    if row[i] >= cut[i] or order.clock((i, cut[i]))[j] >= b:
                        ok = False
                        break
                if ok:
                    cut[j] = b
                    yield from assign(j + 1)

        yield from assign(0)

    def count_cuts(self) -> int:
        return sum(1 for _ in self.iter_cuts())

    # -- sizing ----------------------------------------------------------------

    @property
    def band_volume(self) -> int:
        """Number of cells in the ``[least, greatest]`` box (0 if empty) --
        an upper bound on the enumeration work per process dimension."""
        if self.least is None or self.greatest is None:
            return 0
        vol = 1
        for lo, hi in zip(self.least, self.greatest):
            vol *= hi - lo + 1
        return vol

    def __repr__(self) -> str:
        if self.empty:
            return f"ComputationSlice(n={self.dep.n}, empty)"
        return (
            f"ComputationSlice(n={self.dep.n}, least={self.least}, "
            f"greatest={self.greatest})"
        )


def compute_slice(dep: Deposet, tables: Sequence[np.ndarray]) -> ComputationSlice:
    """Build the slice of ``dep`` for the conjunction encoded by ``tables``.

    Two candidate-elimination sweeps (least, then greatest) -- polynomial
    in local states.  Control arrows of a controlled deposet are honoured:
    both sweeps and the enumeration consult ``dep.order``, the extended
    causality.
    """
    tables = tuple(np.asarray(t, dtype=bool) for t in tables)
    if len(tables) != dep.n:
        raise ValueError(f"{len(tables)} truth tables for {dep.n} processes")
    least = find_conjunctive_cut(dep, tables)
    greatest = greatest_satisfying_cut(dep, tables) if least is not None else None
    if least is not None and greatest is None:  # pragma: no cover - impossible:
        # a satisfying cut exists, so the mirrored sweep must find one too.
        raise AssertionError("least cut found but greatest sweep came up empty")
    return ComputationSlice(dep=dep, tables=tables, least=least, greatest=greatest)
