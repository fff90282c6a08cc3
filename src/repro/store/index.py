"""Incremental causality: the index layer of the trace stack.

:class:`~repro.causality.relations.CausalOrder` computes every vector clock
with one propagation: Kahn's algorithm over a region of the event graph,
writing each event's entered-state clock with one formula.  Construction
runs it over the whole graph.  :class:`CausalIndex` keeps the exact same
query API (it *is* a ``CausalOrder``) and supports the two mutations a
streaming trace store needs:

* :meth:`append_event` -- one new event arriving in **causal delivery
  order** (every arrow source already completed).  The new state's clock
  is the entered-state formula applied once: O(n) per event, the classic
  Fidge/Mattern maintenance.
* :meth:`insert_arrows` / :meth:`extended` -- new arrows between existing
  states (a control relation, or a message attached after the fact).
  Only the **downstream cones** of the arrows' target events can change,
  so the index links every arrow of the batch and runs the same
  propagation once over the union of those cones instead of the whole
  graph.  A batch is all or nothing: when it closes a cycle the index is
  left exactly as it was.

Sharing discipline
------------------
Clock matrices are shared between an index, its :meth:`freeze` snapshots,
its :meth:`extended` children and the indexes of store forks; rows are
copied only when a write would touch a row another index can see
(copy-on-write, tracked per process via ``_owned`` / ``_watermark``).  A
twin owns no rows: its first append or cone update on a process copies
that process's block.  The index it was taken from keeps the rows beyond
its current counts, which no twin sees, and appends there in place; it
copies before a cone update writes below them.  So a store fork's index
(an appendable twin) shares every clock row with its parent until one
side writes.

Equality with the batch order -- clocks, happened-before / concurrency /
consistency answers, and ``CycleError`` payloads -- is pinned by the
hypothesis suite in ``tests/store/test_causal_index.py``, which also
checks both against a brute-force reachability oracle.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.causality.axioms import CONTROL, arrow_problems, axiom_error
from repro.causality.relations import (
    Arrow, CausalOrder, CycleError, EventRef, StateRef,
)
from repro.errors import MalformedTraceError
from repro.obs.metrics import METRICS

__all__ = ["CausalIndex"]

_APPENDS = METRICS.counter("index.appends")
_INSERTS = METRICS.counter("index.arrow_inserts")
_CONE_EVENTS = METRICS.counter("index.cone_events")


class CausalIndex(CausalOrder):
    """An incrementally-maintained :class:`CausalOrder`.

    Construction is identical to ``CausalOrder`` (a batch build over the
    given counts and arrows); the instance can then grow in place.
    """

    __slots__ = ("_appendable", "_owned", "_watermark")

    def __init__(
        self,
        state_counts: Sequence[int],
        arrows: Iterable[Arrow] = (),
        appendable: bool = True,
    ):
        self._appendable = appendable
        # Set before the build: its row writes go through _row.
        self._owned = [True] * len(state_counts)
        self._watermark = [0] * len(state_counts)
        super().__init__(state_counts, arrows)

    @classmethod
    def from_order(cls, order: CausalOrder) -> "CausalIndex":
        """A fresh index over an existing order's counts and arrows."""
        return cls(order.state_counts, order.arrows)

    # -- sharing / derivation ----------------------------------------------

    def _clone_shared(self, appendable: bool) -> "CausalIndex":
        """A twin sharing clock matrices and owning none of their rows;
        ``self`` keeps only the rows beyond the current counts (see the
        module's sharing discipline).  Either side may add edges, so each
        gets its own adjacency dicts."""
        twin = CausalIndex.__new__(CausalIndex)
        twin.n = self.n
        twin.state_counts = self.state_counts
        twin._clocks = list(self._clocks)
        twin._arrows = list(self._arrows)
        twin._in = dict(self._in)
        twin._out = dict(self._out)
        twin._appendable = appendable
        twin._owned = [False] * self.n
        twin._watermark = [0] * self.n
        self._watermark = list(self.state_counts)
        return twin

    def freeze(self) -> "CausalIndex":
        """An immutable snapshot of the current counts/arrows.

        The snapshot shares the clock matrices; the live index protects the
        rows the snapshot can see (everything below the current counts) by
        copy-on-write before any later in-place arrow insert touches them.
        """
        return self._clone_shared(appendable=False)

    def extended(self, extra_arrows: Iterable[Arrow]) -> "CausalIndex":
        """A new order with additional arrows, without a full rebuild.

        Arrows already present (messages included) are skipped: a
        duplicate adds no causality.  Raises ``MalformedTraceError`` on a
        bad endpoint and :class:`CycleError` when the arrows interfere
        with the existing causality -- equivalently, when the extended
        computation cannot be replayed without deadlock; its
        ``remaining`` names the same events a batch :class:`CausalOrder`
        over all the arrows would.  The cost is one propagation over the
        union of the new arrows' downstream cones, not a whole-trace pass
        per arrow.  ``self`` is not modified.
        """
        twin = self._clone_shared(appendable=False)
        twin._insert(extra_arrows)
        return twin

    def insert_arrows(self, arrows: Iterable[Arrow]) -> List[Arrow]:
        """Insert arrows **in place** (the live store's mutation path).

        Returns the arrows actually inserted (duplicates of existing
        arrows are skipped).  All or nothing: an endpoint validation error
        is raised before any mutation, and a ``CycleError`` (interference,
        possibly among the batch's own arrows) leaves the index's arrows
        and clocks exactly as they were before the call.  The whole batch
        costs one propagation over the union of its downstream cones.
        """
        if not self._appendable:
            raise RuntimeError(
                "this CausalIndex is a frozen snapshot or derived view; "
                "insert arrows on the live store index, or use extended()"
            )
        return self._insert(arrows)

    # -- append fast path ---------------------------------------------------

    def append_event(
        self, proc: int, sources: Iterable[StateRef | Tuple[int, int]] = ()
    ) -> StateRef:
        """Process ``proc`` takes one event and enters a new state.

        ``sources`` are arrow sources (message sends, exact control
        sources) targeting the entered state.  Streaming ingestion must be
        in **causal delivery order**: each source state has already
        completed (``src.index <= m_src - 2`` at call time), which is what
        makes the O(n) clock extension sound -- every predecessor clock is
        final.  Returns the entered state.
        """
        if not self._appendable:
            raise RuntimeError(
                "this CausalIndex is a frozen snapshot or derived view; "
                "append on the live store index"
            )
        if not (0 <= proc < self.n):
            raise MalformedTraceError(f"no process {proc}")
        counts = self.state_counts
        dst = StateRef(proc, counts[proc])
        after = counts[:proc] + (dst.index + 1,) + counts[proc + 1 :]
        srcs = [StateRef(*src) for src in sources]
        for src in srcs:
            # Judged as a batch arrow against the counts after the append;
            # a source that exists but has not completed breaks causal
            # delivery order (T009) rather than D2.
            problems = arrow_problems(CONTROL, src, dst, after)
            if problems and problems[0][0] != "T005":
                problems = arrow_problems(CONTROL, src, dst, after,
                                          streamed=True)
            if problems:
                raise axiom_error(problems[0])
        self._append(dst, srcs, after)
        return dst

    def _append(self, dst: StateRef, srcs: Sequence[StateRef],
                after: Tuple[int, ...]) -> None:
        """:meth:`append_event` for sources already judged: ``dst`` is the
        state entered, ``after`` the state counts once it is."""
        proc, m = dst
        for src in srcs:
            self._arrows.append((src, dst))
            self._link(src, dst)
        incoming = self._in.get((proc, m - 1), ()) if srcs else ()
        arr = self._clocks[proc]
        if m >= arr.shape[0] or not self._owned[proc]:
            # Grow capacity (amortised O(1) appends), or copy a block
            # another index shares: it may append its own row m.
            grown = np.full((max(8, 2 * m), self.n), -1, dtype=np.int32)
            grown[:m] = arr[:m]
            self._clocks[proc] = arr = grown
            self._owned[proc] = True
            self._watermark[proc] = 0
        # Row m lies beyond every twin's counts: no copy-on-write.
        self._enter(proc, m - 1, incoming, arr[m])
        self.state_counts = after
        _APPENDS.inc()

    # -- arrow insertion (cone recompute) -----------------------------------

    def _insert(self, arrows: Iterable[Arrow]) -> List[Arrow]:
        """Link every fresh arrow, then recompute the union of their
        downstream cones with one propagation.  All or nothing: on a
        ``CycleError`` the arrows are unlinked and the same region is
        propagated again, which restores its clocks exactly (the region
        stays successor-closed without the new edges)."""
        seen = set(self._arrows)
        fresh: List[Arrow] = []
        for a, b in arrows:
            arrow = (StateRef(*a), StateRef(*b))
            if arrow in seen:
                continue  # duplicate arrows add no causality
            seen.add(arrow)
            fresh.append(arrow)
        if not fresh:
            return fresh
        for src, dst in fresh:
            problems = arrow_problems(CONTROL, src, dst, self.state_counts)
            if problems:
                raise axiom_error(problems[0])
        out, inn = self._out, self._in
        undo = []  # (adjacency, event, its edges before the link)
        stack: List[EventRef] = []
        for src, dst in fresh:
            src_ev: EventRef = (src.proc, src.index)
            dst_ev: EventRef = (dst.proc, dst.index - 1)
            if src_ev == dst_ev:
                continue  # complete(s) == enter(s+1): no edge, no cone
            undo.append((out, src_ev, out.get(src_ev)))
            undo.append((inn, dst_ev, inn.get(dst_ev)))
            stack.append(dst_ev)
            self._link(src, dst)
        n_arrows = len(self._arrows)
        self._arrows.extend(fresh)
        # Only the downstream cones of the new edges' targets can change:
        # on each process they reach, a suffix from its first event reached.
        ends = [m - 1 for m in self.state_counts]
        start: Dict[int, int] = {}
        while stack:
            p, e = stack.pop()
            first = start.get(p, ends[p])
            if e < first:
                start[p] = e
                for f in range(e, first):
                    stack.extend(out.get((p, f), ()))
        _CONE_EVENTS.inc(sum(ends[p] - e for p, e in start.items()))
        try:
            self._propagate(start)
        except CycleError:
            del self._arrows[n_arrows:]
            for adj, ev, old in reversed(undo):
                if old is None:
                    adj.pop(ev, None)
                else:
                    adj[ev] = old
            self._propagate(start)
            raise
        _INSERTS.inc(len(fresh))
        return fresh

    def _row(self, p: int, b: int) -> np.ndarray:
        if not self._owned[p] or b < self._watermark[p]:
            # A snapshot or twin can see this row: copy before writing.
            self._clocks[p] = self._clocks[p][: self.state_counts[p]].copy()
            self._owned[p] = True
            self._watermark[p] = 0
        return self._clocks[p][b]

    # -- queries whose implementation must respect capacity slack -----------

    def clock_matrix(self, proc: int) -> np.ndarray:
        """All clocks of one process, shape ``(m_proc, n)``.

        Overridden: the live index over-allocates rows for amortised
        appends, so the view is trimmed to the current state count.
        """
        return self._clocks[proc][: self.state_counts[proc]]
