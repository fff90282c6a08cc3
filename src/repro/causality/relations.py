"""Whole-trace happened-before: event-level causality, state-level queries.

The paper's model orders *local states*; operationally, causality lives on
*events* (the transitions between states).  The two views are off by half a
step -- ``complete(s_{i,a})`` and ``enter(s_{i,a+1})`` are the **same
event** -- and conflating them loses real cycles: a control arrow whose
source state is *entered* by the very event it transitively blocks is
acyclic on states but deadlocks operationally.  :class:`CausalOrder`
therefore:

1. builds the **event graph**: per-process event chains plus one edge per
   arrow (message or control, uniformly): ``leave(src_state) ->
   enter(dst_state)``;
2. derives per-state vector clocks ``V(s)[k] = max{a : s_{k,a} -> s}``
   (``->`` strict: ``s_{k,a}`` *completed* before ``s`` was *entered*) in
   one Kahn pass from the start states: each event writes the clock of
   the state it enters (:meth:`CausalOrder._enter`);
3. checks acyclicity in the same pass -- events Kahn never reaches lie on
   or below a cycle.  This is the paper's "control relation does not
   interfere with ->", and coincides with "replayable without deadlock".

The state clocks give O(1) state-level queries:

   ``s_{i,a} -> s_{j,b}``  iff  ``i == j and a < b``, or
   ``i != j and a <= V(s_{j,b})[i]``.

A global state (one state per process) is *consistent* iff its states are
pairwise concurrent: ``V(cut[j])[i] < cut[i]`` for all ``i != j``.  The
strict inequality implements the paper's state-based reading: a cut holding
both a sender's pre-send state and the receiver's post-receive state cannot
occur.

The incremental :class:`repro.store.CausalIndex` reuses the same
propagation over the downstream cones of a batch of inserted arrows, and
the same entered-state formula for an appended event.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import MalformedTraceError

__all__ = ["StateRef", "CausalOrder", "CycleError"]


class StateRef(NamedTuple):
    """A local state identified by ``(process index, state index)``."""

    proc: int
    index: int

    def __repr__(self) -> str:  # compact, shows up a lot in debug output
        return f"s[{self.proc},{self.index}]"


class CycleError(MalformedTraceError):
    """The supplied arrows create a cycle in the event graph."""

    def __init__(self, remaining: Sequence[Tuple[int, int]]):
        self.remaining = list(remaining)
        preview = ", ".join(f"ev[{i},{e}]" for i, e in self.remaining[:8])
        super().__init__(
            f"causal relation is cyclic; {len(self.remaining)} events are on "
            f"cycles or downstream of one (e.g. {preview})"
        )


Arrow = Tuple[StateRef, StateRef]
EventRef = Tuple[int, int]  # (proc, event index); event e leaves state e


def check_arrow(counts: Sequence[int], src: StateRef, dst: StateRef) -> None:
    """Reject an arrow that is not well-formed against ``counts`` states
    per process: a missing endpoint, a final-state source (D2), a
    start-state target (D1), or a same-process arrow pointing backwards."""
    for ref in (src, dst):
        p, i = ref
        if not (0 <= p < len(counts)):
            raise MalformedTraceError(f"arrow endpoint {ref!r}: no such process")
        if not (0 <= i < counts[p]):
            raise MalformedTraceError(f"arrow endpoint {ref!r}: no such state")
    (sp, si), (dp, di) = src, dst
    if si > counts[sp] - 2:
        raise MalformedTraceError(
            f"arrow source {src!r} is a final state: it never "
            f"completes, so the arrow could never be satisfied (D2)"
        )
    if di < 1:
        raise MalformedTraceError(
            f"arrow target {dst!r} is a start state: it is entered "
            f"before anything can be waited for (D1)"
        )
    if sp == dp and si >= di:
        raise MalformedTraceError(
            f"same-process arrow {src!r} -> {dst!r} points backwards"
        )


class CausalOrder:
    """O(1) happened-before queries over a (possibly extended) deposet.

    Parameters
    ----------
    state_counts:
        ``state_counts[i]`` is the number of local states of process ``i``
        (each process has at least its start state).  Process ``i`` has
        ``state_counts[i] - 1`` events.
    arrows:
        Cross-state edges ``(src, dst)`` with the uniform strict semantics
        *src completed before dst entered*: message arrows (the paper's
        *remotely precedes*) and any control arrows of an extended deposet.
        ``src`` must have a leaving event (``src.index <= m_src - 2``; a
        final state never completes) and ``dst`` an entering event
        (``dst.index >= 1``); these are the D1/D2 constraints generalised
        to control arrows.

    Raises
    ------
    CycleError
        If the event graph is cyclic -- i.e. the control relation
        *interferes* with causality / the extended computation cannot be
        executed.
    MalformedTraceError
        If an arrow references a nonexistent state or event, or points
        backwards within one process.

    >>> order = CausalOrder([2, 2], [((0, 0), (1, 1))])
    >>> order.concurrent((0, 1), (1, 1))
    True
    >>> order.is_consistent_cut([0, 1])  # s[1,1] waited for s[0,0]
    False
    >>> order.clock((1, 1)).tolist()
    [0, 1]
    """

    __slots__ = ("n", "state_counts", "_clocks", "_arrows", "_in", "_out")

    def __init__(
        self,
        state_counts: Sequence[int],
        arrows: Iterable[Arrow] = (),
    ):
        self.n = n = len(state_counts)
        if n == 0:
            raise MalformedTraceError("a computation needs at least one process")
        self.state_counts: Tuple[int, ...] = tuple(int(m) for m in state_counts)
        for i, m in enumerate(self.state_counts):
            if m < 1:
                raise MalformedTraceError(
                    f"process {i} has {m} states; every process has at least "
                    f"a start state"
                )
        self._arrows: List[Arrow] = [
            (StateRef(*a), StateRef(*b)) for a, b in arrows
        ]
        # Event-graph adjacency over cross-state edges (the in-process
        # chain is implicit): leave(src) -> enter(dst).  Values are
        # tuples, replaced rather than mutated, so clones copy only the dicts.
        self._in: Dict[EventRef, Tuple[EventRef, ...]] = {}
        self._out: Dict[EventRef, Tuple[EventRef, ...]] = {}
        for src, dst in self._arrows:
            check_arrow(self.state_counts, src, dst)
            self._link(src, dst)
        #: per-process state-clock matrices, shape (m_i, n), dtype int32;
        #: start states are the only seeds, every other row is entered.
        self._clocks: List[np.ndarray] = []
        for j, m in enumerate(self.state_counts):
            rows = np.full((m, n), -1, dtype=np.int32)
            rows[0, j] = 0
            self._clocks.append(rows)
        self._propagate(dict.fromkeys(range(n), 0))

    # -- construction ------------------------------------------------------

    def _link(self, src: StateRef, dst: StateRef) -> None:
        """Add the event edge ``leave(src) -> enter(dst)`` of one arrow."""
        (sp, si), (dp, di) = src, dst
        src_ev: EventRef = (sp, si)
        dst_ev: EventRef = (dp, di - 1)
        if src_ev == dst_ev:
            return  # complete(s) == enter(s+1): trivially satisfied
        self._out[src_ev] = self._out.get(src_ev, ()) + (dst_ev,)
        self._in[dst_ev] = self._in.get(dst_ev, ()) + (src_ev,)

    def _enter(
        self, p: int, e: int, sources: Iterable[EventRef], row: np.ndarray
    ) -> None:
        """Write into ``row`` the clock of the state entered by event
        ``(p, e)``, given the source events of its incoming arrows.

        ``V(s_{p,e+1})`` is the left state's clock joined with each source
        event's clock, and ``e + 1`` on the own component.  A source event
        ``(q, f)`` has clock ``V(s_{q,f+1})`` with component ``q`` at
        ``f`` (the diagonal convention undone), hence the ``keep``.
        """
        clocks = self._clocks
        row[...] = clocks[p][e]
        for q, f in sources:
            keep = max(int(row[q]), f)
            np.maximum(row, clocks[q][f + 1], out=row)
            row[q] = keep
        row[p] = e + 1

    def _row(self, p: int, b: int) -> np.ndarray:
        """State ``(p, b)``'s clock row, to be overwritten."""
        return self._clocks[p][b]

    def _propagate(self, start: Dict[int, int]) -> None:
        """Recompute the entered-state clock of every event from
        ``(p, start[p])`` onwards on each process ``p``, in topological
        order (Kahn's algorithm, one cursor per process).

        The region must be closed under successors (the whole graph, or
        the downstream cone of a new edge); clocks outside it are inputs.
        Raises :class:`CycleError` naming every event on a cycle or
        downstream of one.
        """
        out = self._out
        inn = self._in
        ends = [m - 1 for m in self.state_counts]
        # Unprocessed in-region sources per event (the chain edge is the
        # cursor itself).
        pending: Dict[EventRef, int] = {}
        for p, s in start.items():
            for e in range(s, ends[p]):
                for q, f in inn.get((p, e), ()):
                    if f >= start.get(q, ends[q]):
                        pending[p, e] = pending.get((p, e), 0) + 1
        cursor = dict(start)
        ready = deque(start)
        while ready:
            p = ready.popleft()
            e = cursor[p]
            while e < ends[p] and not pending.get((p, e)):
                ev = (p, e)
                self._enter(p, e, inn.get(ev, ()), self._row(p, e + 1))
                for d in out.get(ev, ()):
                    pending[d] -= 1
                    q, f = d
                    if not pending[d] and q != p and cursor[q] == f:
                        ready.append(q)
                e += 1
            cursor[p] = e
        remaining = [
            (p, e) for p in sorted(cursor) for e in range(cursor[p], ends[p])
        ]
        if remaining:
            raise CycleError(remaining)

    # -- queries -----------------------------------------------------------

    def clock(self, ref: StateRef | Tuple[int, int]) -> np.ndarray:
        """The state clock ``V(s)`` (read-only view)."""
        proc, index = ref
        return self._clocks[proc][index]

    def clock_matrix(self, proc: int) -> np.ndarray:
        """All clocks of one process, shape ``(m_proc, n)``."""
        return self._clocks[proc]

    def happened_before(
        self, a: StateRef | Tuple[int, int], b: StateRef | Tuple[int, int]
    ) -> bool:
        """Strict ``a -> b`` over states (a completed before b entered)."""
        (pi, ai), (pj, bj) = a, b
        if pi == pj:
            return bool(ai < bj)
        return bool(ai <= self._clocks[pj][bj, pi])

    def happened_before_eq(
        self, a: StateRef | Tuple[int, int], b: StateRef | Tuple[int, int]
    ) -> bool:
        """Reflexive ``a ->= b`` (the paper's underlined arrow)."""
        return tuple(a) == tuple(b) or self.happened_before(a, b)

    def enters_before(
        self, a: StateRef | Tuple[int, int], b: StateRef | Tuple[int, int]
    ) -> bool:
        """``enter(a) <= enter(b)``: every execution that has entered ``b``
        has (at least) entered ``a``.

        This is the relation the off-line algorithm's ``crossable`` and
        cursor-advance conditions need: it differs from the state relation
        ``->`` by half a step, because ``complete(s_a)`` and
        ``enter(s_{a+1})`` are the same event.  Start states are entered
        from time zero, so they precede everything.
        """
        (pa, ia), (pb, ib) = a, b
        if pa == pb:
            return bool(ia <= ib)
        if ia == 0:
            return True
        # enter(a) is the completion of a's predecessor state.
        return self.happened_before((pa, ia - 1), (pb, ib))

    def concurrent(
        self, a: StateRef | Tuple[int, int], b: StateRef | Tuple[int, int]
    ) -> bool:
        """``a || b``: neither state causally precedes the other."""
        return (
            tuple(a) != tuple(b)
            and not self.happened_before(a, b)
            and not self.happened_before(b, a)
        )

    def is_consistent_cut(self, cut: Sequence[int]) -> bool:
        """Is the global state ``cut`` (one state index per process) consistent?

        ``cut`` is consistent iff its states are pairwise concurrent:
        ``V(cut[j])[i] < cut[i]`` for all ``i != j`` (strict -- see the
        module docstring).
        """
        if len(cut) != self.n:
            raise ValueError(f"cut has {len(cut)} entries for {self.n} processes")
        for j in range(self.n):
            row = self._clocks[j][cut[j]]
            for i in range(self.n):
                if i != j and row[i] >= cut[i]:
                    return False
        return True

    def implied(self, src: StateRef | Tuple[int, int],
                dst: StateRef | Tuple[int, int]) -> bool:
        """Is the arrow ``src -> dst``, one of this order's arrows, implied
        by the rest of the order?

        In the acyclic event graph the arrow is the edge ``leave(src) ->
        enter(dst)``; the rest implies it iff another out-edge of
        ``leave(src)`` -- the chain edge, another arrow, or a duplicate of
        this one -- reaches ``enter(dst)``.  A path from such a successor
        cannot use the arrow itself (that would close a cycle), so each
        check is one clock lookup.  A same-process arrow is always implied
        by the chain.  O(out-degree of ``leave(src)``).
        """
        (sp, si), (dp, di) = src, dst
        if sp == dp:
            return True
        target: EventRef = (dp, di - 1)
        succ = list(self._out.get((sp, si), ()))
        succ.remove(target)  # the arrow's own edge; ValueError if absent
        if si + 2 < self.state_counts[sp]:
            succ.append((sp, si + 1))  # the chain edge
        clock = self._clocks[dp][di]
        for q, g in succ:
            if (g < di) if q == dp else (g <= clock[q]):
                return True
        return False

    @property
    def arrows(self) -> List[Arrow]:
        """The cross-state arrows this order was built from (copy)."""
        return list(self._arrows)
