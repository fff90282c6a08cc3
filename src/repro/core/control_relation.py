"""Control relations: the output of predicate control.

A control relation is a set of *forced-before* arrows ``s C-> t`` between
local states of different processes.  Operationally each arrow is realised
by one control message: the controller of ``proc(s)`` sends after its
process completes ``s``, and the controller of ``proc(t)`` blocks its
process from entering ``t`` until that message arrives.  The paper's
"control strategy" for the off-line problem is exactly this relation plus
the blocking discipline (implemented by :mod:`repro.replay`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.causality.relations import CausalOrder, StateRef
from repro.trace.deposet import Deposet

__all__ = ["ControlRelation"]

Arrow = Tuple[StateRef, StateRef]


class ControlRelation:
    """An ordered collection of control arrows.

    Order is preserved (the off-line algorithm emits a chain, and the chain
    order is meaningful for debugging), but equality is set-based: two
    relations forcing the same orderings are the same control strategy.
    """

    __slots__ = ("_arrows",)

    def __init__(self, arrows: Iterable[Arrow] = ()):
        self._arrows: List[Arrow] = []
        seen = set()
        for a, b in arrows:
            arrow = (StateRef(*a), StateRef(*b))
            if arrow[0].proc == arrow[1].proc:
                raise ValueError(
                    f"control arrow {arrow[0]!r} -> {arrow[1]!r} stays on one "
                    f"process; same-process order needs no control message"
                )
            if arrow not in seen:
                seen.add(arrow)
                self._arrows.append(arrow)

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._arrows)

    def __iter__(self) -> Iterator[Arrow]:
        return iter(self._arrows)

    def __bool__(self) -> bool:
        return bool(self._arrows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ControlRelation):
            return NotImplemented
        return set(self._arrows) == set(other._arrows)

    def __hash__(self) -> int:
        return hash(frozenset(self._arrows))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a!r}->{b!r}" for a, b in self._arrows[:6])
        more = f", ... +{len(self._arrows) - 6}" if len(self._arrows) > 6 else ""
        return f"ControlRelation([{inner}{more}])"

    @property
    def arrows(self) -> List[Arrow]:
        return list(self._arrows)

    # -- semantics ---------------------------------------------------------------

    @property
    def message_count(self) -> int:
        """Control messages needed to enforce this relation (one per arrow)."""
        return len(self._arrows)

    def apply(self, dep: Deposet) -> Deposet:
        """The controlled deposet of ``dep`` with this relation.

        Raises :class:`~repro.errors.InterferenceError` when the relation
        interferes with the computation's causality.
        """
        return dep.with_control(self._arrows)

    def restricted_to(self, procs: Sequence[int]) -> "ControlRelation":
        """Arrows whose endpoints both lie in ``procs`` (debug helper)."""
        keep = set(procs)
        return ControlRelation(
            (a, b) for a, b in self._arrows if a.proc in keep and b.proc in keep
        )

    def merged_with(self, other: "ControlRelation") -> "ControlRelation":
        """The union relation (deduplicated, order: self then other)."""
        return ControlRelation(self._arrows + other.arrows)

    def minimized(self, dep: Deposet) -> "ControlRelation":
        """Drop arrows already implied by ``dep``'s causality plus the
        remaining arrows.

        Fewer arrows = fewer control messages at replay, with an identical
        extended causal order (every dropped arrow's ordering is still
        enforced transitively).  This is the control-relation analogue of
        optimal tracing's transitive reduction.  The result equals the
        greedy loop that tests arrows in reverse insertion order against
        the arrows still kept: dropping an implied arrow keeps
        reachability, so each arrow is judged once against one order over
        ``dep``'s arrows (its own control relation included) plus this
        relation -- one batch build in all.  Raises
        :class:`~repro.causality.relations.CycleError` when the relation
        interferes with ``dep``'s causality.
        """
        base = [(m.src, m.dst) for m in dep.messages] + list(dep.control_arrows)
        order = CausalOrder(dep.state_counts, base + self._arrows)
        return ControlRelation(a for a in self._arrows if not order.implied(*a))
