"""The deposet: a traced distributed computation.

``Deposet`` is an immutable value: all mutation happens through
:class:`~repro.trace.builder.ComputationBuilder` (hand-built traces), the
simulator's recorder (executed traces), or :meth:`Deposet.with_control`
(extension by a control relation, yielding the paper's *controlled
deposet*).
"""

from __future__ import annotations

from functools import cached_property
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.causality.axioms import (
    CONTROL, arrow_problems, axiom_error, trace_problems,
)
from repro.causality.relations import CycleError, StateRef
from repro.errors import InterferenceError, MalformedTraceError
from repro.store.columns import ColumnBlock, pack_block
from repro.store.index import CausalIndex
from repro.trace.states import Event, EventKind, MessageArrow

__all__ = ["Deposet"]

ControlArrow = Tuple[StateRef, StateRef]


class Deposet:
    """A distributed computation as a decomposed partially-ordered set.

    Parameters
    ----------
    vars_by_state:
        ``vars_by_state[i][a]`` is the variable assignment (a mapping) of
        local state ``a`` of process ``i``.  Process ``i`` has
        ``len(vars_by_state[i])`` states; the first is its start state
        ``bottom_i`` and the last its final state ``top_i``.
    messages:
        The *remotely precedes* arrows (see :class:`MessageArrow`).
    control_arrows:
        Extra causal arrows from a control relation; a deposet with a
        nonempty control relation is a *controlled deposet*.  The arrows
        must not interfere with (create a cycle in) the underlying
        causality; violations raise :class:`~repro.errors.InterferenceError`.
    proc_names:
        Optional human-readable process names (defaults to ``P0..P{n-1}``).
    timestamps:
        Optional per-state wall-clock times from a simulator run, same
        shape as ``vars_by_state``.

    Raises
    ------
    MalformedTraceError
        On the first problem ``repro lint`` reports first
        (:mod:`repro.causality.axioms`; T002--T006, a cyclic message
        relation, C103), with its ``rule`` and JSON path ``location``.
    InterferenceError
        When ``control_arrows`` interfere with the underlying causality.
    """

    __slots__ = (
        "_vars",
        "_messages",
        "_control",
        "_names",
        "_timestamps",
        "__dict__",  # for cached_property
    )

    def __init__(
        self,
        vars_by_state: Sequence[Sequence[Mapping[str, Any]]],
        messages: Iterable[MessageArrow] = (),
        control_arrows: Iterable[ControlArrow] = (),
        proc_names: Optional[Sequence[str]] = None,
        timestamps: Optional[Sequence[Sequence[float]]] = None,
    ):
        if len(vars_by_state) == 0:
            raise MalformedTraceError("a computation needs at least one process")
        self._vars: Tuple[Tuple[Dict[str, Any], ...], ...] = tuple(
            tuple(dict(v) for v in proc_states) for proc_states in vars_by_state
        )
        for i, proc_states in enumerate(self._vars):
            if len(proc_states) == 0:
                raise MalformedTraceError(f"process {i} has no states")
        self._messages: Tuple[MessageArrow, ...] = tuple(
            m if isinstance(m, MessageArrow) else MessageArrow(*m) for m in messages
        )
        given = [(StateRef(*a), StateRef(*b)) for a, b in control_arrows]
        # Control arrows are deduped: a repeated arrow adds no causality
        # but would inflate the event graph and the obs arrow counters.
        self._control: Tuple[ControlArrow, ...] = tuple(dict.fromkeys(given))
        if proc_names is not None and len(proc_names) != len(self._vars):
            raise MalformedTraceError(
                f"{len(proc_names)} names for {len(self._vars)} processes"
            )
        self._names: Tuple[str, ...] = (
            tuple(proc_names)
            if proc_names is not None
            else tuple(f"P{i}" for i in range(len(self._vars)))
        )
        self._timestamps = (
            tuple(tuple(float(t) for t in row) for row in timestamps)
            if timestamps is not None
            else None
        )
        if self._timestamps is not None:
            for i, row in enumerate(self._timestamps):
                if len(row) != len(self._vars[i]):
                    raise MalformedTraceError(
                        f"timestamps for process {i} have {len(row)} entries "
                        f"for {len(self._vars[i])} states"
                    )
        counts = self.state_counts
        for key, k, problem, _prev in trace_problems(
            counts, self._messages, given
        ):
            raise axiom_error(problem, f"{key}[{k}]")
        # A message cycle first, as lint reports T011 before any C103.
        self.base_order
        for k, (a, b) in enumerate(given):
            problems = arrow_problems(CONTROL, a, b, counts)
            if problems:
                raise axiom_error(problems[0], f"control[{k}]")
        # Force causality construction so malformed traces fail eagerly.
        self.order

    # -- shape -------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of processes."""
        return len(self._vars)

    @cached_property
    def state_counts(self) -> Tuple[int, ...]:
        """``m_i`` for each process.

        Cached: profiling showed the per-call tuple rebuild dominating the
        off-line algorithm's inner loop (the deposet is immutable, so
        caching is safe).
        """
        return tuple(len(proc_states) for proc_states in self._vars)

    @property
    def num_states(self) -> int:
        """Total local states across all processes."""
        return sum(self.state_counts)

    @property
    def proc_names(self) -> Tuple[str, ...]:
        return self._names

    @property
    def messages(self) -> Tuple[MessageArrow, ...]:
        return self._messages

    @property
    def control_arrows(self) -> Tuple[ControlArrow, ...]:
        return self._control

    @property
    def timestamps(self):
        return self._timestamps

    def bottom(self, proc: int) -> StateRef:
        """The start state ``bottom_proc``."""
        return StateRef(proc, 0)

    def top(self, proc: int) -> StateRef:
        """The final state ``top_proc``."""
        return StateRef(proc, len(self._vars[proc]) - 1)

    def is_bottom(self, ref: StateRef) -> bool:
        return ref.index == 0

    def is_top(self, ref: StateRef) -> bool:
        return ref.index == len(self._vars[ref.proc]) - 1

    # -- state content -----------------------------------------------------

    def state_vars(self, ref: StateRef | Tuple[int, int]) -> Dict[str, Any]:
        """The variable assignment of a local state (do not mutate)."""
        proc, index = ref
        return self._vars[proc][index]

    def proc_states(self, proc: int) -> Tuple[Dict[str, Any], ...]:
        """All variable assignments of one process, in execution order."""
        return self._vars[proc]

    def column_block(self, proc: int, names: Sequence[str]) -> ColumnBlock:
        """Packed numpy columns of the named variables of ``proc`` (cached).

        The vectorised truth-table kernels read these instead of walking
        state dicts.  Snapshots share the owning store's cache, so a
        detect loop over a growing trace packs each (variables, prefix)
        combination once; ``with_control`` derivatives share too (the
        state columns are causality-independent).
        """
        states = self._vars[proc]
        key = (proc, tuple(names), len(states))
        cache = self.__dict__.get("_column_cache")
        if cache is None:
            cache = self.__dict__["_column_cache"] = {}
        block = cache.get(key)
        if block is None:
            block = pack_block(states[: key[2]], key[1])
            cache[key] = block
        return block

    # -- derived structure ---------------------------------------------------

    @cached_property
    def events(self) -> Tuple[Tuple[Event, ...], ...]:
        """Per-process event sequences, derived from the message arrows."""
        roles: Dict[Tuple[int, int], Tuple[EventKind, int]] = {}
        for mi, msg in enumerate(self._messages):  # D3 held at construction
            roles[msg.src.proc, msg.src.index] = (EventKind.SEND, mi)
            roles[msg.dst.proc, msg.dst.index - 1] = (EventKind.RECEIVE, mi)
        out: List[Tuple[Event, ...]] = []
        for i, proc_states in enumerate(self._vars):
            evs = []
            for k in range(len(proc_states) - 1):
                kind, mi = roles.get((i, k), (EventKind.LOCAL, None))
                evs.append(Event(i, k, kind, mi))
            out.append(tuple(evs))
        return tuple(out)

    @cached_property
    def base_order(self) -> CausalIndex:
        """Happened-before of the *underlying* computation (no control)."""
        return CausalIndex(
            self.state_counts,
            [(m.src, m.dst) for m in self._messages],
            appendable=False,
        )

    @cached_property
    def order(self) -> CausalIndex:
        """Happened-before of the (possibly extended) computation."""
        if not self._control:
            return self.base_order
        try:
            return self.base_order.extended(self._control)
        except CycleError as exc:
            raise InterferenceError(
                "control relation interferes with causality", cycle=exc.remaining
            ) from exc

    # -- derivation ----------------------------------------------------------

    def with_control(self, arrows: Iterable[ControlArrow]) -> "Deposet":
        """The controlled deposet: this computation plus a control relation.

        The new arrows are *appended* to any existing control relation
        (duplicates are dropped -- a repeated arrow adds no causality).
        Raises :class:`~repro.errors.InterferenceError` if the union
        interferes with the underlying causality.

        The extended causality is derived **incrementally** from this
        deposet's order: all the new arrows are linked at once and one
        propagation recomputes the union of their downstream cones, so a
        whole control relation costs about one batch build, not a pass
        per arrow.
        """
        seen = set(self._control)
        fresh: List[ControlArrow] = []
        for a, b in arrows:
            arrow = (StateRef(*a), StateRef(*b))
            if arrow not in seen:
                seen.add(arrow)
                fresh.append(arrow)
        if not fresh:
            return self
        new = object.__new__(Deposet)
        new._vars = self._vars
        new._messages = self._messages
        new._control = self._control + tuple(fresh)
        new._names = self._names
        new._timestamps = self._timestamps
        # Seed the order cache incrementally; endpoint validation (D1/D2,
        # existence) and interference checks happen here, eagerly, exactly
        # as in the batch constructor path.
        try:
            new.__dict__["order"] = self.order.extended(fresh)
        except CycleError as exc:
            raise InterferenceError(
                "control relation interferes with causality", cycle=exc.remaining
            ) from exc
        if "base_order" in self.__dict__:
            new.__dict__["base_order"] = self.__dict__["base_order"]
        if "state_counts" in self.__dict__:
            new.__dict__["state_counts"] = self.__dict__["state_counts"]
        if "_column_cache" in self.__dict__:
            # Same states, same columns: control arrows do not change them.
            new.__dict__["_column_cache"] = self.__dict__["_column_cache"]
        return new

    @classmethod
    def _from_store(cls, store, proc_names: Optional[Sequence[str]] = None) -> "Deposet":
        """A snapshot view over a :class:`~repro.store.TraceStore` prefix.

        Shares the store's variable dicts and arrow objects (no deep copy)
        and seeds the ``order`` cache with a frozen slice of the store's
        live :class:`~repro.store.index.CausalIndex` -- the store already
        enforced D1--D3 and acyclicity on every append, so the usual
        eager validation pass is skipped.  Private: use
        :meth:`TraceStore.snapshot`.
        """
        dep = object.__new__(cls)
        dep._vars = tuple(store.vars_prefix(i) for i in range(store.n))
        dep._messages = tuple(store.messages)
        dep._control = tuple(store.control_arrows)
        names = store.proc_names if proc_names is None else tuple(proc_names)
        if len(names) != len(dep._vars):
            raise MalformedTraceError(
                f"{len(names)} names for {len(dep._vars)} processes"
            )
        dep._names = tuple(names)
        dep._timestamps = (
            tuple(store.times_prefix(i) for i in range(store.n))
            if store.times_prefix(0) is not None
            else None
        )
        frozen = store.index.freeze()
        dep.__dict__["order"] = frozen
        dep.__dict__["state_counts"] = frozen.state_counts
        if not dep._control:
            dep.__dict__["base_order"] = frozen
        # Share the store's packed-column cache: the key includes the
        # prefix length, so blocks stay per-snapshot-correct as the store
        # keeps growing.
        dep.__dict__["_column_cache"] = store.snapshot_cache()
        return dep

    def without_control(self) -> "Deposet":
        """The underlying computation, dropping any control relation.

        Derived like :meth:`with_control`: it shares this deposet's
        states, messages, names, timestamps and packed columns, and its
        order *is* this deposet's :attr:`base_order` (the messages were
        validated when this deposet was).
        """
        if not self._control:
            return self
        new = object.__new__(Deposet)
        new._vars = self._vars
        new._messages = self._messages
        new._control = ()
        new._names = self._names
        new._timestamps = self._timestamps
        new.__dict__["base_order"] = new.__dict__["order"] = self.base_order
        new.__dict__["state_counts"] = self.state_counts
        new.__dict__["_column_cache"] = self.__dict__.setdefault(
            "_column_cache", {})
        return new

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Deposet):
            return NotImplemented
        return (
            self._vars == other._vars
            # message order is meaningless (D3 makes duplicates impossible)
            and frozenset(self._messages) == frozenset(other._messages)
            and frozenset(self._control) == frozenset(other._control)
        )

    def __hash__(self) -> int:
        return hash(
            (self.state_counts, frozenset(self._messages), frozenset(self._control))
        )

    def __repr__(self) -> str:
        ctrl = f", control={len(self._control)}" if self._control else ""
        return (
            f"Deposet(n={self.n}, states={self.state_counts}, "
            f"messages={len(self._messages)}{ctrl})"
        )

    def describe(self) -> str:
        """A small multi-line summary for logs and examples."""
        lines = [repr(self)]
        for i in range(self.n):
            kinds = "".join(
                {"local": ".", "send": "s", "receive": "r"}[e.kind.value]
                for e in self.events[i]
            )
            lines.append(f"  {self._names[i]}: {len(self._vars[i])} states, events [{kinds}]")
        if self._control:
            lines.append("  control: " + ", ".join(f"{a!r}->{b!r}" for a, b in self._control))
        return "\n".join(lines)
