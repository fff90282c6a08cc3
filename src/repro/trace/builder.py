"""A small DSL for constructing deposets by hand.

Used throughout the tests and examples to transcribe space-time diagrams
(like the paper's Figure 4) directly into code:

>>> b = ComputationBuilder(2, start_vars=[{"avail": True}, {"avail": True}])
>>> b.local(0, avail=False)          # P0 becomes unavailable
s[0,1]
>>> m = b.send(0)                    # P0 sends a message ...
>>> _ = b.receive(1, m, avail=False) # ... P1 receives it and goes down too
>>> dep = b.build()
>>> dep.state_counts
(3, 2)

Each ``local``/``send``/``receive`` call appends one event (and hence one
new local state) to a process; keyword arguments update the process's
variables in the new state (variables persist until overwritten).

The builder writes into an append-only
:class:`~repro.store.TraceStore` -- calls arrive in execution order,
which is a causal delivery order (a message can only be received after
:meth:`send` returned its handle), so the store's incremental index is
maintained as the trace is typed in and :meth:`build` is a snapshot, not
a batch reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.causality.relations import StateRef
from repro.errors import MalformedTraceError
from repro.store.trace_store import TraceStore
from repro.trace.deposet import Deposet

__all__ = ["ComputationBuilder", "PendingMessage"]


@dataclass
class PendingMessage:
    """Handle returned by :meth:`ComputationBuilder.send`."""

    src: StateRef
    payload: Any = None
    tag: Optional[str] = None
    delivered: bool = field(default=False, compare=False)


class ComputationBuilder:
    """Incrementally build a :class:`~repro.trace.deposet.Deposet`.

    Parameters
    ----------
    n:
        Number of processes.
    names:
        Optional process names.
    start_vars:
        Optional initial variable assignment per process (each process's
        start state); defaults to empty assignments.
    """

    def __init__(
        self,
        n: int,
        names: Optional[Sequence[str]] = None,
        start_vars: Optional[Sequence[Mapping[str, Any]]] = None,
    ):
        if n <= 0:
            raise MalformedTraceError(f"need at least one process, got n={n}")
        self.n = n
        self._names = list(names) if names is not None else None
        if start_vars is not None and len(start_vars) != n:
            raise MalformedTraceError(
                f"{len(start_vars)} start assignments for {n} processes"
            )
        self._store = TraceStore(
            n,
            start_vars=[dict(v) for v in start_vars] if start_vars is not None else None,
            proc_names=names,
        )
        self._labels: Dict[str, StateRef] = {}
        self._pending: List[PendingMessage] = []

    # -- events ------------------------------------------------------------

    @property
    def store(self) -> TraceStore:
        """The underlying append-only trace store."""
        return self._store

    def _check_proc(self, proc: int) -> None:
        if not (0 <= proc < self.n):
            raise MalformedTraceError(f"no process {proc}")

    def local(self, proc: int, **updates: Any) -> StateRef:
        """Append a local event to ``proc``; returns the new state."""
        self._check_proc(proc)
        return self._store.append_state(proc, updates)

    def send(
        self,
        proc: int,
        payload: Any = None,
        tag: Optional[str] = None,
        **updates: Any,
    ) -> PendingMessage:
        """Append a send event to ``proc``; deliver later with :meth:`receive`."""
        self._check_proc(proc)
        src = StateRef(proc, self._store.state_counts[proc] - 1)
        self._store.append_state(proc, updates)
        pending = PendingMessage(src=src, payload=payload, tag=tag)
        self._pending.append(pending)
        return pending

    def receive(
        self, proc: int, message: PendingMessage, **updates: Any
    ) -> StateRef:
        """Append a receive event for a previously-sent message."""
        self._check_proc(proc)
        if message.delivered:
            raise MalformedTraceError("message already delivered")
        dst = self._store.append_state(
            proc, updates,
            received_from=message.src, payload=message.payload, tag=message.tag,
        )
        message.delivered = True
        return dst

    def transfer(
        self,
        src_proc: int,
        dst_proc: int,
        payload: Any = None,
        tag: Optional[str] = None,
        **updates: Any,
    ) -> StateRef:
        """Shorthand: ``send`` immediately followed by the matching ``receive``.

        Variable updates apply to the *receiver*.
        """
        return self.receive(dst_proc, self.send(src_proc, payload, tag), **updates)

    # -- labels --------------------------------------------------------------

    def mark(self, proc: int, label: str) -> StateRef:
        """Attach ``label`` to the current (latest) state of ``proc``."""
        self._check_proc(proc)
        ref = StateRef(proc, self._store.state_counts[proc] - 1)
        self._labels[label] = ref
        return ref

    @property
    def labels(self) -> Dict[str, StateRef]:
        """Labels attached via :meth:`mark` (shared mapping)."""
        return self._labels

    def at(self, proc: int) -> StateRef:
        """The current (latest) state of ``proc``."""
        self._check_proc(proc)
        return StateRef(proc, self._store.state_counts[proc] - 1)

    # -- finalisation ----------------------------------------------------------

    def build(self, allow_undelivered: bool = False) -> Deposet:
        """Produce the deposet.

        Raises :class:`MalformedTraceError` if messages remain undelivered,
        unless ``allow_undelivered`` -- the paper's model has reliable
        channels, so a trace normally contains no lost messages.
        """
        undelivered = [p for p in self._pending if not p.delivered]
        if undelivered and not allow_undelivered:
            raise MalformedTraceError(
                f"{len(undelivered)} message(s) sent but never received "
                f"(first from {undelivered[0].src!r}); pass "
                f"allow_undelivered=True to model message loss"
            )
        return self._store.snapshot()
