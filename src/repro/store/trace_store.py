"""Append-only trace storage: the one store class of the trace stack.

A :class:`TraceStore` accumulates a distributed computation as it happens:
per-process columns of variable assignments (and optional timestamps),
plus message and control arrows that remain appendable after construction.
It maintains a live :class:`~repro.store.index.CausalIndex` in lockstep,
so causal queries are always available over the current prefix -- this is
what streaming ingestion (``repro ingest`` / ``repro watch``) and the
simulator's recorder write into.

Storage engines
---------------
``TraceStore(n, ...)`` is the columnar in-memory engine.
:meth:`TraceStore.open` is the one opener by ``--store`` target:
``"memory"`` builds the same in-memory store, ``"sqlite:trace.db"``
returns a :class:`~repro.storage.sqlite.SqliteStore`, the subclass that
persists the computation as an immutable, CRC-checked commit chain with
branch/copy-on-write semantics, paging variable columns through a
bounded LRU cache so traces larger than RAM stream in and out.

Every model rule -- D1--D3 validation (judged by
:mod:`repro.causality.axioms`, with lint's rule and text),
message/control bookkeeping, control-arrow dedup, epoch bumps, the live
causal index -- is implemented here once.  The subclass overrides only
the storage primitives (where a state's variables live:
:meth:`_push_state`, :meth:`_push_arrow`, the reads and the packed
columns) and the chain verbs, so the engines agree by construction; the
hypothesis suite in ``tests/storage/`` checks it.
The commit-chain verbs (:meth:`commit`, :meth:`branch`, :attr:`head`)
are no-ops/``None`` on the in-memory engine.

Append discipline
-----------------
* :meth:`append_state` -- one event in causal delivery order.  When the
  event is a receive, pass ``received_from`` so the message arrow joins at
  append time (O(n)); the message is judged as a streamed record (T009
  before T005/T006) and D3 (T004) is enforced here.
* :meth:`append_controls` -- a batch of control arrows between existing
  states (:meth:`append_control` is the one-arrow form); one propagation
  updates the union of the targets' downstream cones, all or nothing.
  Bumps :attr:`epoch` (arrows rewrite the causal past, so incremental
  detectors must re-examine earlier conclusions).
* :meth:`snapshot` -- an immutable :class:`~repro.trace.deposet.Deposet`
  view over the current prefix, sharing columns and a frozen index with
  the store (no copies of variable dicts, no clock rebuild).

The view layer (``Deposet``) stays the universal currency of the library;
the store is how one *grows*.
"""

from __future__ import annotations

import copy
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.causality.axioms import (
    MESSAGE, arrow_problems, axiom_error, d3_problem, d3_problems,
)
from repro.causality.relations import Arrow, EventRef, StateRef
from repro.errors import (
    MalformedTraceError,
    StorageError,
    UnknownFreezeFormatError,
)
from repro.obs.metrics import METRICS
from repro.store.columns import ColumnBlock, pack_block
from repro.store.index import CausalIndex
from repro.trace.states import MessageArrow

__all__ = [
    "TraceStore",
    "iter_delivery_events",
    "parse_store_target",
    "split_store_branch",
    "FREEZE_FORMAT",
]

ControlArrow = Tuple[StateRef, StateRef]

#: version tag of :meth:`TraceStore.freeze` payloads
FREEZE_FORMAT = "repro-freeze/1"

_STATES = METRICS.counter("store.states")
_MESSAGES = METRICS.counter("store.messages")
_CONTROL = METRICS.counter("store.control_arrows")
_SNAPSHOTS = METRICS.counter("store.snapshots")


def parse_store_target(target: str) -> Tuple[str, Optional[str]]:
    """Split a ``--store`` target into ``(scheme, path)``.

    ``"memory"`` (or ``"mem"``) selects the in-memory engine;
    ``"sqlite:PATH"`` selects the durable engine at ``PATH``.  A bare
    path with no scheme is rejected rather than guessed -- the CLI wants
    the user to say which engine they mean.
    """
    if target in ("memory", "mem"):
        return "memory", None
    scheme, sep, path = target.partition(":")
    if sep and scheme == "sqlite":
        if not path:
            raise StorageError("sqlite store target needs a path: sqlite:PATH")
        return "sqlite", path
    raise StorageError(
        f"unknown store target {target!r}; use 'memory' or 'sqlite:PATH'"
    )


def split_store_branch(target: str) -> Tuple[str, Optional[str]]:
    """Split ``sqlite:PATH[@branch]`` into ``(target, branch)``.

    The branch suffix is optional; ``branch`` is ``None`` when absent.
    The *last* ``@`` wins, so paths containing ``@`` need an explicit
    branch suffix to disambiguate.
    """
    head, sep, tail = target.rpartition("@")
    if sep and head and "/" not in tail and ":" not in tail:
        return head, tail
    return target, None


class TraceStore:
    """Append-only storage for one distributed computation.

    Parameters
    ----------
    n:
        Number of processes.
    start_vars:
        Initial variable assignment per process (defaults to empty).
    proc_names:
        Optional human-readable names (defaults to ``P0..P{n-1}``).
    start_times:
        Per-process start timestamps (or one scalar for all).  When given,
        the store tracks a timestamp column and snapshots carry it.

    The constructor builds an in-memory store; see :meth:`open` for the
    durable engine.
    """

    #: engine family name (``"memory"`` / ``"sqlite"``), for messages
    kind = "memory"
    #: head commit id and branch of the commit chain (``None``: no chain)
    head: Optional[int] = None
    branch_name: Optional[str] = None

    def __init__(
        self,
        n: int,
        start_vars: Optional[Sequence[Dict[str, Any]]] = None,
        proc_names: Optional[Sequence[str]] = None,
        start_times: Optional[Sequence[float] | float] = None,
    ):
        if n <= 0:
            raise MalformedTraceError(f"need at least one process, got n={n}")
        if proc_names is not None and len(proc_names) != n:
            raise MalformedTraceError(f"{len(proc_names)} names for {n} processes")
        if start_vars is not None and len(start_vars) != n:
            raise MalformedTraceError(
                f"{len(start_vars)} start assignments for {n} processes"
            )
        if start_times is not None and isinstance(start_times, (int, float)):
            start_times = [float(start_times)] * n
        if start_times is not None and len(start_times) != n:
            raise MalformedTraceError(
                f"{len(start_times)} start times for {n} processes"
            )
        self.n = n
        self.proc_names: Tuple[str, ...] = (
            tuple(proc_names) if proc_names is not None
            else tuple(f"P{i}" for i in range(n))
        )
        #: per-process variable dicts held in memory: the whole column
        #: here, the uncommitted tail on the SQLite engine
        self._vars: List[List[Dict[str, Any]]] = [
            [dict(start_vars[i]) if start_vars is not None else {}]
            for i in range(n)
        ]
        self._times: Optional[List[List[float]]] = (
            [[float(t)] for t in start_times] if start_times is not None
            else None
        )
        self._messages: List[MessageArrow] = []
        self._control: List[ControlArrow] = []
        self._control_set: set = set()
        # D3 bookkeeping: which events already carry a message.
        self._used_events: Dict[EventRef, MessageArrow] = {}
        #: the live causal index over the current prefix (do not mutate)
        self.index = CausalIndex([1] * n)
        # Packed variable columns, keyed (proc, names, prefix length);
        # shared with every snapshot.
        self._column_cache: Dict[Tuple[int, Tuple[str, ...], int], ColumnBlock] = {}
        #: bumped whenever an arrow lands between *existing* states --
        #: consumers holding incremental conclusions must re-derive them.
        self.epoch = 0
        self.obs: Any = None

    @classmethod
    def open(
        cls,
        target: str,
        *,
        n: Optional[int] = None,
        start_vars: Optional[Sequence[Dict[str, Any]]] = None,
        proc_names: Optional[Sequence[str]] = None,
        start_times: Optional[Sequence[float] | float] = None,
        **kwargs: Any,
    ) -> "TraceStore":
        """Open (or create) a store by ``--store`` target string.

        ``"memory"`` needs the shape (``n=...``).  ``"sqlite:PATH"``
        reopens an existing commit chain at ``branch`` (default ``main``;
        see :class:`~repro.storage.sqlite.SqliteStore` for the other
        keywords) or, given the shape, creates one.  A shaped open is a
        create: it refuses a database that already holds a trace body.
        """
        scheme, path = parse_store_target(target)
        if scheme == "sqlite":
            from repro.storage.sqlite import SqliteStore

            return SqliteStore.open_path(
                path, n=n, start_vars=start_vars, proc_names=proc_names,
                start_times=start_times, **kwargs,
            )
        if n is None:
            raise StorageError("a fresh memory store needs the process count")
        return TraceStore(n, start_vars, proc_names, start_times)

    # -- shape --------------------------------------------------------------

    @property
    def state_counts(self) -> Tuple[int, ...]:
        return self.index.state_counts

    @property
    def num_states(self) -> int:
        return sum(self.state_counts)

    @property
    def messages(self) -> Tuple[MessageArrow, ...]:
        return tuple(self._messages)

    @property
    def control_arrows(self) -> Tuple[ControlArrow, ...]:
        return tuple(self._control)

    # -- reads (the SQLite engine overrides the variable reads) -------------

    def state_vars(self, ref: StateRef | Tuple[int, int]) -> Dict[str, Any]:
        """The variable assignment of a local state (do not mutate)."""
        proc, index = ref
        return self._vars[proc][index]

    def latest_vars(self, proc: int) -> Dict[str, Any]:
        return self._vars[proc][-1]

    def vars_prefix(self, proc: int) -> Tuple[Dict[str, Any], ...]:
        """All of ``proc``'s variable assignments, materialised."""
        return tuple(self._vars[proc])

    def column_block(self, proc: int, names: Sequence[str]) -> ColumnBlock:
        """Packed columns of ``proc``'s current state prefix (cached).

        Detection over snapshots hits the same cache (snapshots share the
        store's cache dict), so repeated detect calls over a growing trace
        pay one pack per (variable set, prefix length).  State dicts are
        append-only, so a block packed for one prefix stays valid forever.
        """
        states = self._vars[proc]
        key = (proc, tuple(names), len(states))
        block = self._column_cache.get(key)
        if block is None:
            block = pack_block(states[: key[2]], key[1])
            self._column_cache[key] = block
        return block

    def state_time(self, ref: StateRef | Tuple[int, int]) -> Optional[float]:
        if self._times is None:
            return None
        proc, index = ref
        return self._times[proc][index]

    def times_prefix(self, proc: int) -> Optional[Tuple[float, ...]]:
        """All timestamps of one process (``None``: untimed trace)."""
        if self._times is None:
            return None
        return tuple(self._times[proc])

    def snapshot_cache(self) -> Dict[Any, Any]:
        """The packed-column cache dict a snapshot should share."""
        return self._column_cache

    # -- appends ------------------------------------------------------------

    def append_state(
        self,
        proc: int,
        updates: Optional[Dict[str, Any]] = None,
        *,
        vars: Optional[Dict[str, Any]] = None,
        time: Optional[float] = None,
        received_from: Optional[StateRef | Tuple[int, int]] = None,
        payload: Any = None,
        tag: Optional[str] = None,
    ) -> StateRef:
        """One event of ``proc``; the process enters a new state.

        ``updates`` overlay the previous state's variables; ``vars``
        replaces the assignment wholesale (needed when a key disappears).
        When the event is a message receive, pass ``received_from`` (the
        sender's pre-send state): the message arrow joins the index during
        the O(n) append instead of a later cone recompute, and D3 is
        checked.  Returns the entered state.
        """
        if not (0 <= proc < self.n):
            raise MalformedTraceError(f"no process {proc}")
        if vars is not None:
            new_vars = dict(vars)
        else:
            new_vars = dict(self.latest_vars(proc))
            new_vars.update(updates or {})
        counts = self.index.state_counts
        entered = StateRef(proc, counts[proc])
        after = counts[:proc] + (entered.index + 1,) + counts[proc + 1 :]
        src = None
        if received_from is not None:
            msg = MessageArrow(received_from, entered, payload=payload, tag=tag)
            src = msg.src
            problems = arrow_problems(MESSAGE, src, entered, after,
                                      streamed=True)
            if problems:
                raise axiom_error(problems[0])
            # D3: the receive event is new, so only the send can clash.
            if src in self._used_events:
                raise axiom_error(d3_problem(src, self._used_events[src], msg))
        self.index._append(entered, () if src is None else (src,), after)
        self._push_state(proc, new_vars, time, src, payload, tag)
        if self._times is not None:
            self._times[proc].append(
                float(time) if time is not None else self._times[proc][-1]
            )
        if src is not None:
            self._add_message(msg)
            _MESSAGES.inc()
        _STATES.inc()
        return entered

    def append_message(
        self,
        src: StateRef | Tuple[int, int],
        dst: StateRef | Tuple[int, int],
        payload: Any = None,
        tag: Optional[str] = None,
    ) -> MessageArrow:
        """Attach a message arrow between two *existing* states.

        Compatibility path for writers that only learn the receive state
        after recording it; costs a cone recompute where
        ``append_state(received_from=...)`` costs O(n).  Bumps
        :attr:`epoch`.
        """
        msg = MessageArrow(src, dst, payload=payload, tag=tag)
        problems = arrow_problems(MESSAGE, msg.src, msg.dst, self.state_counts)
        if problems:
            raise axiom_error(problems[0])
        clashes = d3_problems(self._used_events, msg)
        if clashes:
            raise axiom_error(clashes[0][0])
        self.index.insert_arrows([(msg.src, msg.dst)])
        self._add_message(msg)
        self.epoch += 1
        _MESSAGES.inc()
        self._push_arrow(msg)
        return msg

    def append_control(
        self, src: StateRef | Tuple[int, int], dst: StateRef | Tuple[int, int]
    ) -> ControlArrow:
        """Insert one control arrow between existing states (deduped);
        see :meth:`append_controls`."""
        arrow = (StateRef(*src), StateRef(*dst))
        self.append_controls([arrow])
        return arrow

    def append_controls(
        self, arrows: Iterable[Tuple[StateRef | Tuple[int, int],
                                     StateRef | Tuple[int, int]]]
    ) -> List[ControlArrow]:
        """Insert control arrows between existing states, as one batch.

        Arrows already recorded as control (or repeated in the batch) are
        skipped: a duplicate adds no causality.  The batch costs one
        propagation over the union of the new arrows' downstream cones and
        is all or nothing: a bad endpoint raises
        :class:`~repro.errors.MalformedTraceError`, and arrows that
        interfere with the recorded causality (or with each other) raise
        :class:`~repro.causality.relations.CycleError`, both leaving the
        store exactly as it was.  Bumps :attr:`epoch` once per new arrow
        and returns the new arrows.
        """
        fresh: List[ControlArrow] = []
        batch: set = set()
        for a, b in arrows:
            arrow = (StateRef(*a), StateRef(*b))
            if arrow not in self._control_set and arrow not in batch:
                batch.add(arrow)
                fresh.append(arrow)
        if not fresh:
            return fresh
        # The index also dedupes against message arrows with the same
        # endpoints (the edge already exists; the *role* is still recorded).
        self.index.insert_arrows(fresh)
        for arrow in fresh:
            self._add_control(arrow)
            self._push_arrow(arrow)
        self.epoch += len(fresh)
        _CONTROL.inc(len(fresh))
        return fresh

    def _add_message(self, msg: MessageArrow) -> None:
        self._messages.append(msg)
        self._used_events[(msg.src.proc, msg.src.index)] = msg
        self._used_events[(msg.dst.proc, msg.dst.index - 1)] = msg

    def _add_control(self, arrow: ControlArrow) -> None:
        self._control.append(arrow)
        self._control_set.add(arrow)

    # -- storage primitives (the SQLite engine also journals them) ----------

    def _push_state(self, proc: int, vars: Dict[str, Any],
                    time: Optional[float], src: Optional[StateRef],
                    payload: Any, tag: Optional[str]) -> None:
        """Keep one appended state's variables (model rules already done)."""
        self._vars[proc].append(vars)

    def _push_arrow(self, arrow: MessageArrow | ControlArrow) -> None:
        """Keep one arrow inserted between existing states.

        The in-memory columns already hold it; a durable engine journals it.
        """

    # -- the commit chain ----------------------------------------------------

    def commit(self, kind: str = "append", message: Optional[str] = None,
               meta: Optional[Dict[str, Any]] = None) -> Optional[int]:
        """Persist appends since the last commit.

        Returns the new head commit id (the current head when nothing
        changed), or ``None`` on the in-memory engine, which has no chain
        and nothing to persist.  Engines with a chain write it in
        ``_commit``; every commit, the ones :meth:`branch` makes included,
        goes through this method, so wrapping ``TraceStore.commit`` times
        all of them.
        """
        if self.branch_name is None:
            return None
        return self._commit(kind, message, meta)

    def branch(self, name: str) -> "TraceStore":
        """A copy-on-write fork of the current state under ``name``.

        In memory the fork gets its own column and arrow lists (O(states)
        pointer copies) and shares every variable dict and arrow.  The
        two causal indexes share their clock rows copy-on-write: each side
        copies a process's rows the first time it appends to or rewrites
        them, so appends to the fork never touch this store and the fork
        costs no propagation.  The SQLite engine forks the same way after
        committing pending appends.
        """
        fork = copy.copy(self)
        fork._vars = [list(col) for col in self._vars]
        if self._times is not None:
            fork._times = [list(col) for col in self._times]
        fork._column_cache = dict(self._column_cache)
        fork._messages = list(self._messages)
        fork._control = list(self._control)
        fork._control_set = set(self._control_set)
        fork._used_events = dict(self._used_events)
        fork.index = self.index._clone_shared(appendable=True)
        return fork

    def close(self) -> None:
        """Release the engine's resources (a no-op in memory)."""

    # -- snapshots ----------------------------------------------------------

    def snapshot(self, proc_names: Optional[Sequence[str]] = None) -> "Deposet":
        """An immutable :class:`Deposet` view of the current prefix.

        Shares variable dicts and clock rows with the store (copy-on-write
        protects them from later arrow inserts); later appends extend the
        store without touching the snapshot.
        """
        from repro.trace.deposet import Deposet

        _SNAPSHOTS.inc()
        return Deposet._from_store(self, proc_names=proc_names)

    # -- durable state capture ----------------------------------------------

    def freeze(self) -> Dict[str, Any]:
        """The store's full state as one JSON-serializable dict.

        Everything :meth:`restore` needs to rebuild an equivalent store --
        columns, arrows, epoch -- with no live index internals (the index
        is re-derived on restore, so the wire format stays stable across
        index implementations).  Payloads carry ``format``
        (:data:`FREEZE_FORMAT`) so an incompatible build fails with a
        typed :class:`~repro.errors.UnknownFreezeFormatError` instead of
        an opaque ``KeyError``.  This is the checkpoint payload of the
        serving layer's durability machinery (``docs/ROBUSTNESS.md``);
        payloads/tags must be JSON-serializable, which holds for every
        store fed from a ``repro-events/1`` stream.
        """
        return {
            "format": FREEZE_FORMAT,
            "n": self.n,
            "proc_names": list(self.proc_names),
            "vars": [[dict(v) for v in self.vars_prefix(i)]
                     for i in range(self.n)],
            "times": (
                [list(self.times_prefix(i)) for i in range(self.n)]
                if self._times is not None else None
            ),
            "messages": [
                {
                    "src": [m.src.proc, m.src.index],
                    "dst": [m.dst.proc, m.dst.index],
                    "payload": m.payload,
                    "tag": m.tag,
                }
                for m in self._messages
            ],
            "control": [
                [[a.proc, a.index], [b.proc, b.index]]
                for a, b in self._control
            ],
            "epoch": self.epoch,
            "obs": self.obs,
        }

    @classmethod
    def restore(cls, state: Dict[str, Any]) -> "TraceStore":
        """Rebuild an in-memory store from a :meth:`freeze` payload.

        The causal index is rebuilt batch-style over the restored counts
        and arrows, so the result answers every causal query identically
        to the frozen original (same clocks, same epoch, same D3
        bookkeeping) and remains appendable.  Payloads without a
        ``format`` field are accepted as the legacy (pre-versioned)
        layout; an unknown format raises
        :class:`~repro.errors.UnknownFreezeFormatError`.
        """
        fmt = state.get("format")
        if fmt is not None and fmt != FREEZE_FORMAT:
            raise UnknownFreezeFormatError(
                f"cannot restore freeze payload of format {fmt!r}; this "
                f"build understands {FREEZE_FORMAT!r} (and legacy payloads "
                f"with no format field)"
            )
        n = int(state["n"])
        vars_cols = state["vars"]
        store = TraceStore(
            n,
            start_vars=[col[0] for col in vars_cols],
            proc_names=state.get("proc_names"),
            start_times=(
                [col[0] for col in state["times"]]
                if state.get("times") is not None else None
            ),
        )
        store._vars = [[dict(v) for v in col] for col in vars_cols]
        if state.get("times") is not None:
            store._times = [list(map(float, col)) for col in state["times"]]
        arrows: List[Arrow] = []
        for m in state.get("messages", ()):
            msg = MessageArrow(StateRef(*m["src"]), StateRef(*m["dst"]),
                               payload=m.get("payload"), tag=m.get("tag"))
            store._add_message(msg)
            arrows.append((msg.src, msg.dst))
        for a, c in state.get("control", ()):
            arrow = (StateRef(*a), StateRef(*c))
            store._add_control(arrow)
            arrows.append(arrow)
        store.index = CausalIndex([len(col) for col in vars_cols], arrows)
        store.epoch = int(state.get("epoch", 0))
        store.obs = state.get("obs")
        return store

    # -- bulk construction ---------------------------------------------------

    @classmethod
    def from_deposet(cls, dep: "Deposet", target: str = "memory") -> "TraceStore":
        """Replay an existing deposet through the incremental path.

        Events are fed in a causal delivery order (see
        :func:`iter_delivery_events`), so the resulting store -- columns,
        arrows, and live index -- is equivalent to the batch-built ``dep``.
        ``target`` names the engine as in :meth:`open`; a ``sqlite:PATH``
        target must be a fresh database (see :meth:`open`).
        """
        ts = dep.timestamps
        store = cls.open(
            target,
            n=dep.n,
            start_vars=[dep.state_vars((i, 0)) for i in range(dep.n)],
            proc_names=dep.proc_names,
            start_times=[row[0] for row in ts] if ts is not None else None,
        )
        for proc, entered, msg, ctls in iter_delivery_events(dep):
            time = ts[proc][entered] if ts is not None else None
            if msg is not None:
                store.append_state(
                    proc,
                    vars=dep.state_vars((proc, entered)),
                    time=time,
                    received_from=msg.src,
                    payload=msg.payload,
                    tag=msg.tag,
                )
            else:
                store.append_state(
                    proc, vars=dep.state_vars((proc, entered)), time=time
                )
            store.append_controls(ctls)
        return store

    def __repr__(self) -> str:
        ctrl = (
            f", control={len(self._control)}" if self._control else ""
        )
        chain = (
            f", branch={self.branch_name!r}@{self.head}"
            if self.branch_name is not None else ""
        )
        return (
            f"TraceStore[{self.kind}](n={self.n}, "
            f"states={self.state_counts}, messages={len(self._messages)}"
            f"{ctrl}{chain}, epoch={self.epoch})"
        )


def iter_delivery_events(
    dep: "Deposet",
) -> Iterator[Tuple[int, int, Optional[MessageArrow], Tuple[ControlArrow, ...]]]:
    """Linearise ``dep``'s events into a causal delivery order.

    Yields ``(proc, entered_state_index, message_or_None, control_arrows)``
    such that every arrow source event (message *and* control) is emitted
    before its target event, and control arrows are reported with the
    event entering their target state.  This is the order in which a
    streaming writer must emit records and a :class:`TraceStore` can
    ingest them with O(n) appends.
    """
    counts = dep.state_counts
    n = dep.n
    recv: Dict[EventRef, MessageArrow] = {}
    gates: Dict[EventRef, List[EventRef]] = {}
    for msg in dep.messages:
        recv_ev = (msg.dst.proc, msg.dst.index - 1)
        recv[recv_ev] = msg
        gates.setdefault(recv_ev, []).append((msg.src.proc, msg.src.index))
    ctl_after: Dict[Tuple[int, int], List[ControlArrow]] = {}
    for a, b in dep.control_arrows:
        gates.setdefault((b.proc, b.index - 1), []).append((a.proc, a.index))
        ctl_after.setdefault((b.proc, b.index), []).append((a, b))
    emitted = [0] * n
    remaining = sum(counts) - n
    while remaining:
        progressed = False
        for i in range(n):
            while emitted[i] < counts[i] - 1:
                ev = (i, emitted[i])
                if any(f >= emitted[q] for q, f in gates.get(ev, ())):
                    break  # some arrow source has not completed yet
                entered = emitted[i] + 1
                yield i, entered, recv.get(ev), tuple(ctl_after.get((i, entered), ()))
                emitted[i] = entered
                remaining -= 1
                progressed = True
        if remaining and not progressed:  # pragma: no cover - dep.order is acyclic
            raise MalformedTraceError("deposet admits no causal delivery order")
