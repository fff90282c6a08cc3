"""Incremental conjunctive detection over a growing :class:`TraceStore`.

``repro watch`` streams a trace in and wants, after every record, the
answer batch detection would give on the prefix so far: *is there a
consistent global state violating the disjunctive predicate?*  Re-running
:func:`~repro.detection.conjunctive.possibly_bad` per record is
quadratic in the trace length; this module keeps the Garg-Waldecker
candidate-elimination state alive between polls instead.

Why this is sound incrementally:

* **Appends are monotone.**  A new event never adds causality between
  *existing* states, so every elimination made so far ("state ``(i, a)``
  is causally below some candidate and can be in no witness cut") stays
  valid; new states only extend the per-process candidate lists.
* **Exhaustion is "pending", not "no".**  Batch GW returns *no witness*
  when a process runs out of false candidates; a streaming process may
  produce its first false state in the next record, so the detector
  parks the elimination (the dirty queue persists) and resumes when a
  candidate appears.
* **Arrow inserts rewrite the past.**  A control or late message arrow
  adds causality between existing states, which can invalidate a found
  witness.  :class:`~repro.store.TraceStore` bumps :attr:`epoch` on such
  inserts; the detector then resets its pointers and re-eliminates
  (counted in ``detection.incremental.resets``).  Local truth values are
  never recomputed -- variables are immutable once appended.

The witness returned is the *least* violating cut, identical to the one
:func:`possibly_bad` computes on a snapshot of the same prefix (the set
of consistent violating cuts is a lattice; its bottom is unique), which
is what ``repro watch --verify`` checks.  At end of stream
:meth:`IncrementalDetector.finalize` adds *definitely* from the paper's
Figure 2, which is polynomial, so every final verdict carries it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from repro.core.offline import control_disjunctive
from repro.errors import NoControllerExistsError
from repro.obs.metrics import METRICS
from repro.predicates.base import Predicate
from repro.predicates.disjunctive import DisjunctivePredicate, as_disjunctive
from repro.predicates.intervals import FalseInterval
from repro.store.trace_store import TraceStore

__all__ = ["IncrementalDetector", "WatchResult"]

Cut = Tuple[int, ...]

_POLLS = METRICS.counter("detection.incremental.polls")
_SUFFIX = METRICS.counter("detection.incremental.suffix_states")
_RESETS = METRICS.counter("detection.incremental.resets")


@dataclass(frozen=True)
class WatchResult:
    """Final verdict of a watch run (see :meth:`IncrementalDetector.finalize`).

    ``witness`` is the least consistent cut violating the predicate
    (``None``: the predicate holds in every consistent global state of
    the final prefix).  ``definitely`` answers the stronger question --
    does *every* execution pass through a violating state, i.e. does no
    controller exist -- and ``obstruction`` then holds the Lemma 2
    overlapping set of false-intervals, one per process, that proves it.
    ``pending`` lists the processes whose false candidates were all
    eliminated (or that had none) when the search parked: non-empty
    exactly when there is no witness.  Which processes it names depends
    on the elimination order, so a pending process may well have false
    states.
    """

    witness: Optional[Cut]
    definitely: bool = False
    pending: Tuple[int, ...] = field(default=())
    obstruction: Optional[Tuple[FalseInterval, ...]] = None


class IncrementalDetector:
    """Poll-based *possibly(not B)* over an append-only store.

    Parameters
    ----------
    store:
        The :class:`TraceStore` being written (by streaming ingestion or
        a live recorder).  The detector only reads it.
    pred:
        The disjunctive safety predicate ``B`` (anything
        :func:`~repro.predicates.disjunctive.as_disjunctive` accepts).
        A violation is a consistent cut where **every** disjunct is
        false.

    Call :meth:`poll` whenever the store may have grown; it returns the
    current witness cut or ``None`` and only pays for the new suffix
    (plus a bounded amount of re-elimination after arrow inserts).
    """

    def __init__(self, store: TraceStore, pred: Predicate):
        self._store = store
        self._pred: DisjunctivePredicate = as_disjunctive(pred, store.n)
        self.n = store.n
        self._locals = [self._pred.local(i) for i in range(self.n)]
        #: per process: state indices where the disjunct is false, in order
        self._positions: List[List[int]] = [[] for _ in range(self.n)]
        self._scanned = [0] * self.n  # states whose truth value is known
        self._ptr = [0] * self.n      # first not-yet-eliminated candidate
        self._dirty: Deque[int] = deque(range(self.n))
        self._in_dirty = [True] * self.n
        self._epoch = store.epoch
        self._witness: Optional[Cut] = None

    @property
    def predicate(self) -> DisjunctivePredicate:
        return self._pred

    @property
    def witness(self) -> Optional[Cut]:
        """The witness from the last :meth:`poll` (no recomputation)."""
        return self._witness

    @property
    def pending_procs(self) -> Tuple[int, ...]:
        """Processes with no remaining false candidate: as long as this is
        non-empty, no violation exists in the current prefix."""
        return tuple(
            i for i in range(self.n)
            if self._ptr[i] >= len(self._positions[i])
        )

    # -- incremental steps ---------------------------------------------------

    def _reset(self) -> None:
        # Arrow inserts only *add* causality, so old eliminations are in
        # fact still sound; resetting the pointers anyway keeps the "least
        # witness" guarantee trivially aligned with the batch detector.
        _RESETS.inc()
        self._epoch = self._store.epoch
        self._ptr = [0] * self.n
        self._witness = None
        self._dirty = deque(range(self.n))
        self._in_dirty = [True] * self.n

    def _scan(self) -> None:
        """Classify states appended since the last poll."""
        counts = self._store.state_counts
        for i in range(self.n):
            m = counts[i]
            if self._scanned[i] >= m:
                continue
            positions = self._positions[i]
            was_exhausted = self._ptr[i] >= len(positions)
            local = self._locals[i]
            for a in range(self._scanned[i], m):
                if local is None or not local.holds_at(self._store, a):
                    positions.append(a)
            _SUFFIX.inc(m - self._scanned[i])
            self._scanned[i] = m
            if (
                was_exhausted
                and self._ptr[i] < len(positions)
                and not self._in_dirty[i]
            ):
                # a parked elimination can resume through this process
                self._dirty.append(i)
                self._in_dirty[i] = True

    def _eliminate(self) -> Optional[Cut]:
        positions, ptr = self._positions, self._ptr
        for i in range(self.n):
            if ptr[i] >= len(positions[i]):
                return None  # pending: process i has no false candidate yet
        dirty, in_dirty = self._dirty, self._in_dirty
        order = self._store.index
        hb = order.happened_before
        while dirty:
            i = dirty.popleft()
            in_dirty[i] = False
            advanced_any = False
            for j in range(self.n):
                if j == i:
                    continue
                while True:
                    ci, cj = positions[i][ptr[i]], positions[j][ptr[j]]
                    if hb((i, ci), (j, cj)):
                        loser = i
                    elif hb((j, cj), (i, ci)):
                        loser = j
                    else:
                        break
                    ptr[loser] += 1
                    if not in_dirty[loser]:
                        dirty.append(loser)
                        in_dirty[loser] = True
                    advanced_any = True
                    if ptr[loser] >= len(positions[loser]):
                        # Park: future states of `loser` may revive the
                        # search.  `i`'s remaining pairs have not been
                        # checked -- keep it queued.
                        if not in_dirty[i]:
                            dirty.appendleft(i)
                            in_dirty[i] = True
                        return None
            if advanced_any and not in_dirty[i]:
                dirty.append(i)  # i advanced; recheck it against everyone
                in_dirty[i] = True
        return tuple(positions[i][ptr[i]] for i in range(self.n))

    def poll(self) -> Optional[Cut]:
        """The least consistent cut violating the predicate in the current
        prefix, or ``None`` (holds so far / pending candidates)."""
        _POLLS.inc()
        if self._store.epoch != self._epoch:
            self._reset()
        if self._witness is not None:
            return self._witness  # appends cannot invalidate a witness
        self._scan()
        self._witness = self._eliminate()
        return self._witness

    # -- durable state capture -----------------------------------------------

    def snapshot(self) -> dict:
        """The detector's elimination state as a JSON-serializable dict.

        Captures everything :meth:`poll` has derived from the store so far
        (candidate positions, elimination pointers, the dirty queue, the
        current witness) so a :meth:`restore` over an equivalently-restored
        store resumes mid-stream without rescanning the prefix.  The store
        itself is *not* captured -- pair this with
        :meth:`TraceStore.freeze` (the serving checkpoint does).
        """
        return {
            "positions": [list(p) for p in self._positions],
            "scanned": list(self._scanned),
            "ptr": list(self._ptr),
            "dirty": list(self._dirty),
            "epoch": self._epoch,
            "witness": list(self._witness) if self._witness is not None else None,
        }

    @classmethod
    def restore(cls, store: TraceStore, pred: Predicate,
                state: dict) -> "IncrementalDetector":
        """Rebuild a detector over ``store`` from a :meth:`snapshot`.

        ``store`` must hold (at least) the prefix the snapshot was taken
        over and ``pred`` must be the same predicate; subsequent
        :meth:`poll` calls then behave exactly as the original's would
        have (pinned by tests/serve/test_durability.py).
        """
        det = cls(store, pred)
        det._positions = [list(p) for p in state["positions"]]
        det._scanned = list(state["scanned"])
        det._ptr = list(state["ptr"])
        det._dirty = deque(state["dirty"])
        det._in_dirty = [False] * det.n
        for i in det._dirty:
            det._in_dirty[i] = True
        det._epoch = int(state["epoch"])
        det._witness = (
            tuple(state["witness"]) if state["witness"] is not None else None
        )
        return det

    # -- finalisation --------------------------------------------------------

    def finalize(self) -> WatchResult:
        """The end-of-stream verdict, upgraded with *definitely*.

        The incremental loop answers *possibly* only; ``witness`` is this
        detector's own final poll.  When a violation is possible, the
        paper's Figure 2 (:func:`~repro.core.offline.control_disjunctive`,
        ``O(n^2 p)``) runs on a snapshot: failing to find a controller
        means every single-move execution passes through a violating
        state (``definitely``), and its witness is the ``obstruction``.
        """
        witness = self.poll()
        pending = self.pending_procs
        if witness is None:
            return WatchResult(witness=None, pending=pending)
        try:
            control_disjunctive(self._store.snapshot(), self._pred)
        except NoControllerExistsError as exc:
            return WatchResult(witness=witness, definitely=True,
                               pending=pending, obstruction=exc.witness)
        return WatchResult(witness=witness, pending=pending)
