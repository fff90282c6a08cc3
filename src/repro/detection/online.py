"""On-line (run-time) weak-conjunctive violation detection.

The passive half of the paper's debugging cycle, executed *live*: a
monitor observes a running system (via the simulator's
:class:`~repro.sim.system.Observer` hook) and detects -- while the run is
still in progress -- every consistent global state in which all local
conditions are false.  It keeps no causality of its own: it polls an
:class:`~repro.detection.incremental.IncrementalDetector` over the
recorder's store, so message and control arrows count exactly as
recorded.

The monitor is the mirror image of
:class:`~repro.core.online.OnlineDisjunctiveControl`: same per-process
local conditions, but *watching* instead of *blocking* -- run both to see
detection report nothing once control is active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.detection.incremental import IncrementalDetector
from repro.errors import OnlineControlError
from repro.predicates.disjunctive import DisjunctivePredicate
from repro.predicates.local import LocalPredicate
from repro.sim.system import Observer

__all__ = ["Violation", "ViolationMonitor"]

LocalCondition = Callable[[Dict[str, Any]], bool]


@dataclass(frozen=True)
class Violation:
    """One detected violating global state."""

    cut: Tuple[int, ...]
    detected_at: float


class ViolationMonitor(Observer):
    """Detects cuts where **every** local condition is false, on-line.

    Parameters
    ----------
    conditions:
        ``conditions[i]`` is ``l_i`` over ``P_i``'s variables; a violation
        is a consistent global state with all ``l_i`` false (the negation
        of the disjunction ``l_1 v ... v l_n``).

    After (or during) a run, ``violations`` holds the disjoint witnesses
    found, in causal order; ``first`` is the least one -- it equals
    ``possibly_bad`` on the recorded trace of the same run.
    """

    def __init__(self, conditions: List[LocalCondition]):
        self.conditions = list(conditions)
        self.n = len(conditions)
        self.violations: List[Violation] = []

    def attach(self, system) -> None:
        super().attach(system)
        if self.n != system.n:
            raise OnlineControlError(
                f"{self.n} conditions for {system.n} processes"
            )
        self._detector = self._detector_above((-1,) * self.n)
        self._poll()  # the initial cut may already violate

    @property
    def first(self) -> Optional[Tuple[int, ...]]:
        return self.violations[0].cut if self.violations else None

    def on_event(self, proc, index, vars, kind, msg_uid=None) -> None:
        self._poll()

    def _detector_above(self, floor: Tuple[int, ...]) -> IncrementalDetector:
        """A detector whose least witness is the least violating cut
        strictly above ``floor`` on every process: disjunct ``i`` also
        holds at every state ``index <= floor[i]``."""
        disjuncts = [
            LocalPredicate(
                i,
                lambda s, cond=cond, low=low: s.index <= low or bool(cond(s.vars)),
            )
            for i, (cond, low) in enumerate(zip(self.conditions, floor))
        ]
        return IncrementalDetector(
            self.system.recorder.store, DisjunctivePredicate(disjuncts, n=self.n)
        )

    def _poll(self) -> None:
        cut = self._detector.poll()
        while cut is not None:
            self.violations.append(
                Violation(cut=cut, detected_at=self.system.queue.now)
            )
            self._detector = self._detector_above(cut)
            cut = self._detector.poll()
