"""Pass 2: the control-relation analyzer (rules C101--C107).

Statically judges a recorded control relation against the underlying
computation -- before any replay is attempted:

* **C101** interference: the extended event graph is cyclic, so the
  controlled computation deadlocks on replay.  The witness is a *minimal*
  cycle (shortest event path closing through a control arrow).
* **C102/C105** hygiene: transitively redundant and duplicate arrows --
  harmless for correctness but they inflate the token traffic of a replay
  (:meth:`~repro.core.control_relation.ControlRelation.minimized` is the
  dynamic counterpart of C102).
* **C103** enforceability: an arrow whose source never completes (final
  state) or whose target is entered before anything can be waited for
  (initial state) can never be enforced by an online controller.
* **C104** Lemma 2, re-derived statically: when a (disjunctive) predicate
  is supplied, run the paper's Figure 2 (``O(n^2 p)``) on the underlying
  computation; if it finds no controller, none exists at all, and the
  witness is the overlapping set of false-intervals it stopped at.
* **C106/C107** online-control assumptions: A1 (never block a process
  where its local predicate is false) judged at each arrow's blocking
  state, and A2 (local predicates hold in final states).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.raw import RawTrace
from repro.analysis.sanitizer import (
    axiom_finding, find_event_cycle, valid_arrows,
)
from repro.causality.axioms import CONTROL, arrow_problems
from repro.causality.relations import CausalOrder, CycleError
from repro.errors import NoControllerExistsError, NotDisjunctiveError
from repro.predicates.base import Predicate
from repro.predicates.disjunctive import as_disjunctive
from repro.trace.deposet import Deposet

__all__ = ["analyze_control"]

Ref = Tuple[int, int]


def analyze_control(
    raw: RawTrace,
    dep: Deposet,
    predicate: Optional[Predicate] = None,
) -> List[Finding]:
    """Run every control-relation rule.

    ``dep`` is the validated deposet of the *underlying* computation
    (messages only, no control relation) -- the runner constructs it once
    the sanitizer reports no errors.  ``predicate`` enables the
    predicate-dependent rules (C104, C106, C107).
    """
    findings: List[Finding] = []
    counts = raw.state_counts
    msgs = [raw.messages[k].pair for k in valid_arrows(raw, raw.messages)]

    # C103: unenforceable endpoints.  Judged first; such arrows cannot
    # participate in the event graph (their events do not exist).  An
    # arrow with a missing endpoint is the sanitizer's T005.
    enforceable: List[int] = []
    for k, c in enumerate(raw.control):
        problems = arrow_problems(CONTROL, c.src, c.dst, counts)
        if not problems:
            enforceable.append(k)
        elif problems[0][0] == "C103":
            findings.append(axiom_finding(problems[0], c))

    # C105: duplicate arrows.  The first occurrence is canonical.
    seen: Dict[Tuple[Ref, Ref], int] = {}
    duplicates = set()
    for k in enforceable:
        c = raw.control[k]
        if c.pair in seen:
            first = raw.control[seen[c.pair]]
            duplicates.add(k)
            findings.append(
                Finding(
                    "C105",
                    f"control arrow ({c.src[0]},{c.src[1]}) -> "
                    f"({c.dst[0]},{c.dst[1]}) is declared twice",
                    location=c.location,
                    arrows=(c.pair,),
                    data={"other_location": first.location},
                )
            )
        else:
            seen[c.pair] = k

    unique = [k for k in enforceable if k not in duplicates]

    # C101: interference.  The control arrows extend the underlying
    # order (one propagation over their downstream cones); only when
    # that closes a cycle does the witness search run, over messages +
    # control arrows, closing only through control arrows (messages-only
    # cycles are the sanitizer's T011 and cannot occur here: the runner
    # gates this pass on a sanitizer-clean trace).
    combined = msgs + [raw.control[k].pair for k in unique]
    order: Optional[CausalOrder] = None
    cycle = None
    try:
        order = dep.base_order.extended(combined[len(msgs):])
    except CycleError:
        cycle = find_event_cycle(
            counts, combined, candidates=range(len(msgs), len(combined))
        )
    if cycle is not None:
        events, ci = cycle
        closing = raw.control[unique[ci - len(msgs)]]
        findings.append(
            Finding(
                "C101",
                f"control relation interferes with causality: waiting on "
                f"({closing.src[0]},{closing.src[1]}) -> "
                f"({closing.dst[0]},{closing.dst[1]}) closes a cycle of "
                f"{len(events)} event(s); replay would deadlock",
                location=closing.location,
                states=tuple((p, e + 1) for p, e in events),
                arrows=(closing.pair,),
                data={"cycle_events": [list(ev) for ev in events]},
            )
        )

    # C102: transitively redundant arrows -- already implied by the rest
    # of the extended relation.  Needs an acyclic relation to be
    # meaningful (an interfering relation orders everything).  The one
    # extended order answers every arrow: in that DAG an arrow is implied
    # iff another out-edge of its source reaches its target.  An arrow
    # equal to a message was not linked again; the message implies it.
    if order is not None:
        sent = set(msgs)
        for k in unique:
            c = raw.control[k]
            if c.pair in sent or order.implied(c.src, c.dst):
                findings.append(
                    Finding(
                        "C102",
                        f"control arrow ({c.src[0]},{c.src[1]}) -> "
                        f"({c.dst[0]},{c.dst[1]}) is transitively redundant: "
                        f"the remaining relation already orders its source "
                        f"before its target",
                        location=c.location,
                        arrows=(c.pair,),
                    )
                )

    if predicate is None:
        return findings

    # Predicate-dependent rules need the disjunctive decomposition; a
    # predicate with no such form is out of scope for A1/A2 and Lemma 2.
    try:
        disjunctive = as_disjunctive(predicate, dep.n)
    except NotDisjunctiveError:
        return findings

    from repro.core.offline import control_disjunctive

    # C104: Lemma 2.  Figure 2 failing proves no controller exists for
    # this computation; its witness is an overlapping set of
    # false-intervals, one per process.
    try:
        control_disjunctive(dep, disjunctive)
    except NoControllerExistsError as exc:
        witness = exc.witness
        states = []
        for iv in witness:
            states.extend([(iv.proc, iv.lo), (iv.proc, iv.hi)])
        findings.append(
            Finding(
                "C104",
                "No Controller Exists (Lemma 2): the false-intervals "
                + ", ".join(repr(iv) for iv in witness)
                + " overlap -- every global sequence passes through a "
                "state where the predicate is false on all processes",
                states=tuple(states),
                data={
                    "intervals": [
                        {"proc": iv.proc, "lo": iv.lo, "hi": iv.hi}
                        for iv in witness
                    ]
                },
            )
        )

    # C106 (A1): a control arrow blocks its target process in the state
    # *before* the arrow's target -- if the local predicate is false
    # there, online control would park the process in a bad state.
    for k in unique:
        c = raw.control[k]
        dp, di = c.dst
        local = disjunctive.local(dp)
        if local is None:
            continue
        blocked_at = di - 1
        if blocked_at >= 0 and not local.holds_at(dep, blocked_at):
            findings.append(
                Finding(
                    "C106",
                    f"control arrow ({c.src[0]},{c.src[1]}) -> ({dp},{di}) "
                    f"blocks process {dp} in state ({dp},{blocked_at}), "
                    f"where its local predicate is false (assumption A1)",
                    location=c.location,
                    states=((dp, blocked_at),),
                    arrows=(c.pair,),
                )
            )

    # C107 (A2): local predicates must hold in final states, or online
    # control can end a run in a bad configuration.
    for proc, local in disjunctive.locals_by_proc.items():
        if proc >= dep.n:
            continue
        top = dep.state_counts[proc] - 1
        if not local.holds_at(dep, top):
            findings.append(
                Finding(
                    "C107",
                    f"local predicate of process {proc} ({local.name}) is "
                    f"false in its final state ({proc},{top}) "
                    f"(assumption A2)",
                    states=((proc, top),),
                )
            )
    return findings
