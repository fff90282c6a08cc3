"""Pass 1: the trace sanitizer (rules T002--T011).

Statically re-checks everything the strict loaders enforce dynamically --
the deposet axioms D1--D3 (T002--T006, judged by
:mod:`repro.causality.axioms`, which the loaders raise from), channel
integrity, acyclicity of the message causality -- plus properties no
loader checks at all: FIFO inversions, recorded-vs-recomputed vector
clocks, and timestamp regressions.  Works
over a :class:`~repro.analysis.raw.RawTrace`, so a single run reports
*every* violation, each with a concrete witness (states, arrows, and the
input location remembered by the lenient parser).

The cycle witness machinery (:func:`find_event_cycle`) is shared with the
control-relation analyzer: both passes search the same event graph, the
sanitizer over message arrows only (T011), the control pass over the
extended relation (C101).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.raw import RawArrow, RawTrace
from repro.causality.axioms import (
    CONTROL, Problem, arrow_problems, arrow_str, trace_problems,
)

__all__ = [
    "sanitize",
    "find_event_cycle",
    "valid_arrows",
    "axiom_finding",
    "t007_finding",
    "t007_findings",
    "t010_findings",
]

Ref = Tuple[int, int]
EventRef = Tuple[int, int]


# -- event-graph cycle witnesses ---------------------------------------------


def _successors(
    counts: Sequence[int], arrow_edges: Sequence[Tuple[EventRef, EventRef]]
) -> Dict[EventRef, List[EventRef]]:
    """Successor map of the event graph: each event's chain edge first,
    then its arrow edges in arrow order."""
    succ: Dict[EventRef, List[EventRef]] = {}
    for i, m in enumerate(counts):
        for e in range(m - 2):
            succ[i, e] = [(i, e + 1)]
    for u, v in arrow_edges:
        if u != v:
            succ.setdefault(u, []).append(v)
    return succ


def _unordered_events(
    counts: Sequence[int], arrow_edges: Sequence[Tuple[EventRef, EventRef]]
) -> Set[EventRef]:
    """The events Kahn's algorithm cannot order: those on a cycle of the
    event graph or downstream of one.  Empty iff the graph is acyclic.
    One cursor per process walks its chain; an event waits until every
    arrow into it has fired."""
    ends = [m - 1 for m in counts]
    pending: Dict[EventRef, int] = {}
    out: Dict[EventRef, List[EventRef]] = {}
    for u, v in arrow_edges:
        if u != v:
            pending[v] = pending.get(v, 0) + 1
            out.setdefault(u, []).append(v)
    cursor = [0] * len(ends)
    ready = deque(range(len(ends)))
    while ready:
        p = ready.popleft()
        e = cursor[p]
        while e < ends[p] and not pending.get((p, e)):
            for d in out.get((p, e), ()):
                pending[d] -= 1
                q, f = d
                if not pending[d] and q != p and cursor[q] == f:
                    ready.append(q)
            e += 1
        cursor[p] = e
    return {(p, e) for p, c in enumerate(cursor) for e in range(c, ends[p])}


def find_event_cycle(
    counts: Sequence[int],
    arrows: Sequence[Tuple[Ref, Ref]],
    candidates: Optional[Sequence[int]] = None,
) -> Optional[Tuple[List[EventRef], int]]:
    """A minimal cycle of the event graph, or ``None`` when acyclic.

    One Kahn pass over the event graph first decides acyclicity, so an
    acyclic graph (the common case) costs linear time.  Only when a cycle
    exists does the search try to close one through each arrow in
    ``candidates`` (indices into ``arrows``; all of them by default)
    whose source event Kahn could not order: BFS from the arrow's target
    event back to its source event over the full graph yields the
    shortest path, so the returned cycle is minimal among cycles through
    any candidate.  Returns ``(events, arrow_index)`` -- the cycle as an
    event sequence (closing arrow implied from last back to first) and
    the index of the arrow that closes it.
    """
    # Each arrow ``src -> dst`` is the edge ``leave(src) -> enter(dst)``:
    # event ``(src.proc, src.index)`` to event ``(dst.proc, dst.index -
    # 1)``.  Arrows collapsing to one event (``complete(s) ==
    # enter(s+1)``) are trivially satisfied, as in CausalOrder.
    arrow_edges = [((s[0], s[1]), (d[0], d[1] - 1)) for s, d in arrows]
    cyclic = _unordered_events(counts, arrow_edges)
    if not cyclic:
        return None
    succ = _successors(counts, arrow_edges)
    best: Optional[Tuple[List[EventRef], int]] = None
    for k in candidates if candidates is not None else range(len(arrows)):
        u, v = arrow_edges[k]
        if u == v or u not in cyclic:
            continue  # an arrow out of an ordered event closes no cycle
        # Shortest path v ->* u; appending the closing edge u -> v (arrow
        # k) turns it into a cycle.
        parents: Dict[EventRef, Optional[EventRef]] = {v: None}
        queue: deque[EventRef] = deque([v])
        found = False
        while queue and not found:
            node = queue.popleft()
            for nxt in succ.get(node, ()):
                if nxt in parents:
                    continue
                parents[nxt] = node
                if nxt == u:
                    found = True
                    break
                queue.append(nxt)
        if not found:
            continue
        path: List[EventRef] = []
        cur: Optional[EventRef] = u
        while cur is not None:
            path.append(cur)
            cur = parents[cur]
        path.reverse()  # v .. u
        if best is None or len(path) < len(best[0]):
            best = (path, k)
    return best


def valid_arrows(raw: RawTrace, arrows: Sequence[RawArrow]) -> List[int]:
    """Indices of arrows satisfying the structural preconditions of
    :class:`CausalOrder` -- those of a well-formed control arrow (endpoints
    exist, D1/D2 hold, not backwards along one process) -- the subset
    deeper passes may use."""
    counts = raw.state_counts
    return [
        k for k, a in enumerate(arrows)
        if not arrow_problems(CONTROL, a.src, a.dst, counts)
    ]


# -- shared finding constructors ---------------------------------------------
#
# Both the batch pass below and the streaming engine
# (:mod:`repro.analysis.incremental`) build their findings through these,
# so streaming/batch identity holds by construction for the shared rules.


def axiom_finding(
    problem: Problem, a: RawArrow, prev: Optional[RawArrow] = None
) -> Finding:
    """The finding of an axiom ``problem`` of arrow ``a`` (T002--T006,
    T009, C103), located where the input declared ``a``; a T004 also
    names ``prev``, the message that claimed the event first."""
    rule_id, message, states = problem
    if prev is None:
        return Finding(rule_id, message, location=a.location, states=states,
                       arrows=(a.pair,))
    return Finding(rule_id, message, location=a.location, states=states,
                   arrows=(prev.pair, a.pair),
                   data={"other_location": prev.location})


def t007_finding(
    sp: int, dp: int, first: RawArrow, second: RawArrow
) -> Finding:
    return Finding(
        "T007",
        f"channel {sp} -> {dp} is not FIFO: "
        f"{arrow_str(first)} was sent before "
        f"{arrow_str(second)} but delivered after it",
        location=second.location,
        states=(first.dst, second.dst),
        arrows=(first.pair, second.pair),
        data={"other_location": first.location},
    )


def t007_findings(arrows: Sequence[RawArrow]) -> List[Finding]:
    """T007 over well-formed message ``arrows``: FIFO inversions, per
    directed channel (channels in order of first use, pairs in send
    order)."""
    findings: List[Finding] = []
    by_channel: Dict[Tuple[int, int], List[RawArrow]] = {}
    for a in arrows:
        by_channel.setdefault((a.src[0], a.dst[0]), []).append(a)
    for (sp, dp), msgs in by_channel.items():
        msgs.sort(key=lambda a: a.src[1])
        for i in range(len(msgs)):
            for j in range(i + 1, len(msgs)):
                first, second = msgs[i], msgs[j]
                if (
                    first.src[1] < second.src[1]
                    and first.dst[1] > second.dst[1]
                ):
                    findings.append(t007_finding(sp, dp, first, second))
    return findings


def t010_findings(
    ts: Sequence[Sequence[float]], arrows: Sequence[RawArrow]
) -> List[Finding]:
    """T010 over per-state timestamps ``ts`` and well-formed message
    ``arrows``: times that run backwards along a process, then messages
    received before they were sent (warnings; wall clocks are
    advisory)."""
    findings: List[Finding] = []
    for i, row in enumerate(ts):
        for a in range(1, len(row)):
            if row[a] < row[a - 1]:
                findings.append(
                    Finding(
                        "T010",
                        f"process {i} time runs backwards: state "
                        f"({i},{a}) at {row[a]} after ({i},{a - 1}) "
                        f"at {row[a - 1]}",
                        states=((i, a - 1), (i, a)),
                    )
                )
    for a in arrows:
        (sp, si), (dp, di) = a.src, a.dst
        if ts[dp][di] < ts[sp][si]:
            findings.append(
                Finding(
                    "T010",
                    f"message {arrow_str(a)} is received at "
                    f"{ts[dp][di]}, before it was sent at {ts[sp][si]}",
                    location=a.location,
                    states=(a.src, a.dst),
                    arrows=(a.pair,),
                )
            )
    return findings


# -- the pass ----------------------------------------------------------------


def sanitize(raw: RawTrace) -> List[Finding]:
    """Run every trace-sanitizer rule over ``raw``."""
    findings: List[Finding] = []
    counts = raw.state_counts

    # T005 / T006 / T002 / T003 per arrow, then T004 (D3).  Control-arrow
    # semantics beyond T005 (D1/D2 generalised, direction) belong to the
    # control pass's C103.
    for key, k, problem, prev in trace_problems(
        counts, raw.messages, [c.pair for c in raw.control]
    ):
        arrows = raw.messages if key == "messages" else raw.control
        findings.append(axiom_finding(problem, arrows[k], prev))

    # T011: cyclic message causality, with a minimal cycle witness.
    ok_msgs = valid_arrows(raw, raw.messages)
    cycle = find_event_cycle(
        counts,
        [raw.messages[k].pair for k in ok_msgs],
    )
    if cycle is not None:
        events, k = cycle
        closing = raw.messages[ok_msgs[k]]
        findings.append(
            Finding(
                "T011",
                f"message causality is cyclic: a chain of "
                f"{len(events)} event(s) leads from the receive of "
                f"{arrow_str(closing)} back to its send",
                location=closing.location,
                states=tuple((p, e + 1) for p, e in events),
                arrows=(closing.pair,),
                data={"cycle_events": [list(ev) for ev in events]},
            )
        )

    ok = [raw.messages[k] for k in ok_msgs]
    findings.extend(t007_findings(ok))
    if raw.timestamps is not None:
        findings.extend(t010_findings(raw.timestamps, ok))

    # T008: recorded vector clocks vs clocks recomputed from the arrows.
    # Only when every arrow is structurally sound: a dropped arrow changes
    # the recomputed order, and flagging every downstream clock would bury
    # the one T005/T006 finding that actually explains the trace.
    ok_ctl = valid_arrows(raw, raw.control)
    all_arrows_ok = (
        len(ok_msgs) == len(raw.messages) and len(ok_ctl) == len(raw.control)
    )
    if raw.clocks is not None and cycle is None and all_arrows_ok:
        findings.extend(_check_clocks(raw, ok_msgs))

    return findings


def _check_clocks(raw: RawTrace, ok_msgs: List[int]) -> List[Finding]:
    from repro.causality.relations import CausalOrder

    arrows = [raw.messages[k].pair for k in ok_msgs]
    arrows += [raw.control[k].pair for k in valid_arrows(raw, raw.control)]
    try:
        order = CausalOrder(raw.state_counts, arrows)
    except Exception:
        # Structural problems already reported elsewhere; without a valid
        # order there is nothing to compare against.
        return []
    out: List[Finding] = []
    recorded = raw.clocks
    assert recorded is not None
    for i in range(raw.n):
        for a in range(len(raw.states[i])):
            want = [int(c) for c in order.clock((i, a))]
            got = recorded[i][a]
            if got != want:
                out.append(
                    Finding(
                        "T008",
                        f"state ({i},{a}): recorded clock {got} differs "
                        f"from the clock recomputed from the arrows {want}",
                        location=f"clocks[{i}][{a}]",
                        states=((i, a),),
                        data={"recorded": got, "recomputed": want},
                    )
                )
    return out
