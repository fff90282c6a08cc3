"""Brute-force oracles the tests compare the library's algorithms with.

Some are the library's own earlier per-arrow forms, kept here once the
library moved to linear passes: the BFS-per-arrow cycle search, the
C101/C102 verdicts with one rebuilt order per control arrow, the
pairwise race scan, and the greedy ``minimized`` loop.  Their answers
are the contract the fast forms must reproduce exactly.
"""

from collections import deque
from itertools import combinations, product
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.races import _MAX_WITNESSES, _writes
from repro.analysis.raw import RawTrace
from repro.analysis.sanitizer import valid_arrows
from repro.causality.relations import CausalOrder, StateRef
from repro.core import overlap
from repro.predicates import FalseInterval
from repro.trace.deposet import Deposet


def find_overlapping_intervals(
    dep: Deposet, interval_lists: Sequence[Sequence[FalseInterval]]
) -> Optional[Tuple[FalseInterval, ...]]:
    """Brute-force search for a Lemma 2 overlapping set (exponential).

    Tries every combination of one interval per process; ``None`` when no
    process combination overlaps (including when some process has no false
    interval at all -- then no overlapping set can exist).  Figure 2's
    obstruction (C104, infeasibility) must agree with it.
    """
    if any(len(lst) == 0 for lst in interval_lists):
        return None
    order = dep.order
    for combo in product(*interval_lists):
        if overlap(dep, combo, order):
            return tuple(combo)
    return None


def _event_graph(
    counts: Sequence[int], arrows: Iterable[Tuple[Tuple[int, int], Tuple[int, int]]]
) -> Dict[Tuple[int, int], List[Tuple[int, int]]]:
    """Successor lists of the event graph: event ``(i, e)`` leaves state
    ``e`` and enters ``e + 1``; an arrow adds ``leave(src) -> enter(dst)``."""
    succ: Dict[Tuple[int, int], List[Tuple[int, int]]] = {
        (i, e): [(i, e + 1)] if e + 2 < m else []
        for i, m in enumerate(counts)
        for e in range(m - 1)
    }
    for (sp, si), (dp, di) in arrows:
        if (sp, si) != (dp, di - 1):
            succ[sp, si].append((dp, di - 1))
    return succ


def _reach(succ, ev) -> Set[Tuple[int, int]]:
    """Events reachable from ``ev`` by one or more edges (DFS)."""
    seen: Set[Tuple[int, int]] = set()
    stack = list(succ[ev])
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            stack.extend(succ[x])
    return seen


def cycle_cone(counts: Sequence[int], arrows) -> List[Tuple[int, int]]:
    """Every event on a cycle of the event graph or downstream of one,
    sorted; empty iff the graph is acyclic.  A ``CycleError`` must name
    exactly these events."""
    succ = _event_graph(counts, arrows)
    reach = {ev: _reach(succ, ev) for ev in succ}
    cone: Set[Tuple[int, int]] = set()
    for ev, below in reach.items():
        if ev in below:  # ev reaches itself: it lies on a cycle
            cone |= below
    return sorted(cone)


def reachability_clocks(counts: Sequence[int], arrows) -> List[List[List[int]]]:
    """State clocks of an acyclic event graph, from reachability alone.

    ``V(s_{j,b})[k]`` is the largest ``a`` whose leave event ``(k, a)``
    reaches (or is) ``enter(s_{j,b}) = (j, b - 1)``, ``-1`` when none, and
    ``V(s)[proc(s)] = index(s)``.  Returns ``clocks[j][b][k]``.
    """
    succ = _event_graph(counts, arrows)
    reach = {ev: _reach(succ, ev) | {ev} for ev in succ}
    n = len(counts)
    clocks = []
    for j, m in enumerate(counts):
        rows = []
        for b in range(m):
            row = [-1] * n
            if b > 0:
                for (k, a), below in reach.items():
                    if (j, b - 1) in below:
                        row[k] = max(row[k], a)
            row[j] = b
            rows.append(row)
        clocks.append(rows)
    return clocks


# -- the per-arrow forms of the control checks -------------------------------


def find_event_cycle_bfs(counts, arrows, candidates=None):
    """A minimal event-graph cycle through one of ``candidates`` (indices
    into ``arrows``, all by default), by one BFS per candidate from the
    arrow's target event back to its source; ``(events, arrow_index)``
    or ``None``.  No acyclicity pass first: every candidate is searched."""
    succ = _event_graph(counts, arrows)
    edges = [((sp, si), (dp, di - 1)) for (sp, si), (dp, di) in arrows]
    best = None
    for k in candidates if candidates is not None else range(len(arrows)):
        u, v = edges[k]
        if u == v:
            continue
        parents = {v: None}
        queue = deque([v])
        while queue and u not in parents:
            node = queue.popleft()
            for nxt in succ.get(node, ()):
                if nxt not in parents:
                    parents[nxt] = node
                    if nxt == u:
                        break
                    queue.append(nxt)
        if u not in parents:
            continue
        path = []
        cur = u
        while cur is not None:
            path.append(cur)
            cur = parents[cur]
        path.reverse()  # v .. u
        if best is None or len(path) < len(best[0]):
            best = (path, k)
    return best


def _unique_enforceable_control(raw: RawTrace) -> List[int]:
    """Indices of control arrows that pass C103 (endpoints exist, the
    source completes, the target is entered, not backwards), first
    occurrences only (C105)."""
    counts = raw.state_counts
    out, seen = [], set()
    for k, c in enumerate(raw.control):
        if not (raw.has_state(c.src) and raw.has_state(c.dst)):
            continue
        (sp, si), (dp, di) = c.src, c.dst
        if si > counts[sp] - 2 or di < 1 or (sp == dp and si >= di):
            continue
        if c.pair not in seen:
            seen.add(c.pair)
            out.append(k)
    return out


def c101_c102_rebuild(raw: RawTrace) -> List[Finding]:
    """C101 by the BFS-per-arrow search, then C102 with one
    :class:`CausalOrder` rebuilt per control arrow over every other arrow."""
    counts = raw.state_counts
    msgs = [raw.messages[k].pair for k in valid_arrows(raw, raw.messages)]
    unique = _unique_enforceable_control(raw)
    combined = msgs + [raw.control[k].pair for k in unique]
    cycle = find_event_cycle_bfs(
        counts, combined, candidates=range(len(msgs), len(combined))
    )
    if cycle is not None:
        events, ci = cycle
        closing = raw.control[unique[ci - len(msgs)]]
        return [Finding(
            "C101",
            f"control relation interferes with causality: waiting on "
            f"({closing.src[0]},{closing.src[1]}) -> "
            f"({closing.dst[0]},{closing.dst[1]}) closes a cycle of "
            f"{len(events)} event(s); replay would deadlock",
            location=closing.location,
            states=tuple((p, e + 1) for p, e in events),
            arrows=(closing.pair,),
            data={"cycle_events": [list(ev) for ev in events]},
        )]
    out = []
    for k in unique:
        c = raw.control[k]
        rest = msgs + [raw.control[j].pair for j in unique if j != k]
        if CausalOrder(counts, rest).happened_before(c.src, c.dst):
            out.append(Finding(
                "C102",
                f"control arrow ({c.src[0]},{c.src[1]}) -> "
                f"({c.dst[0]},{c.dst[1]}) is transitively redundant: "
                f"the remaining relation already orders its source "
                f"before its target",
                location=c.location,
                arrows=(c.pair,),
            ))
    return out


def analyze_control_rebuild(raw: RawTrace, findings: List[Finding]):
    """``analyze_control``'s findings with C101/C102 recomputed by
    :func:`c101_c102_rebuild`, in the pass's order: C103/C105 first, then
    C101/C102, then the predicate rules."""
    head = [f for f in findings if f.rule_id in ("C103", "C105")]
    tail = [f for f in findings
            if f.rule_id not in ("C101", "C102", "C103", "C105")]
    return head + c101_c102_rebuild(raw) + tail


def minimized_greedy(arrows, dep: Deposet) -> List:
    """Greedy transitive reduction of a control relation: arrows tested
    in reverse order, each dropped when ``dep``'s arrows plus the arrows
    still kept already order its source before its target."""
    base = [(m.src, m.dst) for m in dep.messages] + list(dep.control_arrows)
    kept = [(StateRef(*a), StateRef(*b)) for a, b in arrows]
    for arrow in list(reversed(kept)):
        others = [a for a in kept if a != arrow]
        if CausalOrder(dep.state_counts, base + others).happened_before(*arrow):
            kept = others
    return kept


def detect_races_pairwise(dep: Deposet) -> List[Finding]:
    """R301--R303 by one ``concurrent`` query per candidate pair."""
    findings: List[Finding] = []
    order = dep.base_order
    for name, writers in sorted(_writes(dep).items()):
        racy = [(a, b) for a, b in combinations(writers, 2)
                if a[0] != b[0] and order.concurrent(a, b)]
        if racy:
            shown = racy[:_MAX_WITNESSES]
            pairs = ", ".join(
                f"({a[0]},{a[1]}) || ({b[0]},{b[1]})" for a, b in shown
            )
            more = (f" (+{len(racy) - len(shown)} more)"
                    if len(racy) > len(shown) else "")
            findings.append(Finding(
                "R301",
                f"variable {name!r} is written by concurrent states: "
                f"{pairs}{more}",
                states=tuple(ref for pair in shown for ref in pair),
                data={"variable": name, "pairs": len(racy)},
            ))

    def race(rule, message, ma, mb):
        return Finding(
            rule, message, states=(tuple(ma.src), tuple(mb.src)),
            arrows=((tuple(ma.src), tuple(ma.dst)),
                    (tuple(mb.src), tuple(mb.dst))),
        )

    by_receiver: Dict[int, List[int]] = {}
    for k, m in enumerate(dep.messages):
        by_receiver.setdefault(m.dst.proc, []).append(k)
    for proc, ks in sorted(by_receiver.items()):
        for ka, kb in combinations(sorted(ks), 2):
            ma, mb = dep.messages[ka], dep.messages[kb]
            if ma.src.proc == mb.src.proc:
                continue
            if order.concurrent(ma.src, mb.src):
                first, _second = sorted((ma, mb), key=lambda m: m.dst.index)
                findings.append(race(
                    "R302",
                    f"process {proc} receives race: the sends "
                    f"({ma.src.proc},{ma.src.index}) and "
                    f"({mb.src.proc},{mb.src.index}) are concurrent, "
                    f"but the trace delivers "
                    f"({first.src.proc},{first.src.index}) first",
                    ma, mb,
                ))

    by_pair: Dict[Tuple[int, int], List[int]] = {}
    for k, m in enumerate(dep.messages):
        by_pair.setdefault((m.src.proc, m.dst.proc), []).append(k)
    for (p, q), ks in sorted(by_pair.items()):
        if p >= q:
            continue
        for ka in ks:
            for kb in by_pair.get((q, p), ()):
                ma, mb = dep.messages[ka], dep.messages[kb]
                if order.concurrent(ma.src, mb.src):
                    findings.append(race(
                        "R303",
                        f"processes {p} and {q} message each other from "
                        f"concurrent states ({ma.src.proc},"
                        f"{ma.src.index}) and ({mb.src.proc},"
                        f"{mb.src.index}) (crossed sends)",
                        ma, mb,
                    ))
    return findings
