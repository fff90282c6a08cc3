"""Brute-force oracles the tests compare the library's algorithms with."""

from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
