"""Brute-force oracles the tests compare the library's algorithms with."""

from itertools import product
from typing import Optional, Sequence, Tuple

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
