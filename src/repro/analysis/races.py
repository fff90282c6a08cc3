"""Pass 4: the message-race detector (rules R301--R303).

Races -- concurrent operations whose relative order the trace fixed
arbitrarily -- are the classic source of the unstable bugs predicate
control exists to reproduce (Netzer & Miller's message-race model).  All
three rules are warnings: a race is not a defect of the *trace*, it is
the place where a re-run may diverge from it.

* **R301** write races: two concurrent local states assign the same
  variable name on different processes.  "Assigns" means the value
  changed when the state was entered, so mere possession of a variable
  does not race.
* **R302** racing receives: two messages delivered to the same process
  whose *send* states are concurrent -- the receiver's delivery order
  was a coin flip.
* **R303** crossed sends: two processes message each other from
  concurrent states -- the canonical symmetric race.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.findings import Finding
from repro.trace.deposet import Deposet

__all__ = ["detect_races"]

Ref = Tuple[int, int]
#: stacked states: processes, state indices, clock rows
_Rows = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Cap on witness pairs spelled out per variable (R301); the finding's
#: ``data`` always carries the total.
_MAX_WITNESSES = 3


def _writes(dep: Deposet) -> Dict[str, List[Ref]]:
    """Variable name -> states that changed it, across all processes.

    Initial states do not count as writes: every pair of initial states
    is concurrent, so counting initialisation would flag any shared
    variable name on every trace.  A write is a state whose entry
    changed the value (or introduced the name mid-run).
    """
    out: Dict[str, List[Ref]] = {}
    for i in range(dep.n):
        states = dep.proc_states(i)
        for a in range(1, len(states)):
            prev, vars = states[a - 1], states[a]
            for name, value in vars.items():
                if name not in prev or prev[name] != value:
                    out.setdefault(name, []).append((i, a))
    return out


def detect_races(dep: Deposet) -> List[Finding]:
    """Run every race rule over the underlying computation of ``dep``.

    Concurrency is decided in bulk: each rule stacks the clock rows of
    the states it compares and compares them with numpy, one matrix per
    variable, receiver or process pair.  Witnesses come out in the order
    of a pairwise scan (``np.nonzero`` is row-major)."""
    findings: List[Finding] = []
    order = dep.base_order
    offsets = np.cumsum((0,) + dep.state_counts[:-1])
    clocks = np.concatenate([order.clock_matrix(i) for i in range(dep.n)])

    def stacked(refs: Sequence[Ref]) -> _Rows:
        procs = np.array([r[0] for r in refs], dtype=np.intp)
        index = np.array([r[1] for r in refs], dtype=np.intp)
        return procs, index, clocks[offsets[procs] + index]

    def concurrent(a: _Rows, b: _Rows) -> np.ndarray:
        """``out[x, y]`` is ``a[x] || b[y]``: neither completed before the
        other was entered.  Same-process pairs come out ``False``: a
        state's clock holds its own index on its own process."""
        (pa, ia, ca), (pb, ib, cb) = a, b
        return (ia[:, None] > cb[:, pa].T) & (ib[None, :] > ca[:, pb])

    # R301: concurrent writes to one variable name.
    for name, writers in sorted(_writes(dep).items()):
        w = stacked(writers)
        racy = np.triu(concurrent(w, w), k=1)
        total = int(np.count_nonzero(racy))
        if total:
            xs, ys = np.nonzero(racy)
            shown = [
                (writers[x], writers[y])
                for x, y in zip(xs[:_MAX_WITNESSES], ys[:_MAX_WITNESSES])
            ]
            pairs = ", ".join(
                f"({a[0]},{a[1]}) || ({b[0]},{b[1]})" for a, b in shown
            )
            more = f" (+{total - len(shown)} more)" if total > len(shown) else ""
            states = tuple(
                ref for pair in shown for ref in pair
            )
            findings.append(
                Finding(
                    "R301",
                    f"variable {name!r} is written by concurrent states: "
                    f"{pairs}{more}",
                    states=states,
                    data={"variable": name, "pairs": total},
                )
            )

    # R302: receives racing at one process (concurrent sends; sends of
    # one sender are chain-ordered and never race).
    messages = dep.messages
    by_receiver: Dict[int, List[int]] = {}
    for k, m in enumerate(messages):
        by_receiver.setdefault(m.dst.proc, []).append(k)
    for proc, ks in sorted(by_receiver.items()):
        ks = sorted(ks)
        sends = stacked([messages[k].src for k in ks])
        for x, y in zip(*np.nonzero(np.triu(concurrent(sends, sends), k=1))):
            ma, mb = messages[ks[x]], messages[ks[y]]
            first, second = sorted((ma, mb), key=lambda m: m.dst.index)
            findings.append(
                Finding(
                    "R302",
                    f"process {proc} receives race: the sends "
                    f"({ma.src.proc},{ma.src.index}) and "
                    f"({mb.src.proc},{mb.src.index}) are concurrent, "
                    f"but the trace delivers "
                    f"({first.src.proc},{first.src.index}) first",
                    states=(tuple(ma.src), tuple(mb.src)),
                    arrows=(
                        (tuple(ma.src), tuple(ma.dst)),
                        (tuple(mb.src), tuple(mb.dst)),
                    ),
                )
            )

    # R303: crossed sends between a pair of processes.
    by_pair: Dict[Tuple[int, int], List[int]] = {}
    for k, m in enumerate(messages):
        by_pair.setdefault((m.src.proc, m.dst.proc), []).append(k)
    for (p, q), ks in sorted(by_pair.items()):
        back = by_pair.get((q, p))
        if p >= q or not back:
            continue
        there = stacked([messages[k].src for k in ks])
        home = stacked([messages[k].src for k in back])
        for x, y in zip(*np.nonzero(concurrent(there, home))):
            ma, mb = messages[ks[x]], messages[back[y]]
            findings.append(
                Finding(
                    "R303",
                    f"processes {p} and {q} message each other from "
                    f"concurrent states ({ma.src.proc},"
                    f"{ma.src.index}) and ({mb.src.proc},"
                    f"{mb.src.index}) (crossed sends)",
                    states=(tuple(ma.src), tuple(mb.src)),
                    arrows=(
                        (tuple(ma.src), tuple(ma.dst)),
                        (tuple(mb.src), tuple(mb.dst)),
                    ),
                )
            )
    return findings
