"""Seeded input corpora for the three workloads.

Everything here is a pure function of the workload seed.  The shapes --
process counts, lengths, flip and message rates, control records, outage
counts -- come from fixed grids (lengths at fixed quantiles of their
heavy-tailed distribution); the seed draws the computations themselves
and the order of the items.  Two seeds therefore give different streams
with the same distribution of shapes, which keeps the per-run averages
steady across seeds without sizing anything away.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from common import percentile
from repro.core.offline import control_disjunctive
from repro.errors import NoControllerExistsError
from repro.trace.io import write_event_stream
from repro.workloads import (
    availability_predicate,
    random_deposet,
    random_server_trace,
)

SERVE_PREDICATE = "at-least-one:up"

#: serve corpus: process counts 2..8, each with LENGTH_RANKS lengths; a
#: corpus holds whole copies of these shapes, each copy with fresh draws
SERVE_PROCS = (2, 3, 4, 5, 6, 7, 8)
LENGTH_RANKS = 14
SERVE_SHAPES = len(SERVE_PROCS) * LENGTH_RANKS
#: per-process event counts follow a Pareto(alpha) tail from EPP_MIN
EPP_MIN, EPP_ALPHA = 6, 1.3
FLIP_RANGE = (0.05, 0.5)
MESSAGE_RANGE = (0.15, 0.45)
#: every CONTROL_EVERY-th length rank carries a mid-stream control relation
CONTROL_EVERY = 4

#: debug corpus: (processes, outages per server).  The off-line lint
#: gate's C104 search costs about outages ** processes overlap checks, so
#: many processes go with few outages and few processes with many; the
#: worst product stays near 2000 instead of growing with the trace.
DEBUG_SHAPES = ((2, 24), (3, 12), (4, 6), (5, 4), (6, 3), (8, 2))
#: phase means (up_run, down_run, message_rate): gossip-heavy servers that
#: stay down long are usually infeasible (NoControllerExists), short
#: outages with light gossip usually feasible
DEBUG_REGIMES = ((3, 2, 0.2), (2, 3, 0.35), (1, 6, 0.6))
#: the infeasible-leaning regime only for 2-3 processes: on an infeasible
#: trace with 4+ processes the final verdict's *definitely* upgrade can
#: take seconds (1.3 s on one 4x6 trace, against ~5 ms typically), a
#: second super-linear cost the corpus bounds the same way as C104
DEBUG_MIX = tuple((s, r) for s in DEBUG_SHAPES for r in DEBUG_REGIMES
                  if s[0] <= 3 or r != DEBUG_REGIMES[-1])


@dataclass
class Stream:
    """One ``repro-events/1`` document plus the shape it was drawn with."""

    name: str
    lines: List[str]
    n: int
    controlled: bool
    outages: int = 0
    #: the generated deposet (kept for the debug loop's references)
    dep: Any = None

    @property
    def records(self) -> int:
        return len(self.lines) - 1


def _doc(dep) -> List[str]:
    buf = io.StringIO()
    write_event_stream(dep, buf)
    return buf.getvalue().splitlines()


def _epp(u: float) -> int:
    """Pareto quantile: heavy-tailed per-process event count."""
    return int(EPP_MIN * (1.0 - u) ** (-1.0 / EPP_ALPHA))


def serve_corpus(seed: int, count: int) -> List[Stream]:
    """``count`` random-deposet streams for the serve workloads.

    Every process count gets the same heavy-tailed set of lengths (fixed
    quantiles of the Pareto tail), so the long sessions that set
    ``final_ms.p90`` are the same size under every seed, and the same
    spread of flip and message rates; the seed draws the computations
    themselves and the order in which sessions arrive.
    Every fourth length rank has a control relation synthesised against
    the serve predicate and applied, so its stream carries ``ctl``
    records in the middle: each one bumps the store epoch and forces the
    detector to rescan (witness found, then withdrawn).
    """
    rng = random.Random(f"serve-{seed}")
    shapes = []
    for copy in range(max(1, count // SERVE_SHAPES)):
        # blocks of LENGTH_RANKS streams, each holding every length once
        # (process counts rotate across blocks), so a run that stops in
        # the middle of the corpus has still seen a balanced mix
        blocks = [[(SERVE_PROCS[(rank + b) % len(SERVE_PROCS)], rank, copy)
                   for rank in range(LENGTH_RANKS)]
                  for b in range(len(SERVE_PROCS))]
        rng.shuffle(blocks)
        for block in blocks:
            rng.shuffle(block)
            shapes += block
    shapes = shapes[:count]
    out = []
    for i, (n, rank, copy) in enumerate(shapes):
        # flip and message rates sweep their ranges across the length
        # ranks in a fixed interleaving, so no seed pairs the longest
        # streams with only high (or only low) rates
        flip = _between(FLIP_RANGE, (rank * 5 + n + copy * 3) % LENGTH_RANKS)
        msg = _between(MESSAGE_RANGE, (rank * 3 + 2 * n + copy) % LENGTH_RANKS)
        controlled = rank % CONTROL_EVERY == 1
        epp = _epp((rank + 0.5) / LENGTH_RANKS)
        dep = _draw(n, epp, msg, flip, rng, controlled)
        out.append(Stream(f"s{i}", _doc(dep), n, controlled))
    return out


def _between(bounds: Tuple[float, float], k: int) -> float:
    """Midpoint of the ``k``-th of ``LENGTH_RANKS`` steps across ``bounds``."""
    lo, hi = bounds
    return lo + (k + 0.5) / LENGTH_RANKS * (hi - lo)


def _draw(n: int, epp: int, msg: float, flip: float, rng: random.Random,
          controlled: bool):
    """One random deposet; a controlled one gets a control relation
    synthesised against the serve predicate and applied.  Infeasible
    draws are redrawn with the same size and a lower flip rate (fewer
    false intervals) until a controller exists."""
    pred = availability_predicate(n, "up")
    for attempt in range(64):
        dep = random_deposet(n=n, events_per_proc=epp, message_rate=msg,
                             flip_rate=flip / (1 + attempt),
                             seed=rng.randrange(1 << 30))
        if not controlled:
            return dep
        try:
            return control_disjunctive(dep, pred).control.apply(dep)
        except NoControllerExistsError:
            continue
    raise RuntimeError("no controllable deposet found")


def crash_docs(seed: int, count: int, n: int = 4,
               events_per_proc: int = 110) -> List[Stream]:
    """Equal-sized long streams for the kill/restart cycles, so every
    recovery sample replays the same amount of work."""
    rng = random.Random(f"crash-{seed}")
    out = []
    for i in range(count):
        dep = random_deposet(n=n, events_per_proc=events_per_proc,
                             message_rate=0.3, flip_rate=0.25,
                             seed=rng.randrange(1 << 30))
        out.append(Stream(f"k{i}", _doc(dep), n, False))
    return out


def debug_corpus(seed: int, count: int) -> List[Stream]:
    """``count`` server traces for the debug loop: consecutive blocks of
    ``DEBUG_MIX`` in shuffled order, so each seed -- and each stretch of
    a run -- mixes shapes, feasible and infeasible traces in the same
    proportions."""
    rng = random.Random(f"debug-{seed}")
    picks = []
    while len(picks) < count:  # each block holds the whole mix once
        picks += rng.sample(DEBUG_MIX, len(DEBUG_MIX))
    picks = picks[:count]
    out = []
    for i, ((n, outages), (up, down, msg)) in enumerate(picks):
        dep = random_server_trace(n, outages, up_run=up, down_run=down,
                                  message_rate=msg,
                                  seed=rng.randrange(1 << 30))
        out.append(Stream(f"d{i}", _doc(dep), n, False, outages=outages,
                          dep=dep))
    return out


def shape(streams: List[Stream]) -> Dict[str, Any]:
    """The corpus shape recorded beside every result."""
    lengths = sorted(s.records for s in streams)
    ctl_records = sum(
        sum(1 for line in s.lines[1:] if '"t":"ctl"' in line)
        for s in streams
    )
    out: Dict[str, Any] = {
        "streams": len(streams),
        "processes": [min(s.n for s in streams), max(s.n for s in streams)],
        "records": {
            "total": sum(lengths),
            "min": lengths[0],
            "p50": percentile(lengths, 0.5),
            "p90": percentile(lengths, 0.9),
            "max": lengths[-1],
        },
        "controlled_streams": sum(s.controlled for s in streams),
        "control_record_share": round(ctl_records / max(1, sum(lengths)), 5),
    }
    if any(s.outages for s in streams):
        per = {}
        for s in streams:
            per.setdefault(s.n, s.outages)
        out["false_intervals_per_process"] = {
            str(n): k for n, k in sorted(per.items())
        }
    return out


def header(stream: Stream) -> Dict[str, Any]:
    return json.loads(stream.lines[0])
