"""E14 -- slicing engine vs exhaustive lattice walk: states visited and time.

The detection engines must agree on verdicts while living in different
complexity classes: the exhaustive walk touches a lattice exponential in
processes, the slicing engine does polynomial work in *local* states
(truth tables + candidate elimination for *possibly*, the paper's
Figure 2 on the negated conjunction for *definitely*).  This
experiment records both engines' work on a common sweep and pins the gap:

* identical possibly/definitely verdicts on every workload, all engines;
* on the largest workload the slice engine visits >= 10x fewer states
  (in CI tiny mode -- ``E14_TINY=1`` -- strictly fewer on every row);
* a tracing on/off measurement of the exhaustive walk, recording that the
  disabled-tracing hot path stays within noise (the no-allocation
  contract itself is pinned by ``tests/detection/test_walk_counters.py``).

Results also land in ``BENCH_E14_SLICING.json`` at the repo root, so the
states/time trajectory is tracked in-tree across performance PRs.
"""

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.bench import Sweep
from repro.detection import definitely, possibly, violating_cuts
from repro.obs import METRICS, TRACER
from repro.workloads import availability_predicate, random_deposet

TINY = bool(os.environ.get("E14_TINY"))
#: (processes, events per process); tiny mode keeps CI in the sub-second range
SIZES = [(3, 2), (3, 3)] if TINY else [(3, 3), (4, 4), (4, 6), (5, 6)]
ENGINES = ("exhaustive", "slice")
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_E14_SLICING.json"


def workload(n, events):
    # High start-true probability and low flip rate make the conjunctive
    # bug ("all servers down at once") rare, so exhaustive *possibly* has
    # no early witness to stop at -- the regime slicing is for.
    dep = random_deposet(
        n=n, events_per_proc=events, message_rate=0.15, flip_rate=0.2,
        start_true_prob=0.95, seed=n * 100 + events,
    )
    return dep, availability_predicate(n, "up").negated()


def detect_with(engine, dep, pred):
    """(possibly, definitely, states visited, wall ms) for one engine."""
    with METRICS.scoped() as scope:
        t0 = time.perf_counter()
        witness = possibly(dep, pred, engine=engine)
        dfn = definitely(dep, pred, engine=engine)
        dt = time.perf_counter() - t0
    states = scope.counter("detection.lattice_states") + scope.counter(
        "detection.slice.states"
    )
    return witness is not None, dfn, states, dt * 1e3


def test_e14_slice_vs_exhaustive_scaling(benchmark):
    def run():
        sweep = Sweep("E14: slice vs exhaustive (possibly+definitely per row)")
        # one untimed pass per engine first: each row is timed once, so
        # row 1 would otherwise time the engines' first imports
        for engine in ENGINES:
            detect_with(engine, *workload(*SIZES[0]))
        for n, events in SIZES:
            dep, pred = workload(n, events)
            per_engine = {e: detect_with(e, dep, pred) for e in ENGINES}
            # hard requirement: verdicts identical across engines
            verdicts = {(p, d) for p, d, _, _ in per_engine.values()}
            assert len(verdicts) == 1, f"engines disagree on n={n}: {per_engine}"
            ex, sl = per_engine["exhaustive"], per_engine["slice"]
            sweep.add(
                n=n,
                states=dep.num_states,
                possibly=ex[0],
                definitely=ex[1],
                exhaustive_states=ex[2],
                slice_states=sl[2],
                ratio=round(ex[2] / max(1, sl[2]), 1),
                exhaustive_ms=round(ex[3], 2),
                slice_ms=round(sl[3], 2),
            )
        return sweep

    sweep = run_once(benchmark, run)
    print("\n" + sweep.render())
    benchmark.extra_info["table"] = sweep.rows
    _write_json(sweep.rows)

    ratios = sweep.column("ratio")
    if TINY:
        # strict improvement on every row, even trivially small inputs
        for row in sweep.rows:
            assert row["slice_states"] < row["exhaustive_states"], row
    else:
        assert ratios[-1] >= 10, (
            f"slice engine must visit >=10x fewer states than exhaustive on "
            f"the largest workload; got {ratios[-1]}x"
        )


def test_e14_tracing_overhead_on_hot_path(benchmark):
    def run():
        n, events = SIZES[-1]
        dep, pred = workload(n, events)
        # same walk, tracing off vs on; take best-of-3 to cut scheduler noise
        off = min(
            _timed(lambda: violating_cuts(dep, pred)) for _ in range(3)
        )
        with TRACER.recording():
            on = min(
                _timed(lambda: violating_cuts(dep, pred)) for _ in range(3)
            )
            recorded = len(TRACER.drain())
        return off, on, recorded

    off, on, recorded = run_once(benchmark, run)
    print(
        f"\nE14: exhaustive walk wall time -- tracing off {off:.2f} ms, "
        f"on {on:.2f} ms ({recorded} events recorded)"
    )
    benchmark.extra_info["table"] = [
        {"tracing_off_ms": round(off, 3), "tracing_on_ms": round(on, 3),
         "events_recorded": recorded}
    ]
    assert recorded > 0  # enabled tracing really recorded the walk


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def _write_json(rows):
    payload = {
        "experiment": "E14",
        "title": "slicing engine vs exhaustive lattice walk",
        "tiny": TINY,
        "unit": {"states": "distinct cuts / work units", "ms": "wall clock"},
        "rows": rows,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
