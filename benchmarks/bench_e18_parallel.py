"""E18 -- vectorised truth tables: correctness-gated single-core speedup.

The slicing engine builds one truth table per process.  Conjuncts with a
compiled expression IR evaluate as one numpy kernel over packed columns;
opaque closures fall back to the per-state python loop (the E14-era
baseline).  This experiment pins the claim that makes the kernel worth
having:

* **correctness first** -- the vectorised tables are asserted bitwise
  identical to the python-loop tables before any number is recorded;
* **the work is real** -- on the largest trace the vectorised kernel
  beats the python loop.

Timings are single-core medians of ``REPEATS`` runs; ``vector_ms``
packs the columns on every run (the deposet's column cache is dropped
first), so it is the cost of a cold build.

Results land in ``BENCH_E18_PARALLEL.json`` at the repo root.
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import run_once
from repro.bench import Sweep
from repro.predicates import And, LocalPredicate, Not
from repro.slicing.regular import regular_form
from repro.workloads import availability_predicate, random_deposet

TINY = bool(os.environ.get("E18_TINY"))
CPUS = os.cpu_count() or 1
#: (processes, events per process)
SIZES = [(3, 40)] if TINY else [(4, 400), (6, 1200)]
REPEATS = 1 if TINY else 5
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_E18_PARALLEL.json"


def workload(n, events):
    dep = random_deposet(
        n=n, events_per_proc=events, message_rate=0.15, flip_rate=0.2,
        start_true_prob=0.95, seed=n * 1000 + events,
    )
    compiled = regular_form(availability_predicate(n, "up").negated())
    opaque = regular_form(And(
        *(
            Not(LocalPredicate.from_vars(i, lambda v: bool(v.get("up", False))))
            for i in range(n)
        )
    ))
    assert all(c.expr is not None for c in compiled.conjuncts.values())
    assert all(c.expr is None for c in opaque.conjuncts.values())
    return dep, compiled, opaque


def _timed(fn):
    """(result, median wall ms) over ``REPEATS`` calls."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return out, statistics.median(times)


def _drop_column_cache(dep):
    dep.__dict__.pop("_column_cache", None)
    return dep


def _identical(expected, got):
    return len(expected) == len(got) and all(
        np.array_equal(a, b) for a, b in zip(expected, got)
    )


def test_e18_vectorised_tables_speedup(benchmark):
    def run():
        sweep = Sweep("E18: vectorised vs python-loop truth tables")
        for n, events in SIZES:
            dep, compiled, opaque = workload(n, events)
            loop_tables, loop_ms = _timed(lambda: opaque.truth_tables(dep))
            vector_tables, vector_ms = _timed(
                lambda: compiled.truth_tables(_drop_column_cache(dep))
            )
            # Correctness gate: bitwise identity before any number.
            assert _identical(loop_tables, vector_tables), (
                f"vectorised kernel diverges from the python loop at n={n}"
            )
            sweep.add(
                n=n,
                states=dep.num_states,
                loop_ms=round(loop_ms, 2),
                vector_ms=round(vector_ms, 2),
                vector_speedup=round(loop_ms / max(vector_ms, 1e-6), 1),
                identical=True,
            )
        return sweep

    sweep = run_once(benchmark, run)
    print("\n" + sweep.render())
    print(f"[e18] cpus={CPUS} repeats={REPEATS}")
    benchmark.extra_info["table"] = sweep.rows

    if not TINY:
        last = sweep.rows[-1]
        assert last["vector_ms"] < last["loop_ms"], (
            f"vectorised kernel must beat the python loop on the largest "
            f"trace: {last['vector_ms']} vs {last['loop_ms']} ms"
        )
    _write_json(sweep.rows)


def _write_json(rows):
    JSON_PATH.write_text(json.dumps(
        {
            "experiment": "E18",
            "title": "vectorised slicing truth tables",
            "tiny": TINY,
            "cpus": CPUS,
            "repeats": REPEATS,
            "unit": {
                "loop_ms": "serial per-state python-loop tables (E14 baseline), median",
                "vector_ms": "serial vectorised IR kernel tables incl. "
                             "column packing, median",
            },
            "note": "tables are asserted bitwise identical to the python "
                    "loop before any number is recorded",
            "rows": rows,
        }, indent=2) + "\n")
