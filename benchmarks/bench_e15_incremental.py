"""E15 -- incremental CausalIndex vs per-round batch rebuilds.

The layered trace architecture's performance claim: a consumer that needs
fresh causal clocks while a trace *grows* (streaming ingestion, the
recorder, a controller's build-verify loop) should pay per-event work,
not a full Kahn pass per refresh.  Two measurements:

* **Growing trace** -- ingest a trace event by event.  The incremental
  index extends clocks in O(n) per append; the batch baseline rebuilds
  :class:`CausalOrder` from scratch every ``CHUNK`` events (the cheapest
  honest refresh policy available before the index existed).  Work is
  compared via deterministic counters (events processed), wall clock as
  the headline: each side's time is the median of ``REPEATS`` runs,
  interleaved so machine drift hits both sides alike.
* **Controller arrows** -- replay an off-line controller's build-verify
  loop: verify after each control arrow.  The batch baseline pays a full
  rebuild over the messages and ``arrows[:k]`` per round; the index
  inserts each arrow with a downstream-cone recompute.
* **Whole relation** -- insert the controller's whole relation at once
  (``base.extended(arrows)``: one propagation over the union of the
  arrows' downstream cones), against one batch :class:`CausalOrder` over
  messages plus arrows.  Checking a controller must cost no more than a
  batch build: the insert is gated at 1.5x the batch time.

Both paths must produce byte-identical clock matrices, and the controller
must derive the *same control relation* from a store-grown snapshot as
from the batch-built deposet.  Results land in
``BENCH_E15_INCREMENTAL.json`` at the repo root; CI runs the tiny sweep
(``E15_TINY=1``) where the deterministic work ratio is asserted instead
of wall time.
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import run_once
from repro.bench import Sweep
from repro.causality.relations import CausalOrder
from repro.core.offline import control_disjunctive
from repro.errors import NoControllerExistsError
from repro.detection.conjunctive import possibly_bad
from repro.obs import METRICS
from repro.store import CausalIndex, TraceStore, iter_delivery_events
from repro.workloads import availability_predicate, random_deposet

TINY = bool(os.environ.get("E15_TINY"))
#: (processes, events per process)
SIZES = [(3, 12), (3, 24)] if TINY else [(4, 50), (4, 100), (4, 150)]
#: batch baseline refreshes its clocks every CHUNK appended events
CHUNK = 4 if TINY else 25
#: interleaved timing repeats per size on the growing trace (median wins)
REPEATS = 5
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_E15_INCREMENTAL.json"


def workload(n, events):
    dep = random_deposet(
        n=n, events_per_proc=events, message_rate=0.3, flip_rate=0.3,
        seed=n * 1000 + events,
    )
    return dep, availability_predicate(n, "up")


def event_program(dep):
    """``dep`` linearised into (proc, sources) appends."""
    return [
        (proc, [msg.src] if msg is not None else [])
        for proc, _entered, msg, _ctls in iter_delivery_events(dep)
    ]


def run_incremental(dep, program):
    """Maintain a live index across the whole growth; O(n) per event."""
    idx = CausalIndex([1] * dep.n)
    for proc, sources in program:
        idx.append_event(proc, sources)
    return idx


def run_chunked_rebuild(dep, program):
    """Refresh by full rebuild every CHUNK events; returns the final order
    and the deterministic work (events processed across all rebuilds)."""
    counts = [1] * dep.n
    arrows = []
    work = 0
    order = None
    for step, (proc, sources) in enumerate(program, start=1):
        for src in sources:
            arrows.append((src, (proc, counts[proc])))
        counts[proc] += 1
        if step % CHUNK == 0 or step == len(program):
            order = CausalOrder(counts, arrows)
            work += sum(counts) - dep.n  # events the Kahn pass visits
    return order, work


def test_e15_growing_trace_incremental_vs_rebuild(benchmark):
    def run():
        sweep = Sweep("E15: growing trace -- incremental index vs chunked rebuild")
        for n, events in SIZES:
            dep, _pred = workload(n, events)
            program = event_program(dep)
            inc_s, rebuild_s = [], []
            for _ in range(REPEATS):
                with METRICS.scoped() as scope:
                    t0 = time.perf_counter()
                    idx = run_incremental(dep, program)
                    inc_s.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                rebuilt, rebuild_work = run_chunked_rebuild(dep, program)
                rebuild_s.append(time.perf_counter() - t0)
            inc_ms = statistics.median(inc_s) * 1e3
            rebuild_ms = statistics.median(rebuild_s) * 1e3
            inc_work = scope.counter("index.appends") + scope.counter(
                "index.cone_events"
            )
            # identical clocks: the incremental index IS the batch order
            for i in range(dep.n):
                assert np.array_equal(
                    idx.clock_matrix(i), rebuilt.clock_matrix(i)
                ), f"clock mismatch on process {i} (n={n}, events={events})"
            sweep.add(
                n=n,
                events=len(program),
                chunk=CHUNK,
                repeats=REPEATS,
                incremental_work=inc_work,
                rebuild_work=rebuild_work,
                work_ratio=round(rebuild_work / max(1, inc_work), 1),
                incremental_ms=round(inc_ms, 2),
                rebuild_ms=round(rebuild_ms, 2),
                speedup=round(rebuild_ms / max(1e-9, inc_ms), 1),
            )
        return sweep

    sweep = run_once(benchmark, run)
    print("\n" + sweep.render())
    benchmark.extra_info["table"] = sweep.rows

    # Deterministic claim (holds at any size): the rebuild policy touches
    # many times more events than the incremental index.
    assert sweep.column("work_ratio")[-1] >= (2 if TINY else 5), sweep.rows[-1]
    if not TINY:
        assert sweep.column("speedup")[-1] >= 5, (
            f"incremental index must beat chunked full rebuilds >=5x on the "
            f"largest trace; got {sweep.column('speedup')[-1]}x"
        )
    _write_json("growing", sweep.rows)


def test_e15_controller_arrows_incremental_vs_extended(benchmark):
    def run():
        sweep = Sweep("E15: build-verify loop -- cone inserts vs full extended()")
        for n, events in SIZES:
            dep, pred = workload(n, events)
            try:
                arrows = list(control_disjunctive(dep, pred).control)
            except NoControllerExistsError:
                arrows = []
            if not arrows:
                continue
            base = dep.base_order

            t0 = time.perf_counter()
            batch = None
            for k in range(1, len(arrows) + 1):  # full Kahn per round
                batch = CausalOrder(base.state_counts, base.arrows + arrows[:k])
            batch_ms = (time.perf_counter() - t0) * 1e3

            t0 = time.perf_counter()
            idx = CausalIndex.from_order(base)
            for arrow in arrows:
                idx.insert_arrows([arrow])  # downstream cone only
            inc_ms = (time.perf_counter() - t0) * 1e3

            for i in range(dep.n):
                assert np.array_equal(
                    idx.clock_matrix(i), batch.clock_matrix(i)
                ), f"clock mismatch on process {i} (n={n}, events={events})"
            sweep.add(
                n=n,
                events=dep.num_states - dep.n,
                arrows=len(arrows),
                extended_ms=round(batch_ms, 2),
                incremental_ms=round(inc_ms, 2),
                speedup=round(batch_ms / max(1e-9, inc_ms), 1),
            )
        return sweep

    sweep = run_once(benchmark, run)
    print("\n" + sweep.render())
    benchmark.extra_info["table"] = sweep.rows
    assert sweep.rows, "no workload produced control arrows"
    _write_json("controller", sweep.rows)


def test_e15_relation_one_propagation_vs_batch(benchmark):
    def run():
        sweep = Sweep("E15: whole relation -- one extended() vs batch build")
        for n, events in SIZES:
            dep, pred = workload(n, events)
            try:
                arrows = list(control_disjunctive(dep, pred).control)
            except NoControllerExistsError:
                arrows = []
            if not arrows:
                continue
            base = dep.base_order
            inc_s, batch_s = [], []
            for _ in range(REPEATS):
                with METRICS.scoped() as scope:
                    t0 = time.perf_counter()
                    inc = base.extended(arrows)
                    inc_s.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                batch = CausalOrder(base.state_counts, base.arrows + arrows)
                batch_s.append(time.perf_counter() - t0)
            for i in range(dep.n):
                assert np.array_equal(
                    inc.clock_matrix(i), batch.clock_matrix(i)
                ), f"clock mismatch on process {i} (n={n}, events={events})"
            inc_ms = statistics.median(inc_s) * 1e3
            batch_ms = statistics.median(batch_s) * 1e3
            sweep.add(
                n=n,
                events=dep.num_states - dep.n,
                arrows=len(arrows),
                repeats=REPEATS,
                cone_events=scope.counter("index.cone_events"),
                extended_ms=round(inc_ms, 2),
                batch_ms=round(batch_ms, 2),
                ratio=round(inc_ms / max(1e-9, batch_ms), 2),
            )
        return sweep

    sweep = run_once(benchmark, run)
    print("\n" + sweep.render())
    benchmark.extra_info["table"] = sweep.rows
    assert sweep.rows, "no workload produced control arrows"
    # Deterministic claim: one propagation never visits more events than
    # the batch build does.
    for row in sweep.rows:
        assert row["cone_events"] <= row["events"], row
    if not TINY:
        worst = max(sweep.column("ratio"))
        assert worst <= 1.5, (
            f"inserting a whole relation must cost at most 1.5x a batch "
            f"build; got {worst}x"
        )
    _write_json("relation", sweep.rows)


def test_e15_controller_output_identical_through_store(benchmark):
    """The whole point of the refactor: growing the trace through the
    store changes *nothing* semantically.  The controller derives the
    identical control relation from a store-grown snapshot, and detection
    verdicts agree before and after control."""

    def run():
        results = []
        for n, events in SIZES:
            dep, pred = workload(n, events)
            dep2 = TraceStore.from_deposet(dep).snapshot()
            try:
                r1 = control_disjunctive(dep, pred, seed=0)
            except NoControllerExistsError:
                continue
            r2 = control_disjunctive(dep2, pred, seed=0)
            assert list(r1.control) == list(r2.control)
            c1 = dep.with_control(list(r1.control))
            c2 = dep2.with_control(list(r2.control))
            assert possibly_bad(c1, pred) == possibly_bad(c2, pred) is None
            results.append(
                {"n": n, "events": dep.num_states - dep.n,
                 "arrows": len(list(r1.control))}
            )
        return results

    results = run_once(benchmark, run)
    print(f"\nE15: controller output identical through the store: {results}")
    benchmark.extra_info["table"] = results


def _write_json(section, rows):
    payload = {}
    if JSON_PATH.exists():
        try:
            payload = json.loads(JSON_PATH.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload.update(
        {
            "experiment": "E15",
            "title": "incremental causal index vs batch rebuilds",
            "tiny": TINY,
            "unit": {
                "work": "events visited by clock recomputation",
                "ms": "wall clock",
            },
        }
    )
    payload.setdefault("sections", {})[section] = rows
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
