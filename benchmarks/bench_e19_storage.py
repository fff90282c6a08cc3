"""E19 -- durable trace storage: what the commit chain costs and saves.

Four claims about the SQLite backend, each asserted for identity before
any number is recorded (a fast wrong answer is worthless):

* **ingest throughput** -- the same event stream appended record by
  record into the in-memory columns, into SQLite with a single commit,
  and into SQLite committing every 64 records.  Snapshots are asserted
  value-equal across all three before timing is reported.

* **detect wall-time** -- every engine's verdict on the sqlite-backed
  snapshot vs the in-memory one, asserted identical, then the slice
  engine timed on both.  Detection runs on snapshots, so the only
  honest difference is page-fault latency while materialising them.

* **branch vs full copy** -- ``store.branch()`` on the chain is one
  branch row (every ancestor commit and page is shared); the
  alternative it replaces is replaying the whole trace into a second
  store.  Both are timed, and the COW claim is asserted structurally:
  the ``pages`` table does not grow when a branch is created.

* **larger-than-cache** -- the same detection with the page cache
  capped far below the trace size; verdicts must not change while the
  eviction counter proves the cache actually thrashed.

Timing-honesty note: absolute milliseconds come from whatever box ran
the suite; the asserted claims are identity (same snapshots, same
verdicts) and shape (branching beats full copy by orders of magnitude,
zero page rows written per branch, evictions > 0 under the cap).
"""

import io
import json
import os
import sqlite3
import tempfile
import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.bench import Sweep
from repro.detection import definitely, possibly
from repro.obs import METRICS
from repro.store import TraceStore
from repro.trace.io import apply_stream_record, write_event_stream
from repro.workloads import availability_predicate, random_deposet

TINY = bool(os.environ.get("E19_TINY"))
N = 3 if TINY else 4
EVENTS_PER_PROC = 8 if TINY else 150
#: page cache cap for the thrash run (pages of 32 states each)
THRASH = dict(page_size=8, cache_pages=2) if TINY else \
    dict(page_size=32, cache_pages=4)
BRANCH_REPS = 3 if TINY else 10
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_E19_STORAGE.json"


def make_records(seed):
    dep = random_deposet(seed=seed, n=N, events_per_proc=EVENTS_PER_PROC,
                         message_rate=0.3, flip_rate=0.3)
    buf = io.StringIO()
    write_event_stream(dep, buf)
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def shape_of(header):
    return dict(
        n=len(header["start"]),
        start_vars=header["start"],
        proc_names=header.get("proc_names"),
        start_times=header.get("start_times"),
    )


def bad_predicate(n):
    return availability_predicate(n, "up").negated()


def feed(store, records, *, commit_every=None):
    t0 = time.perf_counter()
    for i, rec in enumerate(records[1:], start=1):
        apply_stream_record(store, rec, f"bench:{i}")
        if commit_every and i % commit_every == 0:
            store.commit()
    store.commit()
    return time.perf_counter() - t0


def ingest_rows(sweep, records, tmp):
    recs = len(records) - 1
    shape = shape_of(records[0])
    modes = [
        ("memory", "memory", {}),
        ("sqlite", f"sqlite:{tmp / 'ingest.db'}", {}),
        ("sqlite-64", f"sqlite:{tmp / 'ingest64.db'}",
         {"commit_every": 64}),
    ]
    stores, rows = {}, []
    base_wall = None
    for name, target, kw in modes:
        store = TraceStore.open(target, **shape)
        wall = feed(store, records, **kw)
        stores[name] = store
        if base_wall is None:
            base_wall = wall
        rows.append(dict(
            mode=name, records=recs, wall_ms=round(wall * 1e3, 2),
            records_per_sec=round(recs / max(wall, 1e-9)),
            overhead_x=round(wall / max(base_wall, 1e-9), 2),
        ))
    reference = stores["memory"].snapshot()
    for name, store in stores.items():
        assert store.snapshot() == reference, f"{name}: snapshot diverged"
    for row in rows:
        row["identical"] = True
        sweep.add(**row)
    return rows, stores


def detect_rows(sweep, stores):
    pred = bad_predicate(stores["memory"].n)
    verdicts = {}
    rows = []
    # one untimed pass per backend first: each row is timed once, so the
    # first row would otherwise time the slice engine's first-call setup
    for name in ("memory", "sqlite"):
        dep = stores[name].snapshot()
        possibly(dep, pred, engine="slice")
        definitely(dep, pred, engine="slice")
    for name in ("memory", "sqlite"):
        dep = stores[name].snapshot()
        t0 = time.perf_counter()
        verdicts[name] = (possibly(dep, pred, engine="slice"),
                          definitely(dep, pred, engine="slice"))
        wall = time.perf_counter() - t0
        rows.append(dict(mode=name, states=sum(dep.state_counts),
                         wall_ms=round(wall * 1e3, 2)))
    assert verdicts["sqlite"] == verdicts["memory"], "verdicts diverged"
    for row in rows:
        row["identical"] = True
        sweep.add(**row)
    return rows


def branch_rows(sweep, stores, records, tmp):
    sql = stores["sqlite"]
    dep = sql.snapshot()
    path = sql.path
    conn = sqlite3.connect(path)
    pages_before = conn.execute("SELECT COUNT(*) FROM pages").fetchone()[0]
    conn.close()

    t0 = time.perf_counter()
    forks = [sql.branch(f"bench-{i}") for i in range(BRANCH_REPS)]
    branch_wall = (time.perf_counter() - t0) / BRANCH_REPS
    assert forks[0].snapshot() == dep, "fork != parent at creation"
    for fork in forks:
        fork.close()

    conn = sqlite3.connect(path)
    pages_after = conn.execute("SELECT COUNT(*) FROM pages").fetchone()[0]
    conn.close()
    # the COW claim, structurally: a branch writes no page rows at all
    assert pages_after == pages_before, (pages_before, pages_after)

    # the alternative branching replaces: replay everything into a
    # fresh store (what `freeze()`+`restore()` checkpointing did)
    shape = shape_of(records[0])
    t0 = time.perf_counter()
    copy = TraceStore.open(f"sqlite:{tmp / 'copy.db'}", **shape)
    feed(copy, records)
    copy_wall = time.perf_counter() - t0
    assert copy.snapshot() == dep
    copy.close()

    rows = [
        dict(mode="branch (COW)", wall_ms=round(branch_wall * 1e3, 3),
             pages_written=pages_after - pages_before, identical=True),
        dict(mode="full copy", wall_ms=round(copy_wall * 1e3, 3),
             pages_written=pages_after, identical=True),
    ]
    for row in rows:
        sweep.add(**row)
    # shape claim: a branch costs one fsynced transaction regardless of
    # trace size, while the copy replays every record (tiny inputs are
    # too small for the wall-time gap, so only assert it full-size)
    if not TINY:
        assert branch_wall < copy_wall, (branch_wall, copy_wall)
    return rows


def thrash_rows(sweep, stores, records, tmp):
    reference = stores["memory"].snapshot()
    pred = bad_predicate(reference.n)
    expected = (possibly(reference, pred, engine="slice"),
                definitely(reference, pred, engine="slice"))
    # page size is fixed at creation (it shapes the stored rows), so the
    # thrash run gets its own small-paged database of the same trace
    shape = shape_of(records[0])
    src = tmp / "thrash.db"
    seed_store = TraceStore.open(f"sqlite:{src}", **shape,
                                 page_size=THRASH["page_size"])
    feed(seed_store, records)
    seed_store.close()
    with METRICS.scoped() as scope:
        store = TraceStore.open(f"sqlite:{src}",
                                cache_pages=THRASH["cache_pages"])
        try:
            t0 = time.perf_counter()
            dep = store.snapshot()
            got = (possibly(dep, pred, engine="slice"),
                   definitely(dep, pred, engine="slice"))
            wall = time.perf_counter() - t0
        finally:
            store.close()
    assert dep == reference, "capped-cache snapshot diverged"
    assert got == expected, "capped-cache verdicts diverged"
    evictions = scope.counter("store.sqlite.page_evictions")
    misses = scope.counter("store.sqlite.page_misses")
    hits = scope.counter("store.sqlite.page_hits")
    # the cap must actually bite or this row measures nothing
    assert evictions > 0, "trace fits the capped cache; grow the trace"
    row = dict(
        mode=f"cache={THRASH['cache_pages']}x{THRASH['page_size']}",
        states=sum(reference.state_counts), wall_ms=round(wall * 1e3, 2),
        page_misses=misses, page_hits=hits, page_evictions=evictions,
        identical=True,
    )
    sweep.add(**row)
    return [row]


def test_e19_storage_costs(benchmark):
    def run():
        with tempfile.TemporaryDirectory(prefix="repro-e19-") as td:
            tmp = Path(td)
            records = make_records(1900)
            s1 = Sweep("E19a: ingest throughput, memory vs commit chain")
            s2 = Sweep("E19b: detect wall-time on backend snapshots")
            s3 = Sweep("E19c: COW branch vs full copy")
            s4 = Sweep("E19d: detection under a capped page cache")
            ingest, stores = ingest_rows(s1, records, tmp)
            try:
                detect = detect_rows(s2, stores)
                branch = branch_rows(s3, stores, records, tmp)
                thrash = thrash_rows(s4, stores, records, tmp)
            finally:
                for store in stores.values():
                    store.close()
            return (s1, s2, s3, s4), dict(
                ingest=ingest, detect=detect, branch=branch, thrash=thrash,
            )

    sweeps, sections = run_once(benchmark, run)
    for sweep in sweeps:
        print("\n" + sweep.render())
    benchmark.extra_info["table"] = [r for s in sweeps for r in s.rows]
    _write_json(sections)


def _write_json(sections):
    JSON_PATH.write_text(json.dumps(
        {
            "experiment": "E19",
            "title": "durable trace storage: commit-chain costs and savings",
            "tiny": TINY,
            "unit": {
                "wall_ms": "wall time on the box that ran the suite",
                "records_per_sec": "stream records appended per second "
                                   "(header excluded)",
                "overhead_x": "ingest wall time relative to the in-memory "
                              "columns for the identical stream",
                "pages_written": "rows added to the pages table by the "
                                 "operation (0 = pure COW)",
                "page_evictions": "LRU evictions during the capped-cache "
                                  "detection run",
            },
            "note": "snapshots and verdicts are asserted identical across "
                    "backends, branch forks, and the capped-cache run "
                    "before any number is recorded; asserted shapes: a "
                    "COW branch writes zero page rows (its cost is one "
                    "fsynced transaction, independent of trace size) and "
                    "undercuts a full replay at full size, and the capped "
                    "cache must actually evict",
            **sections,
        },
        indent=1,
    ) + "\n")
