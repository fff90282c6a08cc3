"""The storage contract: every backend is behaviorally identical.

This is the load-bearing suite of the storage engines (see
``repro/store/trace_store.py``): on random traces -- fed through the same
incremental append path, with commits, branch forks, and cold reopens
interleaved on the durable side -- a ``SqliteStore`` must be
indistinguishable from an in-memory ``TraceStore``:

* snapshots compare equal as :class:`~repro.trace.deposet.Deposet`
  values (states, messages, control, timestamps);
* the causal index agrees clock-for-clock;
* every detection engine (exhaustive | slice) returns the
  same verdicts on both snapshots **and** does the same amount of work
  (identical ``detection.slice.states`` accounting) -- the sqlite
  backend may not quietly change what the engines compute over.

Hypothesis drives the seeds; each example builds its stores in a fresh
temporary directory (a plain context manager rather than ``tmp_path`` --
function-scoped fixtures are not reset between generated examples).
"""

import io
import json
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection import (
    definitely,
    definitely_exhaustive,
    possibly,
    possibly_exhaustive,
)
from repro.obs import METRICS
from repro.store import TraceStore
from repro.trace.io import apply_stream_record, write_event_stream
from repro.workloads import availability_predicate, random_deposet

SMALL = dict(n=3, events_per_proc=5, message_rate=0.4, flip_rate=0.4)


@contextmanager
def fresh_dir():
    with tempfile.TemporaryDirectory(prefix="repro-storage-eq-") as td:
        yield Path(td)


def stream_records(seed):
    dep = random_deposet(seed=seed, **SMALL)
    buf = io.StringIO()
    write_event_stream(dep, buf)
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def bad(n=3):
    return availability_predicate(n, "up").negated()


def shape_of(header):
    return dict(
        n=len(header["start"]),
        start_vars=header["start"],
        proc_names=header.get("proc_names"),
        start_times=header.get("start_times"),
    )


def open_pair(records, tmp_path, name="eq.db"):
    """The same header shape opened on both backends."""
    kwargs = shape_of(records[0])
    mem = TraceStore.open("memory", **kwargs)
    sql = TraceStore.open(f"sqlite:{tmp_path / name}", **kwargs)
    return mem, sql


def feed_both(records, tmp_path, *, checkpoints=()):
    """Apply the stream to both backends; ``checkpoints`` are record
    indices where the sqlite store commits and reopens cold (the page
    cache and dirty tail are discarded -- everything must survive the
    round-trip through the chain)."""
    mem, sql = open_pair(records, tmp_path)
    path = sql.path
    for i, rec in enumerate(records[1:], start=1):
        apply_stream_record(mem, rec, f"mem:{i}")
        apply_stream_record(sql, rec, f"sql:{i}")
        if i in checkpoints:
            sql.commit()
            sql.close()
            sql = TraceStore.open(f"sqlite:{path}")
    sql.commit()
    return mem, sql


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_snapshots_and_clocks_identical(seed):
    records = stream_records(seed)
    mid = len(records) // 2
    with fresh_dir() as tmp_path:
        mem, sql = feed_both(records, tmp_path, checkpoints=(mid,))
        try:
            assert sql.state_counts == mem.state_counts
            assert sql.epoch == mem.epoch
            assert sql.messages == mem.messages
            assert sql.control_arrows == mem.control_arrows
            assert sql.snapshot() == mem.snapshot()
            for p in range(mem.n):
                assert np.array_equal(
                    sql.index.clock_matrix(p), mem.index.clock_matrix(p)
                )
        finally:
            sql.close()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_verdicts_and_accounting_identical(seed):
    with fresh_dir() as tmp_path:
        records = stream_records(seed)
        mem, sql = feed_both(records, tmp_path)
        try:
            pred = bad(mem.n)
            results = {}
            for label, store in (("mem", mem), ("sql", sql)):
                dep = store.snapshot()
                with METRICS.scoped() as scope:
                    results[label] = (
                        possibly(dep, pred, engine="slice"),
                        definitely(dep, pred, engine="slice"),
                        possibly_exhaustive(dep, pred),
                        definitely_exhaustive(dep, pred),
                        scope.counter("detection.slice.states"),
                    )
                # the counter is read inside the scope on purpose: it
                # must cover exactly this store's detection work
            assert results["sql"] == results["mem"]
        finally:
            sql.close()


def first_valid_control_arrow(dep):
    """Some control arrow the causal order accepts without a cycle."""
    from repro.errors import ReproError

    order = dep.order
    for sp in range(dep.n):
        for dp in range(dep.n):
            if sp == dp:
                continue
            for si in range(dep.state_counts[sp]):
                for di in range(1, dep.state_counts[dp]):
                    src, dst = (sp, si), (dp, di)
                    if not order.concurrent(src, dst):
                        continue
                    try:
                        order.extended([(src, dst)])
                    except ReproError:
                        continue
                    return src, dst
    return None


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_branch_fork_matches_memory_fork(seed):
    """COW forks on both backends, divergence isolated identically."""
    with fresh_dir() as tmp_path:
        records = stream_records(seed)
        mem, sql = feed_both(records, tmp_path)
        mem_fork = mem.branch("candidate-1")
        sql_fork = sql.branch("candidate-1")
        try:
            assert sql_fork.snapshot() == mem_fork.snapshot()
            # diverge the forks with a control arrow between concurrent
            # states (if any); the parents must not see it
            arrow = first_valid_control_arrow(mem.snapshot())
            if arrow is None:
                return  # fully ordered trace: nothing to control
            for fork in (mem_fork, sql_fork):
                fork.append_control(*arrow)
            sql_fork.commit()
            assert sql_fork.snapshot() == mem_fork.snapshot()
            assert sql.snapshot() == mem.snapshot()  # parents untouched
            assert sql.epoch == mem.epoch
            # and a cold reopen of the branch still sees the divergence
            path = sql.path
            sql_fork.close()
            sql_fork = TraceStore.open(f"sqlite:{path}", branch="candidate-1")
            assert sql_fork.snapshot() == mem_fork.snapshot()
        finally:
            sql.close()
            sql_fork.close()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_tiny_pages_and_cache_change_nothing(seed):
    """Page size 2 + a 2-page cache: every read path goes through page
    faults and evictions, and the verdicts still match in-memory."""
    with fresh_dir() as tmp_path:
        records = stream_records(seed)
        kwargs = shape_of(records[0])
        mem = TraceStore.open("memory", **kwargs)
        sql = TraceStore.open(f"sqlite:{tmp_path / 'tiny.db'}",
                              page_size=2, cache_pages=2, **kwargs)
        for i, rec in enumerate(records[1:], start=1):
            apply_stream_record(mem, rec, f"mem:{i}")
            apply_stream_record(sql, rec, f"sql:{i}")
        sql.commit()
        path = sql.path
        sql.close()
        with METRICS.scoped() as scope:
            sql = TraceStore.open(f"sqlite:{path}", cache_pages=2)
            try:
                assert sql.snapshot() == mem.snapshot()
                pred = bad(mem.n)
                assert possibly(sql.snapshot(), pred) == possibly(
                    mem.snapshot(), pred
                )
            finally:
                sql.close()
        if sum(mem.state_counts) > 3 * 4:  # more pages than the cache holds
            assert scope.counter("store.sqlite.page_evictions") > 0
