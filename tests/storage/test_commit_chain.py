"""What each commit-chain operation costs, and that it is all or nothing.

* Creating a store -- schema, format and shape rows, init commit -- is
  one SQLite transaction: a failure inside it leaves an uninitialised
  store, never a half-created one.
* A fork copies the open store's memory: the live fork, a cold reopen
  of its branch and an in-memory fork agree state for state and clock
  for clock, and the parent never sees the fork's appends.  A fork
  shares its parent's clock rows: appends and arrow inserts on either
  side, interleaved, leave both sides (and their snapshots) with the
  clocks reachability gives.
* A reopen builds the causal index with one batch propagation; its
  clocks equal a batch :class:`CausalOrder` over the recorded arrows.
* Recording a candidate relation replays the chain at most once,
  inserts the arrows as one batch, and is one write transaction that
  also writes the branch row: it leaves no branch behind when the
  relation is rejected or the commit fails, even by a crash.
"""

import os
import sqlite3
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.storage.sqlite as sqlite_mod
from repro.causality.relations import CausalOrder, CycleError
from repro.errors import MalformedTraceError, StorageError
from repro.storage import (
    chain_log,
    init_db,
    list_branches,
    record_control_branch,
)
from repro.storage.sqlite import SqliteStore
from repro.store import CausalIndex, TraceStore
from repro.workloads import random_deposet

from ..oracles import reachability_clocks
from .test_backend_equivalence import (
    feed_both,
    first_valid_control_arrow,
    stream_records,
)


@contextmanager
def fresh_dir():
    with tempfile.TemporaryDirectory(prefix="repro-chain-") as td:
        yield Path(td)


def small_trace(seed=1):
    # three or more states on every process, so a two-arrow cycle exists
    return random_deposet(n=3, events_per_proc=6, message_rate=0.3,
                          flip_rate=0.3, seed=seed)


def valid_relation(dep, limit):
    """Up to ``limit`` control arrows that keep ``dep`` acyclic, found
    greedily (``src`` completes before ``dst``'s next state is entered)."""
    relation = []
    order = CausalIndex(dep.state_counts, dep.order.arrows)
    for sp in range(dep.n):
        for si in range(dep.state_counts[sp] - 1):
            for dp in range(dep.n):
                if dp == sp or len(relation) >= limit:
                    continue
                arrow = ((sp, si), (dp, min(si + 1, dep.state_counts[dp] - 1)))
                try:
                    order = order.extended([arrow])
                except MalformedTraceError:
                    continue
                relation.append(arrow)
    return relation


# -- create -------------------------------------------------------------------


def traced_connect(monkeypatch, log):
    original = sqlite_mod._connect

    def connect(path):
        conn = original(path)
        conn.set_trace_callback(log.append)
        return conn

    monkeypatch.setattr(sqlite_mod, "_connect", connect)


def test_create_is_one_transaction(tmp_path, monkeypatch):
    log = []
    traced_connect(monkeypatch, log)
    TraceStore.open(f"sqlite:{tmp_path / 't.db'}", n=3).close()
    words = [stmt.split()[0] for stmt in log]
    assert words.count("COMMIT") == 1
    begin = words.index("BEGIN")
    writes = [i for i, w in enumerate(words)
              if w in ("CREATE", "INSERT", "UPDATE", "DELETE")]
    assert writes and begin < min(writes) and max(writes) < words.index(
        "COMMIT")
    assert sum(w == "CREATE" for w in words) == 4


def test_reopen_and_shaped_open_of_existing_tables_skip_the_ddl(
        tmp_path, monkeypatch):
    path = tmp_path / "t.db"
    init_db(str(path))
    log = []
    traced_connect(monkeypatch, log)
    TraceStore.open(f"sqlite:{path}", n=2).close()
    TraceStore.open(f"sqlite:{path}").close()
    assert not [stmt for stmt in log if stmt.startswith("CREATE")]
    # a reopen writes nothing at all
    reopen = log[log.index("COMMIT") + 1:]
    assert not [s for s in reopen if s.split()[0] in ("BEGIN", "INSERT")]


class FailingBranchBump(sqlite3.Connection):
    """Fails the init commit's last statement: the branch-head bump,
    after the schema, meta rows, commit row and pages were written."""

    def execute(self, sql, *args):
        if sql.startswith("INSERT OR REPLACE INTO branches"):
            raise sqlite3.OperationalError("injected failure")
        return super().execute(sql, *args)


@pytest.mark.parametrize("pre_init", [False, True],
                         ids=["fresh-file", "after-db-init"])
def test_failed_init_commit_leaves_an_uninitialised_store(
        tmp_path, monkeypatch, pre_init):
    path = tmp_path / "t.db"
    if pre_init:
        init_db(str(path))
    original = sqlite_mod._connect

    def failing(p):
        conn = sqlite3.connect(p, timeout=30.0, check_same_thread=False,
                               factory=FailingBranchBump)
        conn.row_factory = sqlite3.Row
        return conn

    monkeypatch.setattr(sqlite_mod, "_connect", failing)
    with pytest.raises(sqlite3.OperationalError, match="injected"):
        TraceStore.open(f"sqlite:{path}", n=3,
                        start_vars=[{"up": True}] * 3)
    monkeypatch.setattr(sqlite_mod, "_connect", original)
    # nothing of the create survived: an unshaped open says uninitialised
    with pytest.raises(StorageError, match="uninitialised"):
        TraceStore.open(f"sqlite:{path}")
    # and a shaped open creates the store from scratch
    store = TraceStore.open(f"sqlite:{path}", n=3,
                            start_vars=[{"up": True}] * 3)
    try:
        assert store.state_counts == (1, 1, 1)
        assert [e["kind"] for e in chain_log(str(path))] == ["init"]
    finally:
        store.close()


# -- fork and reopen ------------------------------------------------------------


def clocks(store):
    return [store.index.clock_matrix(p).copy() for p in range(store.n)]


def assert_same_store(a, b):
    assert a.state_counts == b.state_counts
    assert a.epoch == b.epoch
    assert a.messages == b.messages
    assert a.control_arrows == b.control_arrows
    for p in range(a.n):
        assert np.array_equal(a.index.clock_matrix(p),
                              b.index.clock_matrix(p)), p
        for i in range(a.state_counts[p]):
            assert a.state_vars((p, i)) == b.state_vars((p, i)), (p, i)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000),
       procs=st.lists(st.integers(min_value=0, max_value=2), max_size=6))
def test_live_fork_equals_cold_reopen_and_memory_fork(seed, procs):
    with fresh_dir() as tmp_path:
        records = stream_records(seed)
        mem, sql = feed_both(records, tmp_path)
        parent = (sql.state_counts, sql.epoch, sql.messages,
                  sql.control_arrows, clocks(sql))
        mem_fork = mem.branch("candidate-1")
        sql_fork = sql.branch("candidate-1")
        cold = None
        try:
            arrow = first_valid_control_arrow(mem.snapshot())
            for fork in (mem_fork, sql_fork):
                for k, p in enumerate(procs):
                    fork.append_state(p, {"up": k % 2 == 0, "k": k})
                if arrow is not None:
                    fork.append_controls([arrow])
            sql_fork.commit(message="diverged")
            cold = TraceStore.open(f"sqlite:{sql.path}",
                                   branch="candidate-1")
            assert_same_store(sql_fork, mem_fork)
            assert_same_store(cold, mem_fork)
            # the parent saw none of it, in memory or on disk
            assert (sql.state_counts, sql.epoch, sql.messages,
                    sql.control_arrows) == parent[:4]
            for p in range(sql.n):
                assert np.array_equal(sql.index.clock_matrix(p),
                                      parent[4][p])
            assert_same_store(sql, mem)
            cold.close()
            cold = TraceStore.open(f"sqlite:{sql.path}")
            assert_same_store(cold, mem)
        finally:
            sql.close()
            sql_fork.close()
            if cold is not None:
                cold.close()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000),
       split=st.integers(min_value=1, max_value=4))
def test_reopened_ctl_batches_have_batch_order_clocks(seed, split):
    dep = random_deposet(seed=seed, n=3, events_per_proc=5,
                         message_rate=0.4, flip_rate=0.4)
    base = dep.without_control()
    relation = valid_relation(base, 6)
    with fresh_dir() as tmp_path:
        path = tmp_path / "t.db"
        store = TraceStore.from_deposet(base, f"sqlite:{path}")
        store.commit(message="base")
        for lo in range(0, len(relation), split):
            store.append_controls(relation[lo:lo + split])
            store.commit(message="ctl batch")
        store.close()
        reopened = TraceStore.open(f"sqlite:{path}")
        try:
            batch = CausalOrder(
                reopened.state_counts,
                [(m.src, m.dst) for m in reopened.messages]
                + list(reopened.control_arrows),
            )
            for p in range(reopened.n):
                assert np.array_equal(reopened.index.clock_matrix(p),
                                      batch.clock_matrix(p))
            assert reopened.epoch == len(relation)
            assert list(reopened.control_arrows) == [
                tuple(map(tuple, a)) for a in relation]
        finally:
            reopened.close()


@pytest.mark.parametrize("ops, match", [
    ([["ctl", [0, 1], [1, 1]], ["ctl", [1, 1], [0, 1]]], "not a valid"),
    ([["ev", 7, None]], "malformed 'ev'"),
    ([["recv", 1, None, [0]]], "malformed 'recv'"),
    ([["ctl", [0, 0], [1, 99]]], "not a valid"),
    ([["zap"]], "unknown op"),
], ids=["cyclic-ctl", "no-such-process", "short-recv", "bad-endpoint",
        "unknown-op"])
def test_damaged_ops_with_a_valid_crc_raise_storage_corrupt(tmp_path, ops,
                                                           match):
    """The batch reopen judges the whole chain: ops that pass their CRC
    but form no computation are corruption, never a guess."""
    import json

    from repro.errors import StorageCorruptError

    path = tmp_path / "t.db"
    store = TraceStore.from_deposet(small_trace(), f"sqlite:{path}")
    store.commit(message="base")
    store.append_state(0, {"up": False})
    store.commit(message="to be damaged")
    store.close()
    body = json.dumps(ops, separators=(",", ":")).encode()
    conn = sqlite3.connect(str(path))
    with conn:
        conn.execute(
            "UPDATE commits SET ops = ?, crc = ? WHERE id = "
            "(SELECT MAX(id) FROM commits)",
            (body, sqlite_mod._crc(body)),
        )
    conn.close()
    with pytest.raises(StorageCorruptError, match=match):
        TraceStore.open(f"sqlite:{path}")


def test_branch_does_not_replay_the_chain(tmp_path, monkeypatch):
    store = TraceStore.from_deposet(small_trace(), f"sqlite:{tmp_path / 't.db'}")

    def no_replay(*args, **kwargs):
        raise AssertionError("branch() replayed the chain")

    monkeypatch.setattr(SqliteStore, "open_path", no_replay)
    monkeypatch.setattr(SqliteStore, "_load_chain", no_replay)
    fork = store.branch("x")
    try:
        assert fork.branch_name == "x" and fork.head == store.head
        assert fork.snapshot() == store.snapshot()
    finally:
        fork.close()
        store.close()


def assert_reachability_clocks(view, order):
    """``order`` (a store's index or a snapshot's order) has the clocks
    reachability gives over ``view``'s messages and control arrows."""
    arrows = [(m.src, m.dst) for m in view.messages]
    arrows += list(view.control_arrows)
    expected = reachability_clocks(view.state_counts, arrows)
    for p, rows in enumerate(expected):
        assert order.clock_matrix(p).tolist() == rows, p


def apply_step(store, op, p, q, f, g, k):
    """One append, arrow insert or snapshot on ``store``; an input the
    model rejects must leave the store as it was (checked by the clocks
    after the step).  Returns a snapshot for ``"snap"``."""
    counts = store.state_counts
    if op == "snap":
        return store.snapshot()
    try:
        if op == "ev":
            store.append_state(p, {"k": k})
        elif op == "recv" and q != p and counts[q] > 1:
            # f = 0: q's latest event, free for a message after an "ev"
            src = (q, counts[q] - 2 - f % (counts[q] - 1))
            store.append_state(p, {"k": k}, received_from=src)
        elif op == "ctl" and q != p:
            store.append_controls(
                [((q, f % counts[q]), (p, g % counts[p]))])
    except MalformedTraceError:  # includes CycleError
        pass
    return None


STEPS = st.lists(
    st.tuples(st.sampled_from(["parent", "fork"]),
              st.sampled_from(["ev", "ev", "recv", "ctl", "snap"]),
              st.integers(0, 2), st.integers(0, 2),
              st.integers(0, 9), st.integers(0, 9)),
    min_size=1, max_size=14,
)


# One side receives on process 0 while the other enters the same state
# index plainly: an append into a shared block overwrites the other
# side's row -- after a fresh fork, or after the fork took a snapshot.
RECV_THEN_PLAIN = [("parent", "ev", 1, 0, 0, 0),
                   ("parent", "recv", 0, 1, 0, 0),
                   ("fork", "ev", 0, 0, 0, 0)]
SWAPPED = {"parent": "fork", "fork": "parent"}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000), steps=STEPS)
@example(seed=1, steps=RECV_THEN_PLAIN)
@example(seed=1, steps=[(SWAPPED[side], *rest)
                        for side, *rest in RECV_THEN_PLAIN])
@example(seed=1, steps=[("fork", "snap", 0, 0, 0, 0)] + RECV_THEN_PLAIN)
def test_parent_and_fork_share_clocks_without_writing_each_others(seed,
                                                                  steps):
    """Both sides stay appendable and share their clock rows until one
    writes; a write into a row the other side (or a snapshot) can see
    shows up as a clock that reachability does not give."""
    base = random_deposet(seed=seed, n=3, events_per_proc=3,
                          message_rate=0.3, flip_rate=0.3)
    with fresh_dir() as tmp_path:
        for target in ("memory", f"sqlite:{tmp_path / 't.db'}"):
            parent = TraceStore.from_deposet(base, target)
            sides = {"parent": parent, "fork": parent.branch("fork")}
            snaps = []
            try:
                for k, (side, op, p, q, f, g) in enumerate(steps):
                    snap = apply_step(sides[side], op, p, q, f, g, k)
                    if snap is not None:
                        snaps.append(snap)
                    for store in sides.values():
                        assert_reachability_clocks(store, store.index)
                for snap in snaps:
                    assert_reachability_clocks(snap, snap.order)
            finally:
                for store in sides.values():
                    store.close()


# -- recording a candidate -------------------------------------------------------


def test_record_replays_once_and_inserts_one_batch(tmp_path, monkeypatch):
    dep = small_trace()
    target = f"sqlite:{tmp_path / 't.db'}"
    record_control_branch(target, dep, [])  # populate main
    relation = valid_relation(dep, 3)
    assert len(relation) == 3
    loads, inserts = [], []
    load_chain, insert = SqliteStore._load_chain, CausalIndex._insert

    def counting_load(self, rows):
        loads.append(len(rows))
        return load_chain(self, rows)

    def counting_insert(self, arrows):
        arrows = list(arrows)
        inserts.append(len(arrows))
        return insert(self, arrows)

    monkeypatch.setattr(SqliteStore, "_load_chain", counting_load)
    monkeypatch.setattr(CausalIndex, "_insert", counting_insert)
    name, _cid = record_control_branch(target, dep, relation)
    assert len(loads) == 1
    assert inserts == [3]
    fork = TraceStore.open(target, branch=name)
    try:
        assert list(fork.control_arrows) == relation
    finally:
        fork.close()


@pytest.mark.parametrize("relation, error", [
    ([((0, 0), (1, 1)), ((0, 999), (1, 1))], MalformedTraceError),
    ([((0, 1), (1, 1)), ((1, 1), (0, 1))], CycleError),
], ids=["bad-endpoint", "interfering"])
def test_failed_record_leaves_no_branch(tmp_path, relation, error):
    dep = small_trace()
    db = str(tmp_path / "t.db")
    target = f"sqlite:{db}"
    with pytest.raises(error):
        record_control_branch(target, dep, relation)
    # main holds the base computation; no candidate was left behind
    assert [b["name"] for b in list_branches(db)] == ["main"]
    # the failed attempt did not take the name either
    name, cid = record_control_branch(target, dep, valid_relation(dep, 1))
    assert name == "candidate-1"
    log = chain_log(db, name)
    assert log[-1]["id"] == cid and log[-1]["meta"]["arrows"] == 1
    with pytest.raises(error):
        record_control_branch(target, dep, relation)
    assert [b["name"] for b in list_branches(db)] == ["candidate-1", "main"]


def test_page_with_an_unencodable_value_keeps_the_per_value_form(tmp_path):
    """One ``json.dumps`` per page; a page JSON cannot encode falls back
    to replacing just the offending values, as the per-value form did."""
    import json

    path = tmp_path / "t.db"
    store = TraceStore.open(f"sqlite:{path}", n=1, start_vars=[{"x": 1}])
    odd = object()
    store.append_state(0, {"x": 2, "odd": odd})
    store.commit()
    store.close()
    conn = sqlite3.connect(str(path))
    try:
        (body,) = conn.execute(
            "SELECT body FROM pages ORDER BY rowid DESC").fetchone()
    finally:
        conn.close()
    expected = [{"x": 1}, {"x": 2, "odd": {"__repr__": repr(odd)}}]
    assert body == json.dumps(expected, separators=(",", ":")).encode()
    reopened = TraceStore.open(f"sqlite:{path}")
    try:
        assert reopened.state_vars((0, 1)) == expected[1]
    finally:
        reopened.close()


def recorded_main(tmp_path):
    """A store whose ``main`` holds ``small_trace()``, and a relation."""
    dep = small_trace()
    target = f"sqlite:{tmp_path / 't.db'}"
    store = TraceStore.from_deposet(dep, target)
    store.commit(message="base")
    store.close()
    return dep, target, valid_relation(dep, 2)


def db_rows(db, sql):
    conn = sqlite3.connect(db)
    try:
        return conn.execute(sql).fetchall()
    finally:
        conn.close()


def test_record_is_one_write_transaction(tmp_path, monkeypatch):
    dep, target, relation = recorded_main(tmp_path)
    log = []
    traced_connect(monkeypatch, log)
    name, cid = record_control_branch(target, dep, relation)
    words = [stmt.split()[0] for stmt in log]
    assert words.count("COMMIT") == 1
    begin, commit = words.index("BEGIN"), words.index("COMMIT")
    writes = [i for i, w in enumerate(words)
              if w in ("CREATE", "INSERT", "UPDATE", "DELETE")]
    assert writes and begin < min(writes) and max(writes) < commit
    # the one transaction holds the verdict commit and the branch row
    assert any(s.startswith("INSERT INTO commits") for s in log)
    assert any("INTO branches" in s for s in log)
    db = target[len("sqlite:"):]
    assert chain_log(db, name)[-1]["id"] == cid
    row = {b["name"]: b for b in list_branches(db)}[name]
    assert row == {"name": name, "head": cid, "forked_from": "main"}


class FailingCandidateCommit(sqlite3.Connection):
    """Fails the candidate commit's row insert, inside its transaction."""

    def execute(self, sql, *args):
        if sql.startswith("INSERT INTO commits") and args[0][1] == "replay":
            raise sqlite3.OperationalError("injected failure")
        return super().execute(sql, *args)


CRASH_IN_CANDIDATE_COMMIT = """
import os, sqlite3, sys
import repro.storage.sqlite as sqlite_mod
from repro.storage import record_control_branch
from repro.workloads import random_deposet

class Crash(sqlite3.Connection):
    def execute(self, sql, *args):
        cur = super().execute(sql, *args)
        if sql.startswith("INSERT INTO commits") and args[0][1] == "replay":
            os._exit(17)  # the commit row is written, not committed
        return cur

def connect(path):
    conn = sqlite3.connect(path, timeout=30.0, check_same_thread=False,
                           factory=Crash)
    conn.row_factory = sqlite3.Row
    return conn

sqlite_mod._connect = connect
dep = random_deposet(n=3, events_per_proc=6, message_rate=0.3,
                     flip_rate=0.3, seed=1)
record_control_branch(sys.argv[1], dep, [((0, 0), (1, 1))])
"""


@pytest.mark.parametrize("failure", ["raise", "crash"])
def test_failed_candidate_commit_leaves_no_branch_and_no_commit(
        tmp_path, monkeypatch, failure):
    dep, target, relation = recorded_main(tmp_path)
    db = target[len("sqlite:"):]
    commits = db_rows(db, "SELECT id FROM commits")
    if failure == "raise":
        def failing(p):
            conn = sqlite3.connect(p, timeout=30.0, check_same_thread=False,
                                   factory=FailingCandidateCommit)
            conn.row_factory = sqlite3.Row
            return conn

        monkeypatch.setattr(sqlite_mod, "_connect", failing)
        with pytest.raises(sqlite3.OperationalError, match="injected"):
            record_control_branch(target, dep, relation, kind="replay")
        monkeypatch.undo()
    else:
        src = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", CRASH_IN_CANDIDATE_COMMIT, target],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60,
        )
        assert proc.returncode == 17, proc.stderr
    # the reopen rolls an interrupted transaction back: nothing was left
    assert [b["name"] for b in list_branches(db)] == ["main"]
    assert db_rows(db, "SELECT id FROM commits") == commits
    name, _cid = record_control_branch(target, dep, relation)
    assert name == "candidate-1"
