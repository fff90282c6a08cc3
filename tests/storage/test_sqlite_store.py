"""SqliteStore unit behavior: chain, branches, CRC, cache, gc.

The equivalence suite proves the backend *agrees* with memory; this one
pins the durable-only behaviors -- what the chain looks like, how it
fails (corruption raises, it never guesses), and what maintenance does.
"""

import json
import sqlite3

import pytest

from repro.errors import (
    StorageCorruptError,
    StorageError,
    UnknownBranchError,
    UnknownFreezeFormatError,
)
from repro.obs import METRICS
from repro.storage import (
    STORE_FORMAT,
    chain_log,
    create_branch,
    delete_branch,
    gc_store,
    init_db,
    list_branches,
)
from repro.store import TraceStore
from repro.store.trace_store import FREEZE_FORMAT
from repro.workloads import random_deposet


def make_store(path, seed=3):
    dep = random_deposet(seed=seed, n=3, events_per_proc=6,
                         message_rate=0.4, flip_rate=0.4)
    store = TraceStore.from_deposet(dep, f"sqlite:{path}")
    return store, dep


def test_chain_records_every_commit(tmp_path):
    path = tmp_path / "t.db"
    store, dep = make_store(path)
    c1 = store.commit(kind="append", message="ingested")
    store.append_state(0, {"up": False})
    c2 = store.commit(message="one more state")
    store.close()
    log = chain_log(str(path))
    assert [e["kind"] for e in log] == ["init", "append", "append"]
    assert log[-1]["id"] == c2
    assert log[-1]["parent"] == c1
    assert log[0]["parent"] is None
    assert tuple(log[-1]["counts"]) == tuple(
        a + b for a, b in zip(dep.state_counts, (1, 0, 0))
    )


def test_commit_with_nothing_pending_returns_head(tmp_path):
    store, _ = make_store(tmp_path / "t.db")
    c1 = store.commit()
    assert store.commit() == c1
    assert store.head == c1
    store.close()


def test_reopen_equals_original(tmp_path):
    path = tmp_path / "t.db"
    store, dep = make_store(path)
    store.commit()
    frozen = store.freeze()
    store.close()
    again = TraceStore.open(f"sqlite:{path}")
    try:
        assert again.snapshot() == dep
        assert again.freeze() == frozen
    finally:
        again.close()


def test_unknown_branch_raises(tmp_path):
    path = tmp_path / "t.db"
    store, _ = make_store(path)
    store.commit()
    store.close()
    with pytest.raises(UnknownBranchError):
        TraceStore.open(f"sqlite:{path}", branch="nope")
    with pytest.raises(UnknownBranchError):
        chain_log(str(path), "nope")


def test_shape_conflict_rejected(tmp_path):
    path = tmp_path / "t.db"
    store, _ = make_store(path)
    store.commit()
    store.close()
    with pytest.raises(StorageError):
        TraceStore.open(f"sqlite:{path}", n=7)


def test_uninitialised_store_needs_shape(tmp_path):
    path = tmp_path / "empty.db"
    init_db(str(path))
    with pytest.raises(StorageError):
        TraceStore.open(f"sqlite:{path}")
    # db init pre-creates schema + format; a later shaped open completes it
    store = TraceStore.open(f"sqlite:{path}", n=2)
    assert store.state_counts == (1, 1)
    store.close()


def test_non_store_file_is_corrupt_not_crash(tmp_path):
    path = tmp_path / "garbage.db"
    path.write_bytes(b"this is not a sqlite database at all, not even close")
    with pytest.raises((StorageCorruptError, StorageError)):
        TraceStore.open(f"sqlite:{path}")


def test_ops_crc_corruption_detected(tmp_path):
    path = tmp_path / "t.db"
    store, _ = make_store(path)
    store.commit()
    store.close()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(
            "UPDATE commits SET ops = ? WHERE id = "
            "(SELECT MAX(id) FROM commits)",
            (b'[["ev",0,null]]',),
        )
    conn.close()
    with pytest.raises(StorageCorruptError) as exc:
        TraceStore.open(f"sqlite:{path}")
    assert "CRC" in str(exc.value)


def test_page_crc_corruption_detected(tmp_path):
    path = tmp_path / "t.db"
    store, _ = make_store(path)
    store.commit()
    store.close()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("UPDATE pages SET body = ?", (b"[{}]",))
    conn.close()
    store = TraceStore.open(f"sqlite:{path}")
    try:
        with pytest.raises(StorageCorruptError) as exc:
            for p in range(store.n):
                store.vars_prefix(p)
        assert "CRC" in str(exc.value)
    finally:
        store.close()


def test_missing_parent_commit_detected(tmp_path):
    path = tmp_path / "t.db"
    store, _ = make_store(path)
    store.append_state(1, {"up": False})
    store.commit()
    store.close()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("DELETE FROM commits WHERE id = "
                     "(SELECT MIN(id) FROM commits)")
    conn.close()
    with pytest.raises(StorageCorruptError):
        TraceStore.open(f"sqlite:{path}")


def test_gc_folds_dead_branches(tmp_path):
    path = tmp_path / "t.db"
    store, _ = make_store(path)
    store.commit()
    fork = store.branch("candidate-1")
    fork.append_state(0, {"up": False})
    fork.commit(kind="replay", meta={"verdict": "deadlock"})
    fork.close()
    store.close()
    assert {b["name"] for b in list_branches(str(path))} == {
        "main", "candidate-1"
    }
    # nothing dead yet: gc keeps everything
    before = gc_store(str(path))
    assert before["commits_removed"] == 0
    delete_branch(str(path), "candidate-1")
    after = gc_store(str(path))
    assert after["commits_removed"] == 1  # the fork's private commit
    # main is untouched and still opens
    again = TraceStore.open(f"sqlite:{path}")
    again.close()
    with pytest.raises(UnknownBranchError):
        TraceStore.open(f"sqlite:{path}", branch="candidate-1")


def test_delete_main_refused(tmp_path):
    path = tmp_path / "t.db"
    store, _ = make_store(path)
    store.commit()
    store.close()
    with pytest.raises(StorageError):
        delete_branch(str(path), "main")


def test_create_branch_at_older_commit(tmp_path):
    path = tmp_path / "t.db"
    store, _ = make_store(path)
    c1 = store.commit()
    store.append_state(2, {"up": False})
    store.commit()
    store.close()
    assert create_branch(str(path), "old", at_commit=c1) == c1
    old = TraceStore.open(f"sqlite:{path}", branch="old")
    try:
        assert old.head == c1
    finally:
        old.close()
    with pytest.raises(StorageError):
        create_branch(str(path), "old")  # already exists


def test_duplicate_branch_name_rejected(tmp_path):
    store, _ = make_store(tmp_path / "t.db")
    store.commit()
    fork = store.branch("x")
    fork.close()
    with pytest.raises(StorageError):
        store.branch("x")
    store.close()


def test_page_cache_metrics_move(tmp_path):
    path = tmp_path / "t.db"
    store, dep = make_store(path)
    store.commit()
    store.close()
    with METRICS.scoped() as scope:
        store = TraceStore.open(f"sqlite:{path}")
        store.vars_prefix(0)   # cold: page fault
        store.vars_prefix(0)   # warm: hit
        store.close()
    assert scope.counter("store.sqlite.page_misses") >= 1
    assert scope.counter("store.sqlite.page_hits") >= 1
    assert scope.counter("store.sqlite.reopens") == 1


def test_closed_store_refuses_commit(tmp_path):
    store, _ = make_store(tmp_path / "t.db")
    store.commit()
    store.close()
    with pytest.raises(StorageError):
        store.commit()


# -- freeze format (satellite a) ----------------------------------------------


def test_freeze_carries_format(tmp_path):
    store, _ = make_store(tmp_path / "t.db")
    frozen = store.freeze()
    store.close()
    assert frozen["format"] == FREEZE_FORMAT == "repro-freeze/1"
    assert STORE_FORMAT == "repro-store-sqlite/1"


def test_unknown_freeze_format_rejected(tmp_path):
    store, _ = make_store(tmp_path / "t.db")
    frozen = store.freeze()
    store.close()
    frozen["format"] = "repro-freeze/99"
    with pytest.raises(UnknownFreezeFormatError):
        TraceStore.restore(frozen)


def test_legacy_freeze_without_format_accepted(tmp_path):
    store, dep = make_store(tmp_path / "t.db")
    frozen = store.freeze()
    store.close()
    del frozen["format"]  # pre-PR-9 checkpoint payload
    clone = TraceStore.restore(json.loads(json.dumps(frozen)))
    assert clone.snapshot() == dep


def test_every_sqlite_commit_runs_through_tracestore_commit(tmp_path,
                                                            monkeypatch):
    """Profilers time commits by rebinding ``TraceStore.commit`` on the
    class; a SQLite store, and the branch recorder of the debugging loop,
    must reach the chain through that one attribute."""
    from repro.storage import record_control_branch

    kinds = []
    original = TraceStore.commit

    def counting(self, kind="append", message=None, meta=None):
        kinds.append(kind)
        return original(self, kind=kind, message=message, meta=meta)

    monkeypatch.setattr(TraceStore, "commit", counting)
    store, dep = make_store(tmp_path / "t.db")
    assert isinstance(store, TraceStore)
    assert kinds == ["init"]
    cid = store.commit(message="direct")
    assert cid == store.head and kinds == ["init", "append"]
    store.close()

    del kinds[:]
    name, cid = record_control_branch(
        f"sqlite:{tmp_path / 'r.db'}", dep, [], meta={"verdict": "replayed"})
    # create, base ingest, auto-commit before the fork, verdict commit
    assert kinds == ["init", "append", "append", "replay"]
    assert chain_log(str(tmp_path / "r.db"), name)[-1]["id"] == cid
