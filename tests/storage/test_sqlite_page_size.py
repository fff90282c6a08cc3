"""Every store is created with ``SQLITE_PAGE_BYTES`` SQLite pages.

The rollback journal copies each database page a transaction touches,
so the page size sets what a small commit writes.  Every path that
creates a store uses the one constant; a store created with SQLite's
4096-byte default (every store made before the constant existed) keeps
working unchanged, and ``gc``'s VACUUM converts it: it rewrites every
page anyway, so the conversion costs nothing extra and the store's later
commits get the small-page cost too.
"""

import sqlite3

import pytest

import repro.storage.sqlite as sqlite_mod
from repro.cli import main
from repro.storage import gc_store, init_db, record_control_branch
from repro.storage.sqlite import SQLITE_PAGE_BYTES
from repro.store import TraceStore
from repro.trace.io import stream_store_from_header
from repro.workloads import random_deposet

from .test_commit_chain import valid_relation

LEGACY_PAGE_BYTES = 4096


def query(path, sql):
    conn = sqlite3.connect(str(path))
    try:
        return conn.execute(sql).fetchall()
    finally:
        conn.close()


def page_bytes(path):
    return query(path, "PRAGMA page_size")[0][0]


def small_trace():
    return random_deposet(n=3, events_per_proc=6, message_rate=0.3,
                          flip_rate=0.3, seed=1)


def create_open(path):
    TraceStore.open(f"sqlite:{path}", n=2).close()


def create_from_deposet(path):
    TraceStore.from_deposet(small_trace(), f"sqlite:{path}").close()


def create_init_db(path):
    init_db(str(path))


def create_cli_db_init(path):
    assert main(["db", "init", str(path)]) == 0


def create_init_db_then_open(path):
    init_db(str(path))
    TraceStore.open(f"sqlite:{path}", n=2).close()


def create_stream_header(path):
    header = {"format": "repro-events/1", "start": [{"up": True}] * 2}
    stream_store_from_header(header, "test:1", f"sqlite:{path}").close()


@pytest.mark.parametrize("create", [
    create_open, create_from_deposet, create_init_db, create_cli_db_init,
    create_init_db_then_open, create_stream_header,
], ids=lambda fn: fn.__name__[len("create_"):])
def test_every_create_path_uses_the_constant_page_size(tmp_path, create):
    assert SQLITE_PAGE_BYTES == 1024
    path = tmp_path / "t.db"
    create(path)
    assert page_bytes(path) == SQLITE_PAGE_BYTES


def exercise(db):
    """Reopen, commit, fork, record a candidate and gc; the snapshots
    of every branch along the way."""
    target = f"sqlite:{db}"
    store = TraceStore.open(target)
    store.append_state(0, {"up": False})
    store.commit(message="more")
    fork = store.branch("probe")
    fork.append_state(1, {"up": True})
    fork.commit(message="probe diverged")
    main_dep = store.snapshot()
    seen = [main_dep, fork.snapshot()]
    fork.close()
    store.close()
    name, _cid = record_control_branch(target, main_dep,
                                       valid_relation(main_dep, 2))
    assert name == "candidate-1"
    gc_store(str(db))
    for branch in ("main", "probe", name):
        reopened = TraceStore.open(target, branch=branch)
        try:
            seen.append(reopened.snapshot())
        finally:
            reopened.close()
    return seen


def test_a_4096_byte_page_store_works_and_gc_converts_it(tmp_path,
                                                          monkeypatch):
    dep = small_trace()
    legacy, fresh = tmp_path / "legacy.db", tmp_path / "fresh.db"
    monkeypatch.setattr(sqlite_mod, "SQLITE_PAGE_BYTES", LEGACY_PAGE_BYTES)
    TraceStore.from_deposet(dep, f"sqlite:{legacy}").close()
    monkeypatch.undo()
    TraceStore.from_deposet(dep, f"sqlite:{fresh}").close()
    assert page_bytes(legacy) == LEGACY_PAGE_BYTES
    assert page_bytes(fresh) == SQLITE_PAGE_BYTES
    assert exercise(legacy) == exercise(fresh)
    # the decision: gc's VACUUM converts an older store's pages
    assert page_bytes(legacy) == SQLITE_PAGE_BYTES
    # the stored rows are the same, page size aside
    for table in ("meta", "commits", "branches", "pages"):
        sql = f"SELECT * FROM {table} ORDER BY 1, 2"
        assert query(legacy, sql) == query(fresh, sql), table
