"""The CLI surface of the commit-chain store.

``repro ingest/watch --store``, ``repro control/replay --store`` (the
active-debugging loop recorded as branches), and the ``repro db``
maintenance group.  These drive ``main()`` exactly like a user would
and assert on the printed chain, not internals.
"""

import json

import pytest

from repro.cli import main
from repro.store import TraceStore
from repro.trace import dump_deposet, load_deposet
from repro.workloads import random_deposet


@pytest.fixture()
def trace_file(tmp_path):
    # seed/shape chosen so `repro control` finds a controller for
    # at-least-one:up (checked by test_control_records_branch below)
    dep = random_deposet(n=3, events_per_proc=8, message_rate=0.3,
                         flip_rate=0.3, seed=1)
    path = tmp_path / "t.json"
    dump_deposet(dep, path)
    return str(path)


def db_of(tmp_path):
    return str(tmp_path / "trace.db")


def test_ingest_into_store_and_log(trace_file, tmp_path, capsys):
    db = db_of(tmp_path)
    assert main(["ingest", trace_file, "--store", f"sqlite:{db}"]) == 0
    out = capsys.readouterr().out
    assert "branch 'main'" in out and "commit #" in out
    assert main(["db", "log", db]) == 0
    log = capsys.readouterr().out
    assert "init" in log and "append" in log
    # the chain holds the same computation
    store = TraceStore.open(f"sqlite:{db}")
    try:
        assert store.snapshot() == load_deposet(trace_file)
    finally:
        store.close()


def test_ingest_needs_output_or_store(trace_file, capsys):
    assert main(["ingest", trace_file]) == 2
    assert "error" in capsys.readouterr().err


def test_ingest_refuses_nonfresh_store(trace_file, tmp_path, capsys):
    db = db_of(tmp_path)
    assert main(["ingest", trace_file, "--store", f"sqlite:{db}"]) == 0
    assert main(["ingest", trace_file, "--store", f"sqlite:{db}"]) == 3
    assert "fresh database" in capsys.readouterr().err


def test_db_init_then_ingest(trace_file, tmp_path, capsys):
    db = db_of(tmp_path)
    assert main(["db", "init", db]) == 0
    assert main(["ingest", trace_file, "--store", f"sqlite:{db}"]) == 0


def test_control_and_replay_record_branches(trace_file, tmp_path, capsys):
    """The acceptance-criteria flow: ingest -> control -> replay, each
    candidate on its own branch whose log shows parent -> verdict."""
    db = db_of(tmp_path)
    target = f"sqlite:{db}"
    assert main(["ingest", trace_file, "--store", target]) == 0
    capsys.readouterr()

    fixed = str(tmp_path / "fixed.json")
    assert main(["control", trace_file, "--predicate", "at-least-one:up",
                 "-o", fixed, "--store", target]) == 0
    out = capsys.readouterr().out
    assert "candidate-1" in out

    assert main(["replay", fixed, "--store", target]) == 0
    out = capsys.readouterr().out
    assert "candidate-2" in out

    assert main(["db", "branch", db]) == 0
    branches = capsys.readouterr().out
    assert "main" in branches and "candidate-1" in branches \
        and "candidate-2" in branches

    assert main(["db", "log", db, "--branch", "candidate-2"]) == 0
    log = capsys.readouterr().out
    assert "replay" in log and "verdict=" in log and "replayed" in log
    # the branch's chain starts at main's commits (parent linkage)
    assert "init" in log and "append" in log


def test_negative_verdicts_recorded_on_their_branch(trace_file, tmp_path,
                                                    capsys):
    """A candidate whose replay failed still records its verdict branch
    (the negative result is exactly what the debugging loop keeps) --
    this is the path `repro replay` takes when the engine deadlocks."""
    from repro.storage import record_control_branch
    from repro.trace import load_deposet

    db = db_of(tmp_path)
    dep = load_deposet(trace_file)
    name, cid = record_control_branch(
        f"sqlite:{db}", dep, [], kind="replay",
        meta={"verdict": "deadlock", "seed": 0},
    )
    assert name == "candidate-1"
    assert main(["db", "log", db, "--branch", "candidate-1"]) == 0
    out = capsys.readouterr().out
    assert "deadlock" in out and f"#{cid}" in out


def test_db_branch_create_delete_gc(trace_file, tmp_path, capsys):
    db = db_of(tmp_path)
    target = f"sqlite:{db}"
    assert main(["ingest", trace_file, "--store", target]) == 0
    assert main(["db", "branch", db, "experiment"]) == 0
    assert main(["db", "branch", db, "--delete", "experiment"]) == 0
    capsys.readouterr()
    assert main(["db", "gc", db]) == 0
    out = capsys.readouterr().out
    assert "commit(s)" in out
    assert main(["db", "log", db, "--branch", "experiment"]) == 3


def test_watch_into_store(trace_file, tmp_path, capsys):
    stream = str(tmp_path / "s.jsonl")
    db = db_of(tmp_path)
    assert main(["ingest", trace_file, "-o", stream]) == 0
    capsys.readouterr()
    rc = main(["watch", stream, "--predicate", "at-least-one:up",
               "--store", f"sqlite:{db}"])
    assert rc in (0, 1)  # verdict decides the exit code, not storage
    assert "[store]" in capsys.readouterr().out
    store = TraceStore.open(f"sqlite:{db}")
    try:
        assert store.snapshot() == load_deposet(trace_file)
    finally:
        store.close()


def _commit_ops(db):
    import sqlite3

    conn = sqlite3.connect(db)
    try:
        rows = conn.execute("SELECT kind, ops FROM commits ORDER BY id")
        return [(kind, json.loads(bytes(ops) if not isinstance(ops, str)
                                  else ops)) for kind, ops in rows]
    finally:
        conn.close()


def test_stream_ingest_journals_no_obs_op(trace_file, tmp_path, capsys):
    """A chain built from a stream carries no ``["obs", null]`` op, and a
    stream's trailing ``obs`` record still reopens with its block."""
    from repro.trace.io import write_event_stream

    dep = load_deposet(trace_file)
    plain = str(tmp_path / "plain.jsonl")
    write_event_stream(dep, plain)
    db = db_of(tmp_path)
    assert main(["ingest", plain, "--store", f"sqlite:{db}"]) == 0
    commits = _commit_ops(db)
    assert [kind for kind, _ops in commits] == ["init", "append"]
    assert all(op[0] != "obs" for _kind, ops in commits for op in ops)

    block = {"metrics": {"counters": {"sim.runs": 1}}}
    with_obs = str(tmp_path / "obs.jsonl")
    write_event_stream(dep, with_obs, obs=block)
    db2 = str(tmp_path / "obs.db")
    assert main(["ingest", with_obs, "--store", f"sqlite:{db2}"]) == 0
    obs_ops = [op for _kind, ops in _commit_ops(db2) for op in ops
               if op[0] == "obs"]
    assert obs_ops == [["obs", block]]
    store = TraceStore.open(f"sqlite:{db2}")
    try:
        assert store.obs == block
        assert store.snapshot() == dep
    finally:
        store.close()


def test_db_log_json_roundtrip(trace_file, tmp_path, capsys):
    db = db_of(tmp_path)
    assert main(["ingest", trace_file, "--store", f"sqlite:{db}"]) == 0
    capsys.readouterr()
    assert main(["db", "log", db, "--format", "json"]) == 0
    entries = [json.loads(line) for line in
               capsys.readouterr().out.splitlines() if line.strip()]
    assert [e["kind"] for e in entries] == ["init", "append"]
    assert entries[1]["parent"] == entries[0]["id"]
