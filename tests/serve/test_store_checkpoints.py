"""Serve checkpoints on a commit-chain store (``--store sqlite:DIR``).

PR 7 checkpoints froze the whole TraceStore as JSON in every ``_ckpt``
record.  With a per-session SQLite chain a checkpoint instead commits
the appended suffix and records a tiny ``store_ref`` (target, branch,
commit id); restore reopens the chain at that commit.  These tests pin
the contract: identical post-restore behavior, O(1)-sized checkpoint
blobs, and the chain itself surviving where JSON freezing would.
"""

import json
import os

import pytest

from repro.serve.session import (
    DetectionSession,
    fresh_session_store_target,
    session_store_target,
)

from .conftest import PREDICATE, make_stream


def make_session(tmp_path, seed=1, **kwargs):
    dep, header, lines = make_stream(seed)
    target = fresh_session_store_target(str(tmp_path / "stores"), "acme/s1")
    sess = DetectionSession("acme", "s1", header, PREDICATE,
                           store_target=target, **kwargs)
    sess.open_event()
    return dep, header, lines, sess


def test_checkpoint_blob_is_a_commit_ref_not_a_freeze(tmp_path):
    _dep, _header, lines, sess = make_session(tmp_path)
    sess.feed(lines[: len(lines) // 2], base_lineno=2)
    snap = sess.snapshot()
    blob = snap["store"]
    assert set(blob) == {"store_ref"}
    ref = blob["store_ref"]
    assert ref["target"] == sess.store_target
    assert ref["branch"] == "main"
    assert isinstance(ref["commit"], int)
    # the ref is tiny regardless of trace size -- the whole point
    assert len(json.dumps(blob)) < 200
    sess.close()


def test_restore_from_commit_ref_replays_identically(tmp_path):
    _dep, header, lines, sess = make_session(tmp_path)
    cut = len(lines) // 2
    sess.feed(lines[:cut], base_lineno=2)
    snap = json.loads(json.dumps(sess.snapshot()))  # must be JSON-clean
    sess.feed(lines[cut:], base_lineno=2 + cut)
    expected_events = [dict(e) for e in sess.events_log]
    expected_final = sess.finalize()
    sess.close()

    sess2 = DetectionSession.restore("acme", "s1", header, PREDICATE, snap)
    assert sess2.store_target == snap["store"]["store_ref"]["target"]
    sess2.feed(lines[cut:], base_lineno=2 + cut)
    assert [dict(e) for e in sess2.events_log] == expected_events
    assert sess2.finalize() == expected_final
    sess2.close()


def test_checkpoint_commits_accumulate_on_one_chain(tmp_path):
    from repro.storage import chain_log, parse_store_target

    _dep, _header, lines, sess = make_session(tmp_path)
    third = max(1, len(lines) // 3)
    sess.feed(lines[:third], base_lineno=2)
    s1 = sess.snapshot()
    sess.feed(lines[third: 2 * third], base_lineno=2 + third)
    s2 = sess.snapshot()
    sess.close()
    c1 = s1["store"]["store_ref"]["commit"]
    c2 = s2["store"]["store_ref"]["commit"]
    assert c2 > c1
    _scheme, path = parse_store_target(s2["store"]["store_ref"]["target"])
    log = chain_log(path)
    kinds = [e["kind"] for e in log]
    assert kinds[0] == "init"
    assert kinds.count("checkpoint") == 2
    assert log[-1]["id"] == c2


def test_fresh_open_replaces_stale_database(tmp_path):
    """Opening the same tenant/session name again must not resurrect an
    earlier run's chain (only durable *restore* reopens it)."""
    _dep, header, lines, sess = make_session(tmp_path)
    sess.feed(lines, base_lineno=2)
    sess.snapshot()
    old_states = sess.store.num_states
    sess.close()
    _dep2, header2, lines2, sess2 = make_session(tmp_path, seed=1)
    assert sess2.store.num_states < old_states  # fresh, not appended-onto
    sess2.close()


def test_store_dir_names_are_sanitised(tmp_path):
    target = session_store_target(str(tmp_path), "acme/weird name:8080")
    fname = os.path.basename(target[len("sqlite:"):])
    assert fname == "acme_weird_name_8080.db"


def test_sessions_without_store_dir_freeze_as_before(tmp_path):
    """No --store: the PR 7 full-freeze checkpoint path is unchanged."""
    _dep, header, lines = make_stream(1)
    sess = DetectionSession("acme", "s1", header, PREDICATE)
    sess.open_event()
    sess.feed(lines[:3], base_lineno=2)
    snap = sess.snapshot()
    assert "store_ref" not in snap["store"]
    assert snap["store"]["format"] == "repro-freeze/1"
    sess2 = DetectionSession.restore("acme", "s1", header, PREDICATE, snap)
    sess2.feed(lines[3:], base_lineno=5)
    sess2.finalize()
    sess.close()
    sess2.close()
