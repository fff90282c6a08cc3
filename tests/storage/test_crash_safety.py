"""Kill-mid-commit crash safety of the SQLite commit chain.

Same flavour as the PR 7 WAL torn-tail suite, one layer down: a commit
is one SQLite transaction, so a ``kill -9`` at *any* point -- before,
during, or after the transaction -- must leave the store reopenable at
some prefix of the chain, never corrupt.  Appends since the last commit
are lost by design (the serve WAL covers finer granularity); what is
never acceptable is a reopen that raises or replays wrong counts.

The mid-transaction kill is deterministic: the child installs a SQLite
progress handler that SIGKILLs the process after a few VM steps inside
``commit()``, which is as close to "power loss during the write" as a
test can get without a custom VFS.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.store import TraceStore

SRC = str(Path(__file__).resolve().parents[2] / "src")


def run_child(code, *args, expect_kill=False):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    if expect_kill:
        assert proc.returncode == -signal.SIGKILL, (
            proc.returncode, proc.stdout, proc.stderr,
        )
    else:
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
    return proc


CHILD_SETUP = """
import os, signal, sys
from repro.store import TraceStore

path = sys.argv[1]
store = TraceStore.open(
    "sqlite:" + path, n=3, start_vars=[{"up": True}] * 3,
)
"""


def test_uncommitted_appends_roll_back(tmp_path):
    """Die after appending but before commit: reopen sees the last
    commit only, and the store keeps working."""
    path = tmp_path / "t.db"
    run_child(CHILD_SETUP + """
store.append_state(0, {"up": False})
store.commit(message="the only durable commit")
store.append_state(1, {"up": False})
store.append_state(2, {"up": False})
os._exit(0)  # simulated crash: no close, no commit
""", path)
    store = TraceStore.open(f"sqlite:{path}")
    try:
        assert store.state_counts == (2, 1, 1)
        assert store.state_vars((0, 1)) == {"up": False}
        # the survivor accepts new appends on the intact chain
        store.append_state(1, {"up": None})
        cid = store.commit()
        assert cid is not None
    finally:
        store.close()


def test_sigkill_inside_the_commit_transaction(tmp_path):
    """SIGKILL while the commit transaction is mid-flight: the whole
    commit (ops row, pages, branch bump) vanishes atomically."""
    path = tmp_path / "t.db"
    run_child(CHILD_SETUP + """
store.append_state(0, {"up": False})
c1 = store.commit(message="durable")
for i in range(40):
    store.append_state(i % 3, {"up": i % 2 == 0, "i": i})

def die(*a):
    os.kill(os.getpid(), signal.SIGKILL)

# fire a few VM instructions into the next statement's transaction
store._conn.set_progress_handler(die, 5)
store.commit(message="never lands")
""", path, expect_kill=True)
    store = TraceStore.open(f"sqlite:{path}")
    try:
        assert store.state_counts == (2, 1, 1)  # exactly commit c1
        assert store.head is not None
        from repro.storage import chain_log

        log = chain_log(str(path))
        assert [e["message"] for e in log] == ["trace created", "durable"]
    finally:
        store.close()


@pytest.mark.parametrize("kill_after", [0.05, 0.15, 0.3])
def test_kill_at_random_point_always_reopens(tmp_path, kill_after):
    """Chaos variant: kill the committing child at arbitrary times; the
    store must reopen at *some* committed prefix, never corrupt."""
    path = tmp_path / "t.db"
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD_SETUP + """
print("ready", flush=True)
i = 0
while True:
    store.append_state(i % 3, {"up": i % 2 == 0, "i": i})
    if i % 7 == 0:
        store.commit()
    i += 1
""", str(path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        import time

        assert child.stdout.readline().strip() == b"ready"
        time.sleep(kill_after)
    finally:
        child.kill()
        child.wait(timeout=30)
    store = TraceStore.open(f"sqlite:{path}")
    try:
        # counts replayed from ops must match the committed tip (the
        # reopen path CRC-checks and cross-checks this internally; any
        # torn commit would have raised StorageCorruptError)
        assert sum(store.state_counts) >= 3
        store.append_state(0, {"up": True})
        store.commit()
    finally:
        store.close()


def test_serve_checkpoint_survives_kill_between_commits(tmp_path):
    """The serve integration point: a checkpoint's ``store_ref`` names a
    commit; killing the process after later (uncommitted) appends must
    restore exactly the checkpointed prefix."""
    import json

    path = tmp_path / "t.db"
    out = run_child(CHILD_SETUP + """
import json
store.append_state(0, {"up": False})
cid = store.commit(kind="checkpoint", message="serve checkpoint seq=1")
print(json.dumps({"commit": cid, "counts": store.state_counts}))
store.append_state(1, {"up": False})  # lost: never committed
os._exit(0)
""", path)
    ref = json.loads(out.stdout)
    store = TraceStore.open(f"sqlite:{path}", branch="main",
                            at_commit=ref["commit"], reset_head=True,
                            create=False)
    try:
        assert list(store.state_counts) == ref["counts"]
        assert store.head == ref["commit"]
    finally:
        store.close()
