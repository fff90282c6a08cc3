#!/usr/bin/env python
"""CI smoke test for the durable trace store (``--store sqlite:``).

Drives the real CLI as subprocesses through the active-debugging loop
the storage layer exists for:

* ``repro ingest trace.json --store sqlite:trace.db`` -- the base trace
  becomes an immutable commit chain on branch ``main``;
* ``repro control --store`` -- the synthesized control relation is
  recorded as a COW branch (``candidate-1``);
* ``repro replay --store`` -- the replay verdict lands on its own
  branch (``candidate-2``);
* ``repro db branch / log`` -- the chain renders with both candidates
  and their verdicts.

Then reopens the database cold in-process and asserts the snapshot is
value-identical to the original trace and that every detection engine
(slice | exhaustive) returns **byte-identical** verdicts on
the sqlite-backed snapshot vs a plain in-memory store fed the same
trace.

Run as ``PYTHONPATH=src python scripts/storage_smoke.py``; exits
non-zero on the first deviation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.detection import (  # noqa: E402
    definitely,
    definitely_exhaustive,
    possibly,
    possibly_exhaustive,
)
from repro.store import TraceStore  # noqa: E402
from repro.trace import dump_deposet, load_deposet  # noqa: E402
from repro.workloads import availability_predicate, random_deposet  # noqa: E402

PREDICATE = "at-least-one:up"
TIMEOUT = 120


def run_cli(*args, expect=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *map(str, args)],
        env=env, capture_output=True, text=True, timeout=TIMEOUT,
    )
    if proc.returncode != expect:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(
            f"FAIL: repro {' '.join(map(str, args))} exited "
            f"{proc.returncode}, expected {expect}"
        )
    return proc.stdout


def verdict_bytes(dep):
    """Every engine's verdict on one snapshot, as one canonical blob."""
    pred = availability_predicate(dep.n, "up").negated()
    return json.dumps(
        [
            possibly(dep, pred, engine="slice"),
            definitely(dep, pred, engine="slice"),
            possibly_exhaustive(dep, pred),
            definitely_exhaustive(dep, pred),
        ],
        sort_keys=True,
    ).encode()


def main():
    with tempfile.TemporaryDirectory(prefix="repro-storage-smoke-") as td:
        tmp = Path(td)
        trace = tmp / "trace.json"
        fixed = tmp / "fixed.json"
        db = tmp / "trace.db"
        target = f"sqlite:{db}"

        # seed/shape chosen so `repro control` can synthesize a
        # controller for at-least-one:up (same trace the CLI tests use)
        dep = random_deposet(n=3, events_per_proc=8, message_rate=0.3,
                             flip_rate=0.3, seed=1)
        dump_deposet(dep, trace)

        out = run_cli("ingest", trace, "--store", target)
        assert "branch 'main'" in out and "commit #" in out, out
        print("[smoke] ingest ->", out.strip().splitlines()[-1])

        out = run_cli("control", trace, "--predicate", PREDICATE,
                      "-o", fixed, "--store", target)
        assert "candidate-1" in out, out
        print("[smoke] control -> candidate-1 recorded")

        out = run_cli("replay", fixed, "--store", target)
        assert "candidate-2" in out, out
        print("[smoke] replay -> candidate-2 recorded")

        out = run_cli("db", "branch", db)
        for name in ("main", "candidate-1", "candidate-2"):
            assert name in out, (name, out)

        out = run_cli("db", "log", db, "--branch", "candidate-2")
        assert "verdict=" in out and "replayed" in out, out
        # parent linkage: the candidate chain starts at main's commits
        assert "init" in out and "append" in out, out
        print("[smoke] db log renders both candidates with verdicts")

        # a second ingest into the same database must be refused, not
        # silently appended (exit 3 = domain error)
        run_cli("ingest", trace, "--store", target, expect=3)

        # -- cold reopen: equality and byte-identical verdicts --------
        store = TraceStore.open(target)
        try:
            assert store.snapshot() == dep, "cold reopen != ingested trace"
            sql_blob = verdict_bytes(store.snapshot())
        finally:
            store.close()

        mem = TraceStore.from_deposet(dep)
        mem_blob = verdict_bytes(mem.snapshot())
        assert sql_blob == mem_blob, (
            "verdicts diverge between sqlite and memory backends:\n"
            f"  sqlite: {sql_blob!r}\n  memory: {mem_blob!r}"
        )
        print("[smoke] cold reopen: snapshot equal, verdicts byte-identical",
              f"({len(sql_blob)} bytes)")

        # the replayed candidate is a usable trace store of its own
        cand = TraceStore.open(target, branch="candidate-2")
        try:
            assert cand.snapshot().control_arrows, \
                "candidate-2 lost its control relation"
        finally:
            cand.close()

        # gc with live branches must be a no-op
        out = run_cli("db", "gc", db)
        assert "removed 0 commit(s)" in out, out
        print("[smoke] gc keeps all live-branch commits")

    print("storage smoke OK")


if __name__ == "__main__":
    main()
