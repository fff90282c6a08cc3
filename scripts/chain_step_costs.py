#!/usr/bin/env python
"""Per-step cost of the SQLite commit chain in the active-debugging loop.

Runs the store steps of perfbench's ``debug-loop`` cycle on each trace of
``perfbench/corpus.debug_corpus(SEED, COUNT)``, through the public API:

* ``create`` -- open a fresh ``sqlite:`` store from the stream header;
* ``commit`` -- the commit after the whole stream was applied;
* ``record`` -- ``record_control_branch`` of Figure 2's controller
  (feasible traces only);
* ``reopen`` / ``reopen_branch`` -- cold opens of ``main`` and of the
  candidate branch, each with a snapshot;
* ``branch`` -- one ``branch()`` of a reopened ``main`` (outside the
  byte count).

It prints the mean milliseconds of each step and the bytes the process
passed to ``write`` calls (``wchar`` of ``/proc/self/io``) from create
to the last reopen, per stream record -- the measure behind perfbench's
``bytes_written_per_record``.  The first pass over the corpus is a
warm-up and is not counted.

Usage, from the repository root (``PYTHONPATH`` picks the tree to
measure; the corpus comes from this checkout's ``perfbench/``)::

    PYTHONPATH=src python scripts/chain_step_costs.py [SEED COUNT PASSES]

Defaults: seed 11, 84 traces, 3 counted passes.
"""

import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "src"))
sys.path.append(os.path.join(ROOT, "perfbench"))

from corpus import debug_corpus  # noqa: E402
from repro.cli import parse_predicate  # noqa: E402
from repro.core.offline import control_disjunctive  # noqa: E402
from repro.errors import NoControllerExistsError  # noqa: E402
from repro.storage import record_control_branch  # noqa: E402
from repro.store.trace_store import TraceStore  # noqa: E402
from repro.trace import io as tio  # noqa: E402

PREDICATE = "at-least-one:avail"
STEPS = ("create", "commit", "record", "reopen", "reopen_branch", "branch")


def wchar() -> int:
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("no wchar in /proc/self/io")


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def open_and_snapshot(target, branch):
    store = TraceStore.open(target, branch=branch, create=False)
    try:
        store.snapshot()
    finally:
        store.close()


def cycle(stream, target):
    """One trace's store steps: seconds per step and bytes written."""
    out = {}
    w0 = wchar()
    header = json.loads(stream.lines[0])
    store, out["create"] = timed(tio.stream_store_from_header, header,
                                 "chain:1", target)
    for lineno, line in enumerate(stream.lines[1:], start=2):
        tio.apply_stream_record(store, json.loads(line), f"chain:{lineno}")
    _, out["commit"] = timed(store.commit, message="watched")
    dep = store.snapshot()
    store.close()
    branch = None
    try:
        control = control_disjunctive(
            dep, parse_predicate(PREDICATE, dep.n)).control
    except NoControllerExistsError:
        control = None
    if control is not None:
        (branch, _cid), out["record"] = timed(
            record_control_branch, target, dep, control, kind="replay",
            meta={"verdict": "replayed"})
    _, out["reopen"] = timed(open_and_snapshot, target, "main")
    if branch is not None:
        _, out["reopen_branch"] = timed(open_and_snapshot, target, branch)
    written = wchar() - w0
    main = TraceStore.open(target, create=False)
    try:
        fork, out["branch"] = timed(main.branch, "probe")
        fork.close()
    finally:
        main.close()
    return out, written


def main(argv) -> int:
    seed, count, passes = (int(a) for a in argv) if argv else (11, 84, 3)
    corpus = debug_corpus(seed, count)
    samples = {step: [] for step in STEPS}
    written = records = 0
    with tempfile.TemporaryDirectory(prefix="repro-chain-steps-") as work:
        for k in range((passes + 1) * len(corpus)):
            stream = corpus[k % len(corpus)]
            db = os.path.join(work, f"t{k}.db")
            steps, nbytes = cycle(stream, f"sqlite:{db}")
            for suffix in ("", "-journal"):
                if os.path.exists(db + suffix):
                    os.unlink(db + suffix)
            if k < len(corpus):
                continue  # warm-up pass
            for step, seconds in steps.items():
                samples[step].append(seconds)
            written += nbytes
            records += stream.records
    report = {step: round(1e3 * statistics.mean(v), 2)
              for step, v in samples.items()}
    report["recorded"] = len(samples["record"])
    report["bytes_per_record"] = round(written / records, 1)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
