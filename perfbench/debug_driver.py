"""The long-lived ``debug-loop`` driver: the paper's Section 7 cycle,
one trace at a time, through the public functions behind ``repro watch
--lint --store sqlite:``, ``repro control --store`` and ``repro replay
--store``.

Usage: ``debug_driver.py CORPUS_DIR WORK_DIR MODE SECONDS TRACE OUT``
where MODE is ``setup`` (start, get ready, exit: one set-up sample) or
``run``.  The driver prints ``ready`` once set-up is done, so the parent
can time it; a run then writes one JSON result per trace to OUT.
Correctness is judged by the parent against its own references; the
driver only reports what each step produced.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from importlib import import_module  # noqa: E402

(runner, offline, verify, replay_engine, storage, tio) = (
    import_module("repro." + m) for m in (
        "analysis.runner", "core.offline", "core.verify", "replay.engine",
        "storage", "trace.io"))
from repro.analysis import gate_findings  # noqa: E402
from repro.analysis.incremental import StreamingLinter  # noqa: E402
from repro.cli import parse_predicate  # noqa: E402
from repro.detection import possibly_bad  # noqa: E402
from repro.detection.incremental import IncrementalDetector  # noqa: E402
from repro.errors import NoControllerExistsError  # noqa: E402
from repro.obs.metrics import METRICS  # noqa: E402
from repro.store.trace_store import TraceStore  # noqa: E402

import spans  # noqa: E402
from common import bytes_written, peak_rss_kb  # noqa: E402

PREDICATE = "at-least-one:avail"
WARMUP_TRACES = 6
_now = time.perf_counter_ns


def _cut(witness):
    return list(witness) if witness is not None else None


def cycle(name: str, lines, db: str) -> dict:
    """Steps 1-6 on one trace, then the cold-reopen recovery check."""
    target = f"sqlite:{db}"
    t0 = _now()
    # 1. stream-ingest into a SQLite store with detection + online lint
    header = json.loads(lines[0])
    store = tio.stream_store_from_header(header, f"{name}:1", target)
    pred = parse_predicate(PREDICATE, store.n)
    detector = IncrementalDetector(store, pred)
    linter = StreamingLinter(source=name, predicate=pred)
    linter.feed_record(header, f"{name}:1")
    for lineno, line in enumerate(lines[1:], start=2):
        rec = json.loads(line)
        where = f"{name}:{lineno}"
        linter.feed_record(rec, where)
        if tio.apply_stream_record(store, rec, where) != "obs":
            detector.poll()
    lint_report = linter.report()
    result = detector.finalize()
    t_final = _now()
    store.commit(message=f"watched {name}")
    dep = store.snapshot()
    store.close()
    out = {
        "name": name, "records": len(lines) - 1,
        "witness": _cut(result.witness), "definitely": result.definitely,
        "lint_findings": len(lint_report.findings),
    }
    # 2. off-line control
    try:
        control = offline.control_disjunctive(dep, pred).control
    except NoControllerExistsError:
        control = None
    out["feasible"] = control is not None
    if control is None:
        # the replay gate on the uncontrolled trace must explain why
        gate = gate_findings(runner.lint_deposet(dep, predicate=pred,
                                                 source=name))
        out["gate"] = sorted({f.rule_id for f in gate})
    else:
        controlled = control.apply(dep)
        # 3. replay-gate lint (C101 interference, C104 obstruction)
        gate = gate_findings(runner.lint_deposet(controlled, predicate=pred,
                                                 source=name))
        out["gate"] = sorted({f.rule_id for f in gate})
        out["arrows"] = sorted([list(a), list(b)] for a, b in control)
        if not gate:
            # 4. controlled replay, 5. verification, 6. branch record
            replayed = replay_engine.replay(controlled, seed=0)
            out["control_messages"] = replayed.control_messages
            verify.verify_control(dep, pred, control)
            out["verified"] = True
            branch, _cid = storage.record_control_branch(
                target, dep, control, kind="replay",
                meta={"verdict": "replayed", "predicate": PREDICATE})
            out["branch"] = branch
    t_end = _now()
    out.update(t0=t0, t_final=t_final, t_end=t_end)
    # recovery: reopen the store cold and re-derive verdict and branch
    t_r = _now()
    main = TraceStore.open(target, branch="main", create=False)
    try:
        out["recovered_witness"] = _cut(possibly_bad(main.snapshot(), pred))
    finally:
        main.close()
    if out.get("branch"):
        fork = TraceStore.open(target, branch=out["branch"], create=False)
        try:
            out["recovered_arrows"] = sorted(
                [list(a), list(b)] for a, b in fork.snapshot().control_arrows)
        finally:
            fork.close()
    out["recovery_ns"] = _now() - t_r
    return out


def run_cycles(corpus, work: str, first: int, *, seconds: float = 0.0,
               count: int = 0) -> list:
    """Cycles from corpus index ``first`` for ``seconds`` (or ``count``
    cycles); each trace gets a fresh database, removed afterwards."""
    results = []
    deadline = time.perf_counter() + seconds
    k = first
    while (k - first < count if count else time.perf_counter() < deadline):
        name, lines = corpus[k % len(corpus)]
        db = os.path.join(work, f"t{k}.db")
        spans.RECORDER.default_trace = name
        try:
            results.append(cycle(name, lines, db))
        except Exception as exc:  # reported, counted as failed
            results.append({"name": name, "error": f"{type(exc).__name__}: "
                                                   f"{exc}"})
        for suffix in ("", "-wal", "-shm", "-journal"):
            if os.path.exists(db + suffix):
                os.unlink(db + suffix)
        k += 1
    return results


def main(argv) -> int:
    corpus_dir, work, mode, seconds, trace, out_path = argv
    names = sorted(os.listdir(corpus_dir), key=lambda f: int(f[1:-6]))
    corpus = []
    for fname in names:
        with open(os.path.join(corpus_dir, fname)) as fh:
            corpus.append((fname[:-6], fh.read().splitlines()))
    os.makedirs(work, exist_ok=True)
    # warm the SQLite layer: create one store and drop it
    probe = os.path.join(work, f"probe-{os.getpid()}.db")
    tio.stream_store_from_header(json.loads(corpus[0][1][0]), "probe",
                                 f"sqlite:{probe}").close()
    os.unlink(probe)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    seconds = float(seconds)
    report = {"warmup": run_cycles(corpus, work, 0, count=WARMUP_TRACES)}
    pid = os.getpid()
    if trace == "1":
        half = seconds / 2
        report["plain"] = run_cycles(corpus, work, WARMUP_TRACES,
                                     seconds=half)
        spans.install_debug()
        with METRICS.scoped() as scope:
            report["traced"] = run_cycles(corpus, work, WARMUP_TRACES,
                                          seconds=half)
        report["counters"] = scope.delta()["counters"]
        spans.RECORDER.dump(os.path.join(work, "spans-debug.json"))
    else:
        w0 = bytes_written([pid])
        report["timed"] = run_cycles(corpus, work, WARMUP_TRACES,
                                     seconds=seconds)
        report["bytes_written"] = bytes_written([pid]) - w0
    report["peak_rss_kb"] = peak_rss_kb([pid])
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
