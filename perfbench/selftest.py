"""Self-tests of the benchmark at a tiny size.

Run from the repository root with ``python3 perfbench/selftest.py`` (or
``python3 -m pytest perfbench/selftest.py``).  They check that

* every metric named in ``BENCHMARK.json`` is emitted with its unit, on
  every workload, traced and untraced, with no failed operation;
* a deliberately corrupted verdict line is reported as a failed
  operation (and the run as incorrect) rather than dropped;
* a different seed changes the corpus but not the metric set.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

WORKLOADS = ("serve-inline", "serve-durable", "debug-loop")
_SERVE_LAYERS = {
    "serve.session.feed_self_us", "trace.io.apply_us", "detection.poll_us",
    "detection.finalize_ms", "serve.protocol.dumps_us",
    "serve.protocol.events_per_record", "serve.workers.batch_rtt_ms.p50",
    "serve.workers.batch_rtt_ms.p90", "serve.workers.lines_per_batch",
    "client.drain_wait_ms", "traced.unattributed_pct",
}
#: per-layer metrics that must read above 0 where their layer runs
LAYERS_RUN = {
    "serve-inline": _SERVE_LAYERS,
    "serve-durable": _SERVE_LAYERS | {
        "serve.durability.wal_append_us", "serve.durability.flush_ms",
        "serve.durability.flushes", "serve.durability.recover_ms",
        "serve.session.restore_ms", "serve.durability.replayed_records",
    },
    "debug-loop": {
        "trace.io.apply_us", "detection.poll_us", "detection.finalize_ms",
        "analysis.lint_feed_us", "analysis.lint_report_ms",
        "analysis.lint_gate_ms", "core.overlap.checks",
        "core.offline.control_ms", "core.offline.arrows",
        "replay.replay_ms", "replay.control_messages",
        "core.verify.verify_ms", "storage.commit_ms", "storage.branch_ms",
        "storage.pages_written", "storage.page_hit_ratio",
        "debug.feasible_ratio", "traced.unattributed_pct",
    },
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def _run(workload: str, seed: int, trace: int, *extra: str):
    """(details, result) of one tiny run; cached across tests."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "2", "--trace",
         str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _expected(trace: int):
    spec = _spec()
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def test_every_metric_emitted_with_its_unit():
    for workload in WORKLOADS:
        for trace in (0, 1):
            _details, res = _run(workload, 1, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0, (workload, res)
            assert res["attempted"] >= 1
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == _expected(trace), (workload, trace)
            must_run = LAYERS_RUN[workload] if trace else set(got)
            for name, metric in res["metrics"].items():
                assert set(metric) == {"value", "unit"}
                assert isinstance(metric["value"], float), name
                if name in must_run:
                    assert metric["value"] > 0, (workload, name)


def test_corrupted_verdict_line_is_a_failed_operation():
    _details, clean = _run("serve-inline", 1, 0)
    details, res = _run("serve-inline", 1, 0, "--corrupt-session", "3")
    assert res["failed"] == 1 and res["correct"] is False
    assert res["attempted"] >= 1
    assert any("differs" in e for e in details["errors"])
    assert set(res["metrics"]) == set(clean["metrics"])


def test_seed_changes_corpus_not_metric_set():
    import corpus

    for make in (corpus.serve_corpus, corpus.debug_corpus):
        a, b = make(1, 14), make(2, 14)
        assert [s.lines for s in a] != [s.lines for s in b]
        assert [s.lines for s in a] == [s.lines for s in make(1, 14)]
    d1, r1 = _run("serve-inline", 1, 0)
    d2, r2 = _run("serve-inline", 2, 0)
    assert d1["corpus"] != d2["corpus"]
    assert set(r1["metrics"]) == set(r2["metrics"])
    assert d2["environment"]["seed"] == 2


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
