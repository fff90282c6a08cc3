"""The ``debug-loop`` workload, parent side.

Generates the seeded server-trace corpus, computes the references in
memory (batch detection, the *definitely* upgrade, off-line control on
the generated deposet), writes the streams out, and starts the driver
(``debug_driver.py``) repeatedly: each start, until the driver prints
``ready``, is one set-up sample, and one of the starts runs the cycles.
Every cycle is then checked against the references.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import corpus
import spans
from common import median, percentile, sample_counts
from repro.core.offline import control_disjunctive
from repro.detection import possibly_bad
from repro.detection.engine import definitely
from repro.errors import NoControllerExistsError
from repro.workloads import availability_predicate

HERE = os.path.dirname(os.path.abspath(__file__))
DRIVER = os.path.join(HERE, "debug_driver.py")
#: driver starts timed before the run, and again after it
SETUPS = 4
CORPUS_SIZE = 84  # six passes over corpus.DEBUG_MIX
TIMEOUT = 170.0


def reference(stream: corpus.Stream) -> Dict[str, Any]:
    dep = stream.dep
    pred = availability_predicate(dep.n)
    witness = possibly_bad(dep, pred)
    ref: Dict[str, Any] = {
        "witness": list(witness) if witness is not None else None,
        "definitely": (definitely(dep, pred.negated())
                       if witness is not None else False),
    }
    try:
        control = control_disjunctive(dep, pred).control
        ref["arrows"] = sorted([list(a), list(b)] for a, b in control)
    except NoControllerExistsError:
        ref["arrows"] = None
    return ref


def check(res: Dict[str, Any], ref: Dict[str, Any]) -> str:
    """Empty string when the cycle is correct, else what went wrong."""
    if "error" in res:
        return res["error"]
    if res["witness"] != ref["witness"] \
            or res["definitely"] != ref["definitely"]:
        return "verdict differs from batch detection"
    if res["recovered_witness"] != ref["witness"]:
        return "verdict re-derived from the reopened store differs"
    if ref["arrows"] is None:
        # NoControllerExists is right only where the reference agrees,
        # and the replay gate must name the obstruction (C104)
        if res["feasible"]:
            return "controller found for an infeasible trace"
        return "" if "C104" in res["gate"] else "gate missed C104"
    if not res["feasible"]:
        return "NoControllerExists on a feasible trace"
    if res["arrows"] != ref["arrows"]:
        return "control relation differs from reference"
    if res["gate"]:
        return f"replay gate refused a valid controller: {res['gate']}"
    if not res.get("verified") or res.get("recovered_arrows") != res["arrows"]:
        return "verification or recorded branch failed"
    return ""


class DebugBench:
    def __init__(self, *, seed: int, seconds: float, traced: bool, work: str,
                 root: str, corpus_size: int = CORPUS_SIZE,
                 setups: int = SETUPS):
        self.seed, self.seconds, self.traced = seed, seconds, traced
        self.work, self.root, self.setups = work, root, setups
        self.corpus = corpus.debug_corpus(seed, corpus_size)
        self.refs = {s.name: reference(s) for s in self.corpus}
        self.corpus_dir = os.path.join(work, "corpus")
        os.makedirs(self.corpus_dir, exist_ok=True)
        for s in self.corpus:
            with open(os.path.join(self.corpus_dir, s.name + ".jsonl"),
                      "w") as fh:
                fh.write("\n".join(s.lines) + "\n")
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.samples: Dict[str, int] = {}

    def _start(self, mode: str, out: str) -> Tuple[subprocess.Popen, float]:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, DRIVER, self.corpus_dir,
             os.path.join(self.work, "db"), mode, str(self.seconds),
             "1" if self.traced else "0", out],
            cwd=self.root, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "ready":
            proc.kill()
            proc.wait()
            raise RuntimeError("debug driver failed during set-up")
        return proc, ready

    def _drive(self) -> Tuple[List[float], Dict[str, Any]]:
        """Start the driver ``setups`` times before the run and as many
        after it, so the set-up samples span the whole run; the first
        start fills bytecode caches and is not a sample."""
        out = os.path.join(self.work, "driver.json")
        modes = ["setup"] * (self.setups + 1) + ["run"] + ["setup"] * self.setups
        setups = []
        for i, mode in enumerate(modes):
            proc, ready = self._start(mode, out)
            if i:
                setups.append(ready)
            try:
                proc.wait(timeout=TIMEOUT)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
            if proc.returncode != 0:
                raise RuntimeError(f"debug driver exited {proc.returncode}")
        with open(out) as fh:
            return setups, json.load(fh)

    def _checked(self, results: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        good = []
        for res in results:
            self.attempted += 1
            problem = check(res, self.refs[res["name"]])
            if problem:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"{res['name']}: {problem}")
            else:
                good.append(res)
        return good

    def shutdown(self) -> None:
        """Nothing outlives :meth:`measure` (the driver is reaped there)."""

    def measure(self) -> Dict[str, Any]:
        setups, report = self._drive()
        self._checked(report["warmup"])
        if self.traced:
            return self._layers(report)
        ok = self._checked(report["timed"])
        if not ok:
            raise RuntimeError("no debug cycle passed its checks")
        loops = [(r["t_end"] - r["t0"]) / 1e6 for r in ok]
        finals = [(r["t_final"] - r["t0"]) / 1e6 for r in ok]
        recoveries = [r["recovery_ns"] / 1e6 for r in ok]
        records = sum(r["records"] for r in ok)
        self.samples = sample_counts(len(setups), len(ok), 1, len(recoveries))
        return {
            "setup_s": (median(setups), "s"),
            "records_per_s": (records / (sum(loops) / 1e3), "1/s"),
            "final_ms.p50": (percentile(finals, 0.5), "ms"),
            "final_ms.p90": (percentile(finals, 0.9), "ms"),
            "loop_ms.p50": (percentile(loops, 0.5), "ms"),
            "loop_ms.p90": (percentile(loops, 0.9), "ms"),
            "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
            "recovery_ms.p50": (median(recoveries), "ms"),
            "bytes_written_per_record": (report["bytes_written"] / records,
                                         "B"),
        }

    def _layers(self, report: Dict[str, Any]) -> Dict[str, Any]:
        plain = self._checked(report["plain"])
        traced = self._checked(report["traced"])
        if not plain or not traced:
            raise RuntimeError("no debug cycle passed its checks")
        with open(os.path.join(self.work, "db", "spans-debug.json")) as fh:
            dump = json.load(fh)
        prof = spans.Profile([dump])
        n = len(traced)
        covered = sum(spans.covered_ns(dump["spans"], r["t0"], r["t_end"])
                      for r in traced)
        busy = sum(r["t_end"] - r["t0"] for r in traced)

        def rps(rs):
            return sum(r["records"] for r in rs) / (
                sum(r["t_end"] - r["t0"] for r in rs) / 1e9)

        feasible = [r for r in traced if r["feasible"]]
        c = report["counters"]
        hits = c.get("store.sqlite.page_hits", 0)
        misses = c.get("store.sqlite.page_misses", 0)
        self.samples = {"cycles": n, "traced_spans": sum(prof.calls.values())}
        return {
            "trace.io.apply_us": (
                prof.mean_us("trace.io.apply_stream_record"), "us"),
            "detection.poll_us": (prof.mean_us("detection.poll"), "us"),
            "detection.finalize_ms": (
                prof.mean_us("detection.finalize") / 1e3, "ms"),
            "analysis.lint_feed_us": (
                prof.mean_us("analysis.lint.feed_record"), "us"),
            "analysis.lint_report_ms": (
                prof.mean_us("analysis.lint.report") / 1e3, "ms"),
            "analysis.lint_gate_ms": (
                prof.mean_us("analysis.lint_deposet") / 1e3, "ms"),
            "core.overlap.checks": (
                prof.counts["core.overlap.overlap"] / n, "1/trace"),
            "core.offline.control_ms": (
                prof.mean_us("core.offline.control_disjunctive") / 1e3, "ms"),
            "core.offline.arrows": (
                sum(len(r["arrows"]) for r in feasible) / max(1, len(feasible)),
                "1/trace"),
            "replay.replay_ms": (prof.mean_us("replay.replay") / 1e3, "ms"),
            "replay.control_messages": (
                sum(r.get("control_messages", 0) for r in feasible)
                / max(1, len(feasible)), "1/trace"),
            "core.verify.verify_ms": (
                prof.mean_us("core.verify.verify_control") / 1e3, "ms"),
            "storage.commit_ms": (prof.mean_us("storage.commit") / 1e3, "ms"),
            "storage.branch_ms": (
                prof.mean_us("storage.record_control_branch") / 1e3, "ms"),
            "storage.pages_written": (
                c.get("store.sqlite.pages_written", 0) / n, "1/trace"),
            "storage.page_hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "debug.feasible_ratio": (len(feasible) / n, "ratio"),
            "traced.unattributed_pct": (100.0 * (1 - covered / busy), "%"),
            "traced.overhead_pct": (
                100.0 * (1 - rps(traced) / rps(plain)), "%"),
        }
