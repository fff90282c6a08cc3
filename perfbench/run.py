"""Repository benchmark: ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1`` from the repository root.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``serve-inline``
    ``repro serve --workers 0``, in memory: the bare record path.
``serve-durable``
    ``repro serve --workers 2 --durable DIR --fsync batch`` with the
    durable client protocol, plus kill -9 / restart / resume cycles.
``debug-loop``
    The Section 7 cycle (watch with lint into SQLite, off-line control,
    replay gate, replay, verification, branch record) in one long-lived
    driver process.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from spans recorded by
wrappers around the layers' public functions (half the time untraced,
half traced, so the tracing overhead is measured too).  Outputs are
checked against references before any number is kept.  The last line of
standard output is the result object; the line before it holds the
environment, sample counts, corpus shape and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

WORKLOADS = ("serve-inline", "serve-durable", "debug-loop")
#: a run must be over within 180 s, clean-up included
WATCHDOG_S = 170


def metric_units(traced: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them: the
    per-layer list for a traced run, else the end-to-end one.  A layer a
    workload never runs reads 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # self-test knobs: a tiny corpus and fewer repetitions, and one
    # deliberately damaged verdict line
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--corrupt-session", type=int, default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def make_bench(args, work):
    """The workload object; the serve modules are only imported when a
    serve workload runs, the debug ones only for the debug loop."""
    tiny = {"corpus_size": 14} if args.tiny else {}
    if args.workload == "debug-loop":
        from debug_bench import DebugBench

        if args.tiny:
            tiny["setups"] = 1
        return DebugBench(seed=args.seed, seconds=args.seconds,
                          traced=bool(args.trace), work=work, root=ROOT,
                          **tiny)
    from serve_bench import ServeBench

    if args.tiny:
        tiny.update(rounds=1, cold_starts=1, crash_cycles=1, warmup=4)
    return ServeBench(durable=args.workload == "serve-durable",
                      seed=args.seed, seconds=args.seconds,
                      traced=bool(args.trace), work=work, root=ROOT,
                      corrupt_session=args.corrupt_session, **tiny)


def result_line(bench, values, traced: bool) -> dict:
    units = metric_units(traced)
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for name, unit in units.items():
        value, got_unit = values.get(name, (0.0, unit))
        if got_unit != unit:
            raise RuntimeError(f"{name}: unit {got_unit} != {unit}")
        metrics[name] = {"value": float(value), "unit": unit}
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def _watchdog(_sig, _frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        # measure this checkout's program, never an installed copy
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    import corpus
    from common import cpu_ticks, environment

    os.chdir(ROOT)
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    work = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(work)
    bench = None
    steal0, total0 = cpu_ticks()
    try:
        bench = make_bench(args, work)
        values = bench.measure()
        line = result_line(bench, values, bool(args.trace))
        steal1, total1 = cpu_ticks()
        details = {
            "environment": environment(args.workload, args.seed),
            "host_steal_pct": round(
                100.0 * (steal1 - steal0) / max(1, total1 - total0), 2),
            "seconds": args.seconds,
            "trace": args.trace,
            "samples": bench.samples,
            "corpus": corpus.shape(bench.corpus),
            "errors": bench.errors,
        }
    finally:
        signal.alarm(0)
        if bench is not None:
            bench.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's work directory is still there
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
