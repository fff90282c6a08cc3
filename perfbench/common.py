"""Shared helpers: percentiles, /proc readings, the recorded environment."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
from typing import Dict, Iterable, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); the value itself, so a
    p90 over 100 samples is the 90th smallest, with ten beyond it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def sample_counts(setup: int, timed: int, rss: int,
                  recovery: int) -> Dict[str, int]:
    """Samples behind each end-to-end metric (sessions or cycles for the
    throughput, latency and byte metrics)."""
    return {"setup_s": setup, "records_per_s": timed,
            "final_ms.p50": timed, "final_ms.p90": timed,
            "loop_ms.p50": timed, "loop_ms.p90": timed,
            "peak_rss_mb": rss, "recovery_ms.p50": recovery,
            "bytes_written_per_record": timed}


def process_tree(pid: int) -> List[int]:
    """``pid`` and every descendant still alive."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            with open(f"/proc/{p}/task/{p}/children") as fh:
                todo.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
    return out


def _proc_field(path: str, key: str) -> int:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_kb(pids: Iterable[int]) -> int:
    """Sum of each process's peak resident set (VmHWM)."""
    return sum(_proc_field(f"/proc/{p}/status", "VmHWM:") for p in pids)


def bytes_written(pids: Iterable[int]) -> int:
    """Bytes the processes passed to write calls (files, pipes, sockets)."""
    return sum(_proc_field(f"/proc/{p}/io", "wchar:") for p in pids)


def cpu_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies of all CPUs: time the host ran something
    else while this machine's CPUs wanted to run."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def git_sha() -> str:
    """The checkout's commit, when it is a git repository at all."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the program's sources: identifies the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def environment(workload: str, seed: int) -> Dict[str, object]:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        cpus = os.cpu_count() or 1
    return {
        "workload": workload,
        "seed": seed,
        "cpu_affinity": cpus,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }
