#!/usr/bin/env python
"""CI check: online lint of a stream reports what batch lint reports.

For every ``examples/traces/*.jsonl``, through the public CLI:

* ``repro watch FILE --lint --format json`` streams ``finding`` events
  and ends with a ``lint`` summary;
* ``repro lint FILE --format json`` lints the same file in batch.

The fingerprints of watch's findings (a multiset, after the trace's
inline suppressions) must equal the fingerprints of lint's findings, and
watch's summary count must equal lint's finding count.

Run as ``PYTHONPATH=src python scripts/watch_lint_parity.py``; exits
non-zero when any trace differs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis import (  # noqa: E402
    Finding,
    Report,
    apply_suppressions,
    fingerprint,
    load_raw,
    suppressions_from_obs,
)

PREDICATE = "at-least-one:up"


def cli(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args], capture_output=True,
        text=True, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    return proc.stdout


def main() -> int:
    failures = 0
    for path in sorted((REPO / "examples" / "traces").glob("*.jsonl")):
        events = [json.loads(line) for line in cli(
            "watch", str(path), "--predicate", PREDICATE, "--lint",
            "--format", "json").splitlines()]
        streamed = Report(source=str(path), format="")
        streamed.extend([Finding.from_dict(e["finding"])
                         for e in events if e["e"] == "finding"])
        raw, _fmt, _ = load_raw(path)
        apply_suppressions(streamed, suppressions_from_obs(
            raw.obs if raw is not None else None))
        summary = [e for e in events if e["e"] == "lint"]
        batch = json.loads(cli("lint", str(path), "--predicate", PREDICATE,
                               "--format", "json"))["findings"]
        want = Counter(fingerprint(Finding.from_dict(f)) for f in batch)
        got = Counter(fingerprint(f) for f in streamed.findings)
        ok = (got == want and len(summary) == 1
              and summary[0]["findings"] == len(batch))
        print(f"[{'ok' if ok else 'FAIL'}] {path.name}: watch "
              f"{sum(got.values())} finding(s), lint {len(batch)}")
        failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
