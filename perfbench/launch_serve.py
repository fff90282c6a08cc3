"""Start ``repro serve`` for the benchmark: ``launch_serve.py [opts] -- ARGS``.

ARGS are passed to the ``repro serve`` command line unchanged.  Options:

``--trace DIR``
    Install the span wrappers (``spans.install_serve``) before the server
    starts, so the worker pool forks with them in place; spans are
    written to DIR when each process ends.
``--standby``
    Import everything, print ``ready``, then wait for a line on stdin
    before starting the server.  The crash phase keeps one standby ready
    so a restart begins where interpreter start-up (``setup_s``) ends.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv):
    split = argv.index("--")
    opts, serve_args = argv[:split], argv[split + 1:]
    trace_dir = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    import repro.cli as cli
    import repro.serve.server  # noqa: F401  (import cost belongs to set-up)

    if trace_dir:
        import spans

        spans.install_serve(trace_dir)
    if "--standby" in opts:
        print("ready", flush=True)
        if not sys.stdin.readline():
            return 0  # the benchmark ended without needing this standby
    try:
        return cli.main(["serve", *serve_args])
    finally:
        if trace_dir:
            spans.RECORDER.dump(spans.dump_path(trace_dir, "server"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
