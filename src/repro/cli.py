"""Command-line interface: inspect, detect, control, and replay traces.

The trace currency is the JSON format of :mod:`repro.trace.io`; predicates
are specified with a tiny spec language so the common safety properties fit
on a shell line:

* ``at-least-one:VAR``       -- ``VAR_1 v ... v VAR_n``
* ``mutex:VAR``              -- ``not VAR_1 v ... v not VAR_n``
* ``happens-before:P,I>Q,J`` -- state ``I`` of process ``P`` before state
  ``J`` of process ``Q``

Commands::

    python -m repro info trace.json
    python -m repro render trace.json --predicate at-least-one:up
    python -m repro detect trace.json --predicate at-least-one:up [--all]
    python -m repro detect trace.json --predicate at-least-one:up --engine slice
    python -m repro control trace.json --predicate mutex:cs -o fixed.json
    python -m repro replay fixed.json -o replayed.json
    python -m repro ingest trace.json -o stream.jsonl   # batch <-> stream
    python -m repro watch stream.jsonl --predicate at-least-one:up --verify
    python -m repro lint trace.json --predicate at-least-one:up --strict
    python -m repro mutex-bench --algorithm antitoken --n 8
    python -m repro serve --listen 127.0.0.1:7777 --workers 4
    python -m repro tail stream.jsonl --predicate at-least-one:up --follow
    python -m repro tail --connect 127.0.0.1:7777 --tenant acme

The ``obs`` family drives the flight recorder (:mod:`repro.obs`)::

    python -m repro obs record --workload philosophers --predicate disjunctive
    python -m repro obs summary
    python -m repro obs export --format chrome out.json   # open in Perfetto
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional

from repro.core.offline import control_disjunctive
from repro.debug.properties import at_least_one, happens_before, mutual_exclusion
from repro.detection.conjunctive import possibly_bad
from repro.detection.lattice_walk import violating_cuts
from repro.errors import NoControllerExistsError, ReproError
from repro.mutex.driver import ALGORITHMS, run_mutex_workload
from repro.predicates.disjunctive import DisjunctivePredicate
from repro.replay.engine import replay
from repro.trace.deposet import Deposet
from repro.trace.io import (
    FORMAT,
    STREAM_FORMAT,
    dump_deposet,
    ingest_event_stream,
    load_deposet,
    load_deposet_meta,
    sniff_trace_format,
    write_event_stream,
)
from repro.trace.render import render_deposet

__all__ = ["main", "parse_predicate"]


def parse_predicate(spec: str, n: int) -> DisjunctivePredicate:
    """Parse a predicate spec (see module docstring)."""
    kind, _, arg = spec.partition(":")
    if not arg:
        raise ValueError(f"predicate spec {spec!r} needs an argument after ':'")
    if kind == "at-least-one":
        return at_least_one(n, arg)
    if kind == "mutex":
        return mutual_exclusion(n, arg)
    if kind == "happens-before":
        try:
            left, right = arg.split(">")
            p, i = (int(v) for v in left.split(","))
            q, j = (int(v) for v in right.split(","))
        except ValueError as exc:
            raise ValueError(
                f"happens-before spec must look like 'P,I>Q,J', got {arg!r}"
            ) from exc
        return happens_before((p, i), (q, j), n)
    raise ValueError(
        f"unknown predicate kind {kind!r}; use at-least-one:, mutex:, or "
        f"happens-before:"
    )


def _load(path: str) -> Deposet:
    return load_deposet(path)


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.trace.stats import deposet_stats

    dep = _load(args.trace)
    print(dep.describe())
    print("  " + deposet_stats(dep).describe())
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    dep = _load(args.trace)
    pred = parse_predicate(args.predicate, dep.n) if args.predicate else None
    sys.stdout.write(render_deposet(dep, predicate=pred, show_vars=args.var))
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    dep = _load(args.trace)
    pred = parse_predicate(args.predicate, dep.n)
    if args.all:
        cuts = violating_cuts(dep, pred)
        print(f"{len(cuts)} violating consistent global state(s)")
        for cut in cuts[: args.limit]:
            print(f"  {cut}")
        if len(cuts) > args.limit:
            print(f"  ... ({len(cuts) - args.limit} more)")
        return 0 if not cuts else 1
    if args.engine is None:
        witness = possibly_bad(dep, pred)
    else:
        from repro.detection import possibly
        from repro.errors import NotRegularError
        from repro.obs import METRICS

        bad = pred.negated() if hasattr(pred, "negated") else ~pred
        try:
            with METRICS.scoped() as scope:
                witness = possibly(dep, bad, engine=args.engine)
        except NotRegularError as exc:
            print(f"engine {args.engine!r} needs a regular predicate: {exc}")
            return 2
        counters = scope.delta()["counters"]
        parts = [f"engine={args.engine}"]
        for key, label in (
            ("detection.slice.states", "slice states"),
            ("detection.lattice_states", "lattice states"),
            ("detection.slice.fallbacks", "fallbacks"),
        ):
            if counters.get(key):
                parts.append(f"{label}={counters[key]}")
        print("[detect] " + " ".join(parts))
    if witness is None:
        print("predicate holds in every consistent global state")
        return 0
    print(f"violation possible at consistent global state {witness}")
    return 1


def _cmd_control(args: argparse.Namespace) -> int:
    dep = _load(args.trace)
    pred = parse_predicate(args.predicate, dep.n)
    try:
        result = control_disjunctive(dep, pred, seed=args.seed)
    except NoControllerExistsError as exc:
        print(f"No Controller Exists: {exc}")
        return 2
    control = result.control
    if args.minimize:
        control = control.minimized(dep)
    print(f"control relation ({len(control)} arrow(s)):")
    for src, dst in control:
        print(f"  {dep.proc_names[src.proc]}:{src.index} C> "
              f"{dep.proc_names[dst.proc]}:{dst.index}")
    if args.output:
        dump_deposet(control.apply(dep), args.output)
        print(f"controlled trace written to {args.output}")
    if args.store:
        from repro.storage import record_control_branch

        name, cid = record_control_branch(
            args.store, dep, control, name=args.branch, kind="control",
            meta={"predicate": args.predicate, "verdict": "synthesized"},
        )
        print(f"candidate recorded: {args.store} branch {name!r} "
              f"commit #{cid}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    if args.trace.startswith("sqlite:"):
        # Replay straight off a trace-store branch (the candidate-K
        # branches `repro control --store` records).
        from repro.storage import split_store_branch
        from repro.store.trace_store import TraceStore

        target, branch = split_store_branch(args.trace)
        st = TraceStore.open(target, branch=branch or "main", create=False)
        try:
            dep = st.snapshot()
        finally:
            st.close()
    else:
        dep = _load(args.trace)

    def record(verdict: str, extra=None) -> None:
        from repro.storage import record_control_branch

        meta = {"verdict": verdict, "seed": args.seed}
        meta.update(extra or {})
        name, cid = record_control_branch(
            args.store, dep, dep.control_arrows, name=args.branch,
            kind="replay", meta=meta,
        )
        print(f"replay recorded: {args.store} branch {name!r} commit #{cid}")

    if not args.force:
        # Admission gate: an interfering control relation (C101) or a
        # Lemma-2 obstruction (C104) makes the controlled re-execution
        # pointless -- refuse before spending it (docs/ANALYSIS.md).
        from repro.analysis import gate_findings, lint_deposet
        from repro.errors import LintGateError

        pred = (parse_predicate(args.predicate, dep.n)
                if getattr(args, "predicate", None) else None)
        gate = gate_findings(
            lint_deposet(dep, predicate=pred, source=args.trace)
        )
        if gate:
            if args.store:
                record("rejected", {
                    "gate": ",".join(sorted({f.rule_id for f in gate})),
                })
            rules = ", ".join(sorted({f.rule_id for f in gate}))
            raise LintGateError(
                f"replay refused: lint found {rules} on {args.trace} "
                f"(run `repro lint` for witnesses, or --force to replay "
                f"anyway)",
                findings=[f.to_dict() for f in gate],
            )

    try:
        result = replay(dep, seed=args.seed, jitter=args.jitter)
    except ReproError:
        # The verdict is as much a result as success: a deadlocked or
        # interfering candidate is recorded on its branch before failing.
        if args.store:
            record("deadlock")
        raise
    print(f"replayed: {result.run.events} events, "
          f"{result.control_messages} control message(s), "
          f"duration {result.run.duration:.3f}")
    if args.output:
        dump_deposet(result.deposet, args.output)
        print(f"recorded trace written to {args.output}")
    if args.store:
        record("replayed", {
            "events": result.run.events,
            "control_messages": result.control_messages,
        })
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Convert between the batch document and the streaming event log,
    and/or ingest into a durable ``--store`` commit chain."""
    if not args.output and not args.store:
        print("error: ingest needs -o OUTPUT and/or --store TARGET",
              file=sys.stderr)
        return 2
    fmt = sniff_trace_format(args.trace)
    if fmt == FORMAT:
        dep, obs = load_deposet_meta(args.trace)
        if args.output:
            write_event_stream(dep, args.output, obs=obs)
            print(
                f"{args.trace} ({FORMAT}) -> {args.output} ({STREAM_FORMAT}): "
                f"{dep.num_states - dep.n} event record(s), "
                f"{len(dep.control_arrows)} control arrow(s)"
            )
        if args.store:
            from repro.store.trace_store import TraceStore

            store = TraceStore.from_deposet(dep, args.store)
            store.obs = obs
            cid = store.commit(message=f"ingested from {args.trace}")
            print(f"{args.trace} -> {args.store} "
                  f"branch {store.branch_name!r} commit #{cid}, "
                  f"states {store.state_counts}")
            store.close()
    else:
        records = 0
        store = None
        for store, _rec in ingest_event_stream(args.trace, args.store):
            records += 1
        dep = store.snapshot()
        if args.output:
            dump_deposet(dep, args.output, obs=store.obs)
            print(
                f"{args.trace} ({STREAM_FORMAT}) -> {args.output} ({FORMAT}): "
                f"{records - 1} record(s) ingested, states {dep.state_counts}"
            )
        if args.store:
            cid = store.commit(message=f"ingested from {args.trace}")
            print(f"{args.trace} -> {args.store} "
                  f"branch {store.branch_name!r} commit #{cid}, "
                  f"states {store.state_counts}")
            store.close()
    return 0


def _db_path(target: str) -> str:
    """Accept ``sqlite:PATH`` or a bare ``PATH`` for ``repro db``."""
    if target.startswith("sqlite:"):
        return target[len("sqlite:"):]
    return target


def _cmd_db(args: argparse.Namespace) -> int:
    """Inspect and maintain a durable (SQLite commit-chain) trace store."""
    from repro.storage import (
        chain_log,
        create_branch,
        delete_branch,
        gc_store,
        init_db,
        list_branches,
    )

    path = _db_path(args.db)
    if args.db_command == "init":
        init_db(path)
        print(f"initialised empty trace store at {path}")
        return 0
    if args.db_command == "log":
        branches = {b["name"]: b for b in list_branches(path)}
        entries = chain_log(path, args.branch)
        if getattr(args, "format", "text") == "json":
            for e in entries:
                print(json.dumps(e, separators=(",", ":")))
            return 0
        tips = {}
        for b in branches.values():
            tips.setdefault(b["head"], []).append(b["name"])
        for e in entries:
            parent = f" <- #{e['parent']}" if e["parent"] is not None else ""
            marks = "".join(
                f"  [{name}]" for name in tips.get(e["id"], ())
            )
            line = (f"#{e['id']}{parent}  {e['kind']:<7} "
                    f"states={list(e['counts'])} msgs={e['messages']} "
                    f"ctl={e['control']} epoch={e['epoch']} "
                    f"ops={e['ops']}{marks}")
            if e["message"]:
                line += f"  {e['message']!r}"
            if e["meta"]:
                line += "  " + " ".join(
                    f"{k}={v}" for k, v in sorted(e["meta"].items())
                )
            print(line)
        return 0
    if args.db_command == "branch":
        if args.delete:
            delete_branch(path, args.delete)
            print(f"deleted branch {args.delete!r} "
                  f"(run 'repro db gc' to fold its commits)")
            return 0
        if not args.name:
            for b in list_branches(path):
                fork = (f" (from {b['forked_from']!r})"
                        if b["forked_from"] else "")
                print(f"{b['name']:<20} head #{b['head']}{fork}")
            return 0
        head = create_branch(path, args.name, from_branch=args.from_branch,
                             at_commit=args.at)
        print(f"branch {args.name!r} created at commit #{head} "
              f"(from {args.from_branch!r})")
        return 0
    if args.db_command == "gc":
        stats = gc_store(path)
        print(f"gc: removed {stats['commits_removed']} commit(s) and "
              f"{stats['pages_removed']} page(s); "
              f"{stats['commits_kept']} commit(s) kept")
        return 0
    if args.db_command == "lint":
        # Alias for `repro lint --store sqlite:PATH[@branch]`.
        target = f"sqlite:{path}"
        if args.branch:
            target += f"@{args.branch}"
        return _cmd_lint(argparse.Namespace(
            rules=False, trace=None, store=target,
            predicate=args.predicate, format=args.format,
            strict=args.strict, output=args.output,
            baseline=args.baseline,
            update_baseline=args.update_baseline,
        ))
    raise ValueError(f"unknown db command {args.db_command!r}")


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import RULES, Report, lint_raw, load_raw
    from repro.analysis.fingerprint import (
        apply_baseline,
        apply_suppressions,
        load_baseline,
        suppressions_from_obs,
        write_baseline,
    )
    from repro.analysis.reporters import REPORTERS

    if args.rules:
        for r in RULES.values():
            print(f"{r.id}  {str(r.severity):<7}  {r.category:<9}  {r.summary}")
        return 0
    if getattr(args, "store", None):
        from repro.analysis.storelint import lint_store
        from repro.storage import split_store_branch

        target, branch = split_store_branch(args.store)
        report, _branch, _commit = lint_store(
            target, branch=branch, predicate=args.predicate
        )
    else:
        if not args.trace:
            print("error: lint needs a trace, --store, or --rules",
                  file=sys.stderr)
            return 3
        raw, fmt, findings = load_raw(args.trace)
        report = Report(source=args.trace, format=fmt)
        report.passes.append("parse")
        report.extend(findings)
        pred = None
        if args.predicate and raw is not None:
            pred = parse_predicate(args.predicate, raw.n)
        lint_raw(raw, report, predicate=pred)
        suppressed = apply_suppressions(
            report,
            suppressions_from_obs(raw.obs if raw is not None else None),
        )
        if suppressed:
            print(f"lint: {len(suppressed)} finding(s) suppressed inline",
                  file=sys.stderr)
    baseline_path = getattr(args, "baseline", None)
    if getattr(args, "update_baseline", False):
        if not baseline_path:
            print("error: --update-baseline needs --baseline FILE",
                  file=sys.stderr)
            return 3
        count = write_baseline(baseline_path, report.findings)
        print(f"baseline updated: {count} fingerprint(s) -> {baseline_path}")
        return 0
    if baseline_path:
        dropped = apply_baseline(report, load_baseline(baseline_path))
        if dropped:
            print(f"lint: {len(dropped)} baselined finding(s) hidden "
                  f"({baseline_path})", file=sys.stderr)
    rendered = REPORTERS[args.format](report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(rendered + "\n")
        print(f"{report.summary()} -> {args.output}")
    else:
        print(rendered)
    return 0 if report.ok(strict=args.strict) else 1


def _stream_session(lines, label: str, tenant: str, predicate: str, emit,
                    **session_opts) -> Optional["DetectionSession"]:
    """Feed the ``(lineno, line)`` pairs of stream file ``label`` to one
    inline :class:`~repro.serve.session.DetectionSession`.

    The session loop of ``repro watch`` and ``repro tail FILE``: every
    ``repro-verdicts/1`` event goes to ``emit(event, lineno)`` as it
    fires, through ``final`` and ``closed`` (whose ``seq`` counts every
    line after the header, as ``repro serve`` reports it).  A malformed
    record, a torn final line or a lost source instead ends the session
    with an ``error`` event, then ``closed`` (``seq``: the lines read
    after the header), as ``repro serve`` ends a failed session.
    Returns the finalized session, or ``None`` after an error.
    """
    from repro.errors import MalformedTraceError, SourceLostError
    from repro.serve.protocol import event_closed, event_error
    from repro.serve.session import DetectionSession

    def send(events, lineno: Optional[int] = None) -> None:
        for ev in events:
            emit(ev, lineno)

    sess: Optional[DetectionSession] = None
    lineno: Optional[int] = None
    try:
        for lineno, line in lines:
            if sess is not None:
                send(sess.feed_line(line, lineno), lineno)
                if sess.failed:
                    break
                continue
            try:
                header = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedTraceError(
                    f"{label}:{lineno}: not valid JSON ({exc})", rule="T001"
                ) from exc
            sess = DetectionSession(tenant, label, header, predicate,
                                    label=label, **session_opts)
            send(sess.open_events())
        if sess is None:
            raise MalformedTraceError(f"{label}: empty stream (no header)")
    except (MalformedTraceError, SourceLostError) as exc:
        lost = isinstance(exc, SourceLostError)
        lineno = None if lost else getattr(exc, "lineno", lineno)
        send([event_error(
            tenant, label, sess.seq if sess is not None else 0,
            "source-lost" if lost else "malformed", str(exc),
            where=None if lineno is None else f"{label}:{lineno}",
            rule=getattr(exc, "rule", None),
        )])
    else:
        if not sess.failed:
            send(sess.finalize() + [event_closed(tenant, label, sess.lines)])
            return sess
    send([event_closed(tenant, label, sess.lines if sess is not None else 0)])
    if sess is not None:
        sess.close()
    return None


def _cmd_watch(args: argparse.Namespace) -> int:
    """Stream a trace through the incremental detector, record by record.

    The lines feed one inline :class:`~repro.serve.session.DetectionSession`
    (tenant ``local``, session = the trace path), so ``--format json``
    prints exactly the ``repro-verdicts/1`` events ``repro serve`` would
    push for the stream, and the text format renders the same events.
    """
    from repro.analysis.findings import Finding
    from repro.obs import METRICS
    from repro.serve.protocol import dumps_event
    from repro.trace.io import iter_stream_lines

    as_json = getattr(args, "format", "text") == "json"
    label = str(args.trace)
    first_line = None  # the record whose poll first found a witness

    def emit(ev, lineno: Optional[int] = None) -> None:
        nonlocal first_line
        kind = ev["e"]
        if as_json:
            print(dumps_event(ev))
        elif kind == "error":
            print(f"error: {ev['message']}", file=sys.stderr)
        elif kind == "open":
            print(f"watching {label}: {ev['n']} process(es), "
                  f"predicate {args.predicate}")
        elif kind == "finding":
            print(f"  [lint] {Finding.from_dict(ev['finding']).describe()}")
        elif kind == "witness" and ev["status"] == "found" \
                and first_line is None:
            first_line = lineno
            print(f"  record {lineno}: violation possible at "
                  f"consistent global state {tuple(ev['cut'])}")
        elif kind == "lint":
            print(f"[lint] {ev['findings']} finding(s), "
                  f"{ev['errors']} error(s), "
                  f"{ev['warnings']} warning(s)")

    with METRICS.scoped() as scope:
        sess = _stream_session(
            iter_stream_lines(args.trace), label, "local", args.predicate,
            emit, lint=getattr(args, "lint", False),
            store_target=getattr(args, "store", None),
        )
    if sess is None:
        return 3
    counters = scope.delta()["counters"]
    result, store = sess.result, sess.store
    if not as_json:
        print("[watch] " + " ".join(
            f"{k}={counters.get('detection.incremental.' + k, 0)}"
            for k in ("polls", "suffix_states", "resets")))
        if result.witness is None:
            print("predicate holds in every consistent global state")
            if result.pending:
                names = ", ".join(store.proc_names[i] for i in result.pending)
                print(f"  (saved throughout by: {names})")
        else:
            print(f"final: violation possible at {result.witness}"
                  + (" and DEFINITELY occurs" if result.definitely else ""))
            if result.obstruction is not None:
                print("  no controller exists: false-intervals "
                      + ", ".join(repr(iv) for iv in result.obstruction)
                      + " overlap (Lemma 2)")
    if args.verify:
        batch = possibly_bad(store.snapshot(), sess.pred)
        if batch != result.witness:
            print(f"VERIFY MISMATCH: batch detector found {batch}, "
                  f"streaming found {result.witness}", file=sys.stderr)
            return 2
        if not as_json:
            print("[verify] batch detector agrees with the streamed verdict")
    if getattr(args, "store", None):
        cid = store.commit(message=f"watched from {args.trace}")
        if not as_json:
            print(f"[store] {args.store} branch {store.branch_name!r} "
                  f"commit #{cid}")
        store.close()
    return 0 if result.witness is None else 1


def _parse_quota(spec: str):
    """``streams,buffered,store`` or ``tenant=streams,buffered,store``."""
    from repro.serve.registry import TenantQuota

    tenant = None
    if "=" in spec:
        tenant, spec = spec.split("=", 1)
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 3:
        raise ValueError(
            f"quota spec {spec!r}: expected STREAMS,BUFFERED,STORE_STATES"
        )
    quota = TenantQuota(
        max_streams=int(parts[0]),
        max_buffered_events=int(parts[1]),
        max_store_states=int(parts[2]),
    )
    return tenant, quota


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant online detection server until interrupted."""
    import asyncio

    from repro.serve.client import parse_connect
    from repro.serve.registry import TenantQuota
    from repro.serve.server import ReproServer, ServeConfig

    tcp = None
    unix = None
    if args.listen:
        kind, target = parse_connect(args.listen)
        if kind == "tcp":
            tcp = target
        else:
            unix = target
    default_quota = TenantQuota()
    tenant_quotas = {}
    for spec in args.quota or ():
        tenant, quota = _parse_quota(spec)
        if tenant is None:
            default_quota = quota
        else:
            tenant_quotas[tenant] = quota
    store_dir = None
    if args.store:
        from repro.storage import parse_store_target

        scheme, store_dir = parse_store_target(args.store)
        if scheme != "sqlite":
            print("error: serve --store needs sqlite:DIR", file=sys.stderr)
            return 2
    config = ServeConfig(
        tcp=tcp, unix=unix, workers=args.workers, policy=args.policy,
        quota=default_quota, tenant_quotas=tenant_quotas,
        batch=args.batch,
        drain_timeout=args.drain_timeout,
        durable_dir=args.durable, fsync=args.fsync, store_dir=store_dir,
        lint=args.lint,
        checkpoint_every=args.checkpoint_every,
        supervise=not args.no_supervise,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
        restart_budget=args.restart_budget,
    )

    async def run() -> int:
        server = ReproServer(config)
        await server.start()
        print(f"repro serve: listening on "
              f"{', '.join(server.endpoints) or '(nothing)'} "
              f"[workers={config.workers} policy={config.policy}"
              + (f" durable={config.durable_dir} fsync={config.fsync}"
                 if config.durable_dir else "")
              + (f" store=sqlite:{config.store_dir}"
                 if config.store_dir else "")
              + "]",
              file=sys.stderr)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await stop.wait()
        print("repro serve: draining...", file=sys.stderr)
        stats = await server.drain()
        print(f"repro serve: drained {stats}", file=sys.stderr)
        return 0

    return asyncio.run(run())


def _cmd_tail(args: argparse.Namespace) -> int:
    """Print live verdict events -- from a server or from a stream file."""
    import asyncio
    import threading

    from repro.serve.client import Backoff
    from repro.serve.protocol import describe_event, dumps_event, is_internal

    def emit(event, _lineno: Optional[int] = None) -> None:
        if is_internal(event):
            return
        if args.format == "json":
            print(dumps_event(event), flush=True)
        else:
            print(describe_event(event), flush=True)

    if args.connect:
        from repro.serve.client import subscribe

        async def run_sub() -> int:
            backoff = Backoff(max_retries=args.retries)
            while True:
                try:
                    count = await subscribe(args.connect, args.tenant, emit)
                except (ConnectionError, OSError) as exc:
                    delay = backoff.next_delay()
                    if delay is None:
                        print(f"error: server at {args.connect} unreachable "
                              f"after {backoff.attempts} attempt(s): {exc}",
                              file=sys.stderr)
                        return 3
                    await asyncio.sleep(delay)
                    continue
                print(f"[tail] server closed after {count} event(s)",
                      file=sys.stderr)
                return 0

        return asyncio.run(run_sub())

    if not args.trace:
        print("error: tail needs a TRACE file or --connect", file=sys.stderr)
        return 2
    if not args.predicate:
        print("error: tailing a file needs --predicate", file=sys.stderr)
        return 2

    from repro.trace.io import iter_stream_lines

    # SIGINT/SIGTERM mean "stop reading and finalize on what we have",
    # not "die mid-verdict".
    stop = threading.Event()
    saved = {sig: signal.signal(sig, lambda *_: stop.set())
             for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        sess = _stream_session(
            iter_stream_lines(args.trace, follow=args.follow,
                              retry=Backoff(max_retries=args.retries),
                              stop=stop),
            str(args.trace), args.tenant, args.predicate, emit,
        )
    finally:
        for sig, handler in saved.items():
            signal.signal(sig, handler)
    if sess is None:
        return 3
    return 0 if sess.result.witness is None else 1


#: default recording path shared by ``obs record`` / ``summary`` / ``export``
DEFAULT_RECORDING = "obs-recording.jsonl"


def _obs_predicate(spec: str, n: int):
    """``disjunctive`` -> the workload's canonical predicate; else a spec."""
    from repro.workloads.philosophers import thinking_predicate

    if spec in ("disjunctive", "thinking"):
        return thinking_predicate(n)
    return parse_predicate(spec, n)


def _cmd_obs_record(args: argparse.Namespace) -> int:
    from repro.obs import METRICS, TRACER, write_jsonl
    from repro.obs.metrics import MetricsRegistry

    before = METRICS.snapshot()
    proc_names = None
    with TRACER.recording(capacity=args.capacity):
        TRACER.reset()
        if args.workload == "philosophers":
            from repro.core.offline import control_disjunctive
            from repro.detection.lattice_walk import violating_cuts
            from repro.replay.engine import replay
            from repro.workloads.philosophers import philosophers_trace

            dep = philosophers_trace(args.n, args.rounds, seed=args.seed)
            proc_names = list(dep.proc_names)
            pred = _obs_predicate(args.predicate, args.n)
            # detection walk (observable expansions) on bounded traces only
            if dep.num_states <= args.detect_limit:
                cuts = violating_cuts(dep, pred)
                print(f"detected {len(cuts)} violating consistent global state(s)")
            try:
                result = control_disjunctive(dep, pred, seed=args.seed)
            except NoControllerExistsError as exc:
                print(f"No Controller Exists: {exc}")
                result = None
            if result is not None:
                rep = replay(dep, result.control, seed=args.seed)
                print(
                    f"controlled replay: {rep.run.events} kernel events, "
                    f"{rep.control_messages} control message(s)"
                )
                if args.trace_out:
                    dump_deposet(
                        rep.deposet, args.trace_out,
                        obs={"metrics": MetricsRegistry.diff(
                            before, METRICS.snapshot())},
                    )
        else:  # mutex
            report = run_mutex_workload(
                args.algorithm, n=args.n, cs_per_proc=args.rounds,
                seed=args.seed,
            )
            proc_names = [f"P{i}" for i in range(args.n)]
            print(
                f"mutex workload: {report.entries} CS entries, "
                f"{report.control_messages} control message(s), "
                f"safe={report.safe}"
            )
        events = TRACER.drain()
        dropped = TRACER.dropped

    meta = {
        "workload": args.workload,
        "predicate": args.predicate,
        "n": args.n,
        "seed": args.seed,
        "proc_names": proc_names,
        "dropped": dropped,
        "metrics": MetricsRegistry.diff(before, METRICS.snapshot()),
    }
    write_jsonl(events, args.output, meta=meta)
    print(f"{len(events)} event(s) recorded to {args.output}"
          + (f" ({dropped} dropped by the ring buffer)" if dropped else ""))
    return 0


def _cmd_obs_summary(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.obs import read_jsonl
    from repro.obs.metrics import MetricsRegistry

    meta, events = read_jsonl(args.recording)
    print(f"recording: {args.recording}")
    if meta:
        print(f"  workload={meta.get('workload')} n={meta.get('n')} "
              f"seed={meta.get('seed')} dropped={meta.get('dropped', 0)}")
    print(f"  {len(events)} event(s)")
    for name, count in sorted(Counter(ev.name for ev in events).items()):
        print(f"    {name:20s} {count}")
    metrics = (meta or {}).get("metrics")
    if metrics:
        registry = MetricsRegistry()
        print(f"  metrics: {registry.describe(metrics)}")
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs import read_jsonl, write_chrome_trace, write_jsonl

    meta, events = read_jsonl(args.input)
    if args.format == "chrome":
        write_chrome_trace(
            events, args.output,
            proc_names=(meta or {}).get("proc_names"), meta=meta,
        )
    else:
        write_jsonl(events, args.output, meta=meta)
    print(f"{len(events)} event(s) exported to {args.output} "
          f"({args.format} format)")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Hardened vs unhardened anti-token mutex under one fault plan."""
    from repro.bench.harness import fault_columns, format_table
    from repro.core.verify import possibly_bad as exact_possibly_bad
    from repro.faults import FaultPlan

    crashes = {}
    horizon = args.entries * (args.think + args.cs)
    for i in range(args.crash):
        proc = 1 + (i % max(1, args.n - 1))
        crashes[proc] = round((0.35 + 0.25 * i) * horizon, 3)
    plan = FaultPlan.lossy(
        args.loss, seed=args.seed, scope="control",
        duplicate=args.duplicate, crashes=crashes or None,
    )
    print(f"fault plan: {plan.describe()}")
    pred = mutual_exclusion(args.n, "cs")

    def run(hardened: bool):
        kwargs = {}
        if hardened:
            kwargs = dict(reliable=True, lease_timeout=args.lease_timeout)
        return run_mutex_workload(
            "antitoken", n=args.n, cs_per_proc=args.entries,
            think_time=args.think, cs_time=args.cs, mean_delay=args.delay,
            seed=args.seed, faults=plan, **kwargs,
        )

    unhardened = run(hardened=False)
    if args.record:
        from repro.obs import TRACER, write_jsonl
        from repro.obs.metrics import MetricsRegistry

        from repro.obs import METRICS
        before = METRICS.snapshot()
        with TRACER.recording(capacity=args.capacity):
            TRACER.reset()
            hardened = run(hardened=True)
            events = TRACER.drain()
        write_jsonl(
            events, args.record,
            meta={
                "workload": "chaos", "n": args.n, "seed": args.seed,
                "plan": plan.describe(),
                "metrics": MetricsRegistry.diff(before, METRICS.snapshot()),
            },
        )
        print(f"{len(events)} obs event(s) recorded to {args.record}")
    else:
        hardened = run(hardened=True)

    rows = []
    for label, rep in (("unhardened", unhardened), ("hardened", hardened)):
        exact = exact_possibly_bad(rep.deposet, pred)
        row = {
            "config": label,
            "outcome": "DEADLOCK" if rep.deadlocked else "completed",
            "entries": rep.entries,
            "msgs/entry": round(rep.messages_per_entry, 3),
            "mean_resp": round(rep.mean_response, 3),
            "crashed": len(rep.crashed),
            "regens": rep.lease_regens,
            "violations": len(rep.violations),
            "exact_wcp": "VIOLATED" if exact is not None else "ok",
        }
        row.update(fault_columns(rep.faults, rep.channel))
        rows.append(row)
    print(format_table(rows, title="chaos: fault-tolerant control plane"))

    hard = rows[1]
    ok = (
        hard["outcome"] == "completed"
        and hard["violations"] == 0
        and hard["exact_wcp"] == "ok"
    )
    if not ok:
        print("SAFETY FAILURE: the hardened controller did not survive the "
              "fault plan", file=sys.stderr)
    return 0 if ok else 1


def _cmd_mutex_bench(args: argparse.Namespace) -> int:
    report = run_mutex_workload(
        args.algorithm, n=args.n, cs_per_proc=args.entries,
        think_time=args.think, cs_time=args.cs, mean_delay=args.delay,
        seed=args.seed,
    )
    for key, value in report.row().items():
        print(f"{key:12s} {value}")
    return 0 if report.safe and not report.deadlocked else 1


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="predicate control for active debugging (IPPS 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="summarise a trace")
    p.add_argument("trace")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("render", help="ASCII space-time diagram")
    p.add_argument("trace")
    p.add_argument("--predicate", help="highlight this predicate's false states")
    p.add_argument("--var", help="highlight where this variable is falsy")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("detect", help="find violating global states")
    p.add_argument("trace")
    p.add_argument("--predicate", required=True)
    p.add_argument("--all", action="store_true", help="enumerate all (exponential)")
    p.add_argument("--limit", type=_non_negative_int, default=20)
    p.add_argument("--engine", choices=["auto", "exhaustive", "slice"],
                   default=None,
                   help="detection engine (default: conjunctive fast path; "
                        "'slice' is the polynomial slicing engine, 'auto' "
                        "falls back to 'exhaustive' for non-regular predicates)")
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("control", help="off-line predicate control")
    p.add_argument("trace")
    p.add_argument("--predicate", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="draw the paper's select() at random from this seed "
                        "(default: its deterministic first-element order)")
    p.add_argument("--minimize", action="store_true",
                   help="drop arrows implied transitively")
    p.add_argument("-o", "--output", help="write the controlled trace here")
    p.add_argument("--store", metavar="sqlite:PATH",
                   help="record the candidate control relation as a branch "
                        "of this durable trace store")
    p.add_argument("--branch", metavar="NAME",
                   help="branch name for --store (default: candidate-K)")
    p.set_defaults(fn=_cmd_control)

    p = sub.add_parser("replay", help="re-execute a (controlled) trace")
    p.add_argument("trace",
                   help="a trace file, or sqlite:PATH[@branch] to replay a "
                        "recorded candidate branch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("-o", "--output")
    p.add_argument("--predicate",
                   help="lint the input against this predicate too before "
                        "replaying (enables the Lemma-2 C104 gate)")
    p.add_argument("--force", action="store_true",
                   help="replay even if lint finds an interfering (C101) or "
                        "obstructed (C104) control relation")
    p.add_argument("--store", metavar="sqlite:PATH",
                   help="record the control relation and its replay verdict "
                        "as a branch of this durable trace store")
    p.add_argument("--branch", metavar="NAME",
                   help="branch name for --store (default: candidate-K)")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser(
        "ingest",
        help="convert between the batch trace document and the "
             "repro-events/1 stream (direction is sniffed from the input), "
             "and/or ingest into a durable --store commit chain",
    )
    p.add_argument("trace", help="input trace (either format)")
    p.add_argument("-o", "--output", help="converted trace")
    p.add_argument("--store", metavar="sqlite:PATH",
                   help="also persist the trace into this durable store "
                        "and report the commit id")
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser(
        "lint",
        help="static analysis: trace axioms, control relation, predicate "
             "class, and message races -- no detector or replay is run",
    )
    p.add_argument("trace", nargs="?",
                   help="trace to lint (either format; sniffed)")
    p.add_argument("--store", metavar="sqlite:PATH[@branch]",
                   help="lint a branch of a durable trace store instead of "
                        "a file (witnesses carry branch@commit locations)")
    p.add_argument("--predicate",
                   help="enable the predicate rules (Lemma 2, A1/A2, "
                        "classifier) for this spec")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="report format")
    p.add_argument("--strict", action="store_true",
                   help="fail (exit 1) on warnings too, not just errors")
    p.add_argument("--baseline", metavar="FILE",
                   help="suppress findings fingerprinted in this baseline "
                        "file; only new findings are reported")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite --baseline FILE to accept every current "
                        "finding, then exit 0")
    p.add_argument("--rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("-o", "--output", help="write the report here instead "
                                          "of stdout")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "watch",
        help="stream a repro-events/1 trace through the incremental "
             "detector, polling after every record",
    )
    p.add_argument("trace", help="a repro-events/1 stream")
    p.add_argument("--predicate", required=True)
    p.add_argument("--verify", action="store_true",
                   help="cross-check the streamed verdict against the batch "
                        "conjunctive detector on the final prefix")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="json: emit repro-verdicts/1 events, one per line "
                        "(the same schema `repro serve` pushes)")
    p.add_argument("--store", metavar="sqlite:PATH",
                   help="ingest the watched stream into this durable store "
                        "and report the final commit id")
    p.add_argument("--lint", action="store_true",
                   help="run the streaming linter alongside detection and "
                        "emit findings inline as records arrive")
    p.set_defaults(fn=_cmd_watch)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant online detection server "
             "(many concurrent repro-events/1 streams, live verdict push)",
    )
    p.add_argument("--listen", required=True,
                   help="'host:port' for TCP or 'unix:PATH' for a unix socket")
    p.add_argument("--workers", type=int, default=2,
                   help="detection worker processes (0 = inline, no IPC)")
    p.add_argument("--policy", choices=["pause", "shed", "disconnect"],
                   default="pause",
                   help="slow-consumer policy once a session's credit "
                        "budget is spent")
    p.add_argument("--quota", action="append", metavar="[TENANT=]S,B,ST",
                   help="quota STREAMS,BUFFERED_EVENTS,STORE_STATES; "
                        "prefix TENANT= to override one tenant "
                        "(repeatable; 0 store states = unlimited)")
    p.add_argument("--batch", type=int, default=64,
                   help="stream lines per worker batch")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="seconds to wait for a session's outcome; bounds "
                        "only a wedged, unsupervised worker")
    p.add_argument("--durable", metavar="DIR",
                   help="directory for per-session WALs + checkpoints; "
                        "enables crash-safe sessions and client resume "
                        "(omit for in-memory serving)")
    p.add_argument("--store", metavar="sqlite:DIR",
                   help="keep each session's trace in a per-session SQLite "
                        "commit chain under DIR; durable checkpoints then "
                        "record a commit id instead of re-freezing the "
                        "full store as JSON")
    p.add_argument("--lint", action="store_true",
                   help="attach a streaming linter to every session and "
                        "push repro-findings/1 events with the verdicts")
    p.add_argument("--fsync", choices=["always", "batch", "never"],
                   default="batch",
                   help="WAL fsync policy: every record / on checkpoints "
                        "and flushes / leave it to the OS")
    p.add_argument("--checkpoint-every", type=int, default=256,
                   metavar="LINES",
                   help="checkpoint a durable session every N logged lines")
    p.add_argument("--no-supervise", action="store_true",
                   help="do not restart dead/hung worker shards")
    p.add_argument("--heartbeat-interval", type=float, default=0.5,
                   metavar="SECS", help="supervisor heartbeat period")
    p.add_argument("--heartbeat-timeout", type=float, default=10.0,
                   metavar="SECS",
                   help="a live worker silent this long is declared hung")
    p.add_argument("--restart-budget", type=int, default=3,
                   help="worker restarts per shard per minute before its "
                        "sessions move to a surviving shard")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "db",
        help="inspect/maintain a durable trace store "
             "(SQLite commit chain: log, branches, gc)",
    )
    db_sub = p.add_subparsers(dest="db_command", required=True)
    q = db_sub.add_parser("init", help="create an empty trace store")
    q.add_argument("db", help="store path (PATH or sqlite:PATH)")
    q.set_defaults(fn=_cmd_db)
    q = db_sub.add_parser("log", help="render a branch's commit chain")
    q.add_argument("db", help="store path (PATH or sqlite:PATH)")
    q.add_argument("--branch", default="main")
    q.add_argument("--format", choices=["text", "json"], default="text",
                   help="json: one chain entry per line, machine-readable")
    q.set_defaults(fn=_cmd_db)
    q = db_sub.add_parser(
        "branch", help="list branches, or fork one at a commit"
    )
    q.add_argument("db", help="store path (PATH or sqlite:PATH)")
    q.add_argument("name", nargs="?", help="new branch name (omit to list)")
    q.add_argument("--from", dest="from_branch", default="main",
                   metavar="BRANCH", help="branch to fork from")
    q.add_argument("--at", type=int, metavar="COMMIT",
                   help="fork at this commit instead of the branch head")
    q.add_argument("--delete", metavar="NAME",
                   help="drop a branch pointer instead (gc folds its "
                        "commits)")
    q.set_defaults(fn=_cmd_db)
    q = db_sub.add_parser(
        "gc", help="fold commits unreachable from any branch"
    )
    q.add_argument("db", help="store path (PATH or sqlite:PATH)")
    q.set_defaults(fn=_cmd_db)
    q = db_sub.add_parser(
        "lint", help="lint a branch (alias for repro lint --store)"
    )
    q.add_argument("db", help="store path (PATH or sqlite:PATH)")
    q.add_argument("--branch", default=None,
                   help="branch to lint (default: main)")
    q.add_argument("--predicate",
                   help="enable the predicate rules for this spec")
    q.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="report format")
    q.add_argument("--strict", action="store_true",
                   help="fail (exit 1) on warnings too")
    q.add_argument("--baseline", metavar="FILE",
                   help="suppress findings fingerprinted in this baseline")
    q.add_argument("--update-baseline", action="store_true",
                   help="rewrite --baseline FILE from current findings")
    q.add_argument("-o", "--output",
                   help="write the report here instead of stdout")
    q.set_defaults(fn=_cmd_db)

    p = sub.add_parser(
        "tail",
        help="follow live verdicts: subscribe to a server's tenant "
             "(--connect) or tail a repro-events/1 file on disk",
    )
    p.add_argument("trace", nargs="?",
                   help="a repro-events/1 stream file to tail locally")
    p.add_argument("--connect",
                   help="subscribe to a running server instead "
                        "('host:port' or 'unix:PATH')")
    p.add_argument("--tenant", default="default")
    p.add_argument("--predicate",
                   help="predicate spec (required when tailing a file)")
    p.add_argument("--follow", action="store_true",
                   help="keep waiting for the file to grow (like tail -f); "
                        "a truncated final line is retried, not fatal")
    p.add_argument("--retries", type=int, default=10, metavar="N",
                   help="transient-error budget: reconnects (--connect) or "
                        "waits for a missing/vanished file (--follow) back "
                        "off exponentially up to N consecutive attempts, "
                        "then exit 3")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_tail)

    p = sub.add_parser("obs", help="flight recorder: record/summarise/export")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    p = obs_sub.add_parser("record", help="run an instrumented workload")
    p.add_argument("--workload", choices=("philosophers", "mutex"),
                   default="philosophers")
    p.add_argument("--predicate", default="disjunctive",
                   help="'disjunctive' (workload default) or a spec like "
                        "at-least-one:thinking")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--rounds", type=int, default=2,
                   help="meals per philosopher / CS entries per process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                   default="antitoken", help="mutex workload only")
    p.add_argument("--capacity", type=int, default=100_000,
                   help="ring-buffer capacity (events)")
    p.add_argument("--detect-limit", type=int, default=80,
                   help="skip the exhaustive lattice walk above this many "
                        "states (it is exponential)")
    p.add_argument("--trace-out",
                   help="also dump the controlled deposet (with obs block)")
    p.add_argument("-o", "--output", default=DEFAULT_RECORDING)
    p.set_defaults(fn=_cmd_obs_record)

    p = obs_sub.add_parser("summary", help="summarise a recording")
    p.add_argument("recording", nargs="?", default=DEFAULT_RECORDING)
    p.set_defaults(fn=_cmd_obs_summary)

    p = obs_sub.add_parser("export", help="convert a recording for viewers")
    p.add_argument("output", help="output path (e.g. out.json)")
    p.add_argument("--format", choices=("chrome", "jsonl"), default="chrome")
    p.add_argument("--input", default=DEFAULT_RECORDING)
    p.set_defaults(fn=_cmd_obs_export)

    p = sub.add_parser(
        "chaos",
        help="fault-inject the anti-token mutex, hardened vs unhardened",
    )
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--entries", type=int, default=6, help="CS entries per process")
    p.add_argument("--loss", type=float, default=0.2,
                   help="control-message drop rate")
    p.add_argument("--duplicate", type=float, default=0.0,
                   help="control-message duplication rate")
    p.add_argument("--crash", type=int, default=1,
                   help="number of processes to fail-stop mid-run")
    p.add_argument("--think", type=float, default=4.0)
    p.add_argument("--cs", type=float, default=1.0)
    p.add_argument("--delay", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lease-timeout", type=float, default=20.0)
    p.add_argument("--capacity", type=int, default=100_000,
                   help="obs ring-buffer capacity (with --record)")
    p.add_argument("--record", help="write the hardened run's obs JSONL here")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("mutex-bench", help="run one (n-1)-mutex workload")
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="antitoken")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--entries", type=int, default=20)
    p.add_argument("--think", type=float, default=4.0)
    p.add_argument("--cs", type=float, default=1.0)
    p.add_argument("--delay", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_mutex_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
