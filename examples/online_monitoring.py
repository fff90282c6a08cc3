#!/usr/bin/env python
"""Live detection and live control, side by side.

Runs the same replicated-server workload three ways:

1. *unguarded, monitored* -- a :class:`ViolationMonitor` (on-line
   Garg-Waldecker weak-conjunctive detection) reports, while the system is
   still running, every consistent global state where all servers are down;
2. *controlled, monitored* -- the scapegoat controller
   (:class:`OnlineDisjunctiveControl`) enforces the availability predicate;
   the monitor, which reads the controller's req/ack causality from the
   recorded control arrows, now finds nothing;
3. cross-check both against off-line detection on the recorded traces.
"""

from repro import (
    OnlineDisjunctiveControl,
    System,
    ViolationMonitor,
    at_least_one,
    possibly_bad,
)


def server(ctx):
    for _ in range(6):
        yield ctx.compute(float(ctx.rng.uniform(1.0, 3.0)))
        yield ctx.set(up=False)
        yield ctx.compute(float(ctx.rng.uniform(0.5, 1.5)))
        if ctx.rng.random() < 0.3:
            yield ctx.send((ctx.proc + 1) % ctx.n, "heartbeat", up=True)
        else:
            yield ctx.set(up=True)
    while True:
        yield ctx.receive()  # drain stray heartbeats


def run(n, seed, guarded):
    conditions = [lambda v: bool(v.get("up", False)) for _ in range(n)]
    monitor = ViolationMonitor(conditions)
    guard = OnlineDisjunctiveControl(conditions) if guarded else None
    system = System(
        [server] * n,
        start_vars=[{"up": True}] * n,
        guard=guard,
        observers=[monitor],
        seed=seed,
        jitter=0.3,
    )
    result = system.run(max_events=50_000)
    return monitor, guard, result


def main() -> None:
    n, seed = 3, 7
    safety = at_least_one(n, "up")

    monitor, _, result = run(n, seed, guarded=False)
    print(f"unguarded run: monitor detected {len(monitor.violations)} "
          f"violating global state(s), live:")
    for v in monitor.violations:
        print(f"  cut {v.cut} (detected at t={v.detected_at:.2f})")
    offline = possibly_bad(result.deposet, safety)
    print(f"off-line detection on the recorded trace agrees: first = {offline}")
    assert monitor.first == offline

    monitor, guard, result = run(n, seed, guarded=True)
    print(f"\ncontrolled run: {len(guard.handoffs)} scapegoat handoffs, "
          f"{result.control_messages} control messages")
    print(f"monitor detected {len(monitor.violations)} violation(s) "
          f"(control arrows are part of the recorded causality)")
    assert monitor.violations == []
    assert possibly_bad(result.deposet, safety) is None
    print("the bug is impossible, and the live monitor can prove it too")


if __name__ == "__main__":
    main()
