"""Tests for the on-line violation monitor (live WCP detection)."""

import pytest

from repro.core.online import OnlineDisjunctiveControl
from repro.detection import possibly_bad, violating_cuts
from repro.detection.online import ViolationMonitor
from repro.errors import OnlineControlError
from repro.faults import FaultPlan
from repro.sim import System
from repro.workloads import availability_predicate


def up_conditions(n):
    return [lambda v: bool(v.get("up", False)) for _ in range(n)]


def updown_program(cycles):
    def program(ctx):
        for _ in range(cycles):
            yield ctx.compute(float(ctx.rng.uniform(1.0, 3.0)))
            yield ctx.set(up=False)
            yield ctx.compute(float(ctx.rng.uniform(0.5, 1.5)))
            if ctx.rng.random() < 0.3:
                yield ctx.send((ctx.proc + 1) % ctx.n, "hb", up=True)
            else:
                yield ctx.set(up=True)
        while True:
            yield ctx.receive()

    return program


def run_with_monitor(n=3, cycles=5, seed=0, guard=None, faults=None):
    monitor = ViolationMonitor(up_conditions(n))
    system = System(
        [updown_program(cycles) for _ in range(n)],
        start_vars=[{"up": True}] * n,
        observers=[monitor],
        guard=guard,
        seed=seed,
        jitter=0.3,
        faults=faults,
    )
    result = system.run(max_events=100_000)
    return monitor, result


@pytest.mark.parametrize("seed", range(8))
def test_first_violation_matches_offline_detection(seed):
    monitor, result = run_with_monitor(seed=seed)
    offline = possibly_bad(result.deposet, availability_predicate(3, var="up"))
    assert monitor.first == offline


def disjoint_chain(dep, pred):
    """Ground truth by brute force: starting from nothing, repeatedly take
    the componentwise-least violating cut strictly above the previous one
    on every process (violating cuts strictly above a cut are closed under
    componentwise min, so the least one is itself violating)."""
    cuts = violating_cuts(dep, pred)
    chain = []
    while True:
        above = [
            c for c in cuts
            if not chain or all(x > y for x, y in zip(c, chain[-1]))
        ]
        if not above:
            return chain
        least = tuple(min(col) for col in zip(*above))
        assert least in above
        chain.append(least)


def assert_matches_ground_truth(monitor, result, n):
    dep = result.deposet
    truth = disjoint_chain(dep, availability_predicate(n, var="up"))
    assert [v.cut for v in monitor.violations] == truth
    for v in monitor.violations:
        # detected the moment the cut's last state was entered
        assert v.detected_at == max(
            dep.timestamps[i][a] for i, a in enumerate(v.cut)
        )


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_violations_equal_brute_force_disjoint_chain(n, seed):
    monitor, result = run_with_monitor(n=n, seed=seed)
    assert_matches_ground_truth(monitor, result, n)


@pytest.mark.parametrize("seed", range(3))
def test_guarded_run_matches_ground_truth(seed):
    guard = OnlineDisjunctiveControl(up_conditions(3))
    monitor, result = run_with_monitor(seed=seed, guard=guard)
    assert_matches_ground_truth(monitor, result, 3)


@pytest.mark.parametrize("seed", range(3))
def test_crashed_run_matches_ground_truth(seed):
    plan = FaultPlan(seed=seed, crashes={seed % 3: 5.0})
    monitor, result = run_with_monitor(seed=seed, faults=plan)
    assert result.crashed
    assert_matches_ground_truth(monitor, result, 3)


def test_violations_are_disjoint_and_ordered():
    for seed in range(8):
        monitor, _ = run_with_monitor(seed=seed)
        cuts = [v.cut for v in monitor.violations]
        for a, b in zip(cuts, cuts[1:]):
            assert all(x < y for x, y in zip(a, b))  # strictly later everywhere


def test_violation_cuts_are_consistent_and_all_down(capsys=None):
    for seed in range(5):
        monitor, result = run_with_monitor(seed=seed)
        dep = result.deposet
        for v in monitor.violations:
            assert dep.order.is_consistent_cut(v.cut)
            for i, a in enumerate(v.cut):
                assert not dep.state_vars((i, a)).get("up")


def test_detection_timestamps_monotone():
    monitor, _ = run_with_monitor(seed=3)
    times = [v.detected_at for v in monitor.violations]
    assert times == sorted(times)


def test_monitor_under_control_sees_nothing():
    """Detection and control together: the controller makes the monitored
    predicate unviolable, so the monitor stays silent."""
    any_found = 0
    for seed in range(5):
        guard = OnlineDisjunctiveControl(up_conditions(3))
        monitor, result = run_with_monitor(seed=seed, guard=guard)
        assert monitor.violations == []
        # sanity: the same seeds DO violate without the controller
        unguarded, _ = run_with_monitor(seed=seed)
        any_found += bool(unguarded.violations)
    assert any_found > 0


def test_initially_violating_state_detected():
    monitor = ViolationMonitor([lambda v: False, lambda v: False])

    def idle(ctx):
        yield ctx.compute(1.0)

    System([idle, idle], observers=[monitor]).run()
    assert monitor.first == (0, 0)


def test_arity_mismatch_rejected():
    monitor = ViolationMonitor([lambda v: True])

    def idle(ctx):
        yield ctx.compute(1.0)

    with pytest.raises(OnlineControlError):
        System([idle, idle], observers=[monitor])
