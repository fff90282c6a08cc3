"""Tests for ControlRelation (the control-strategy value type)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality import StateRef
from repro.causality.relations import CycleError
from repro.core import ControlRelation, control_disjunctive
from repro.errors import InterferenceError
from repro.trace import ComputationBuilder
from repro.workloads import (
    mutex_predicate,
    mutex_trace,
    random_deposet,
)

from ..oracles import minimized_greedy


def chain_dep(k=4):
    b = ComputationBuilder(2)
    for _ in range(k):
        b.local(0)
        b.local(1)
    return b.build()


def test_dedup_and_order():
    r = ControlRelation([((0, 1), (1, 1)), ((0, 1), (1, 1)), ((1, 1), (0, 2))])
    assert len(r) == 2
    assert r.arrows[0] == (StateRef(0, 1), StateRef(1, 1))


def test_same_process_arrow_rejected():
    with pytest.raises(ValueError):
        ControlRelation([((0, 1), (0, 2))])


def test_equality_is_set_based():
    a = ControlRelation([((0, 1), (1, 1)), ((1, 1), (0, 2))])
    b = ControlRelation([((1, 1), (0, 2)), ((0, 1), (1, 1))])
    assert a == b
    assert hash(a) == hash(b)
    assert a != ControlRelation([((0, 1), (1, 1))])


def test_bool_and_message_count():
    assert not ControlRelation()
    r = ControlRelation([((0, 1), (1, 1))])
    assert r and r.message_count == 1


def test_apply_checks_interference():
    dep = chain_dep(2)
    # "1:1 entered after 0:1 completed" and vice versa: event-level cycle
    bad = ControlRelation([((0, 1), (1, 1)), ((1, 1), (0, 1))])
    with pytest.raises(InterferenceError):
        bad.apply(dep)


def test_restricted_to():
    r = ControlRelation([((0, 1), (1, 1)), ((1, 1), (2, 1)), ((2, 1), (0, 2))])
    assert len(r.restricted_to([0, 1])) == 1
    assert len(r.restricted_to([0, 1, 2])) == 3


def test_merged_with():
    a = ControlRelation([((0, 1), (1, 1))])
    b = ControlRelation([((0, 1), (1, 1)), ((1, 1), (0, 3))])
    merged = a.merged_with(b)
    assert len(merged) == 2


def test_minimized_drops_transitively_implied():
    dep = chain_dep(4)
    # chain of arrows 0:1 -> 1:2 -> 0:3 plus the implied shortcut 0:1 -> 0:3
    # (same-process arrows are invalid, so use a cross shortcut 1:1 -> 0:4
    # implied by 1:1 <= 1:2 -> 0:3 <= 0:4)
    r = ControlRelation([
        ((0, 1), (1, 2)),
        ((1, 2), (0, 3)),
        ((1, 1), (0, 4)),  # implied: 1:1 completes before 1:2... check below
    ])
    minimized = r.minimized(dep)
    applied_full = r.apply(dep)
    applied_min = minimized.apply(dep)
    # same extended order on all original arrows
    for src, dst in r:
        assert applied_min.order.happened_before(src, dst)
    assert len(minimized) <= len(r)
    assert len(minimized) == 2  # the shortcut goes


def test_minimized_keeps_necessary_arrows():
    dep = chain_dep(3)
    r = ControlRelation([((0, 1), (1, 2)), ((1, 1), (0, 3))])
    assert r.minimized(dep) == r


def test_minimized_on_algorithm_output_still_verifies():
    from repro.core import verify_control

    dep = mutex_trace(cs_per_proc=8, n=3, seed=2)
    pred = mutex_predicate(3)
    res = control_disjunctive(dep, pred, seed=5)
    minimized = res.control.minimized(dep)
    assert len(minimized) <= len(res.control)
    verify_control(dep, pred, minimized)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_minimized_equals_greedy_rebuild_loop(seed):
    """One order and one redundancy test per arrow reproduce the greedy
    reverse-order loop exactly, on deposets that already carry control
    arrows and on relations with arrows equal to a message or to one of
    the deposet's own control arrows."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    dep = random_deposet(n=n, events_per_proc=rng.randint(2, 7),
                         message_rate=rng.uniform(0.1, 0.6), seed=seed)

    procs = [i for i in range(n) if dep.state_counts[i] > 1]

    def random_arrows(k):
        out = []
        for _ in range(k if len(procs) > 1 else 0):
            i, j = rng.sample(procs, 2)
            out.append(((i, rng.randrange(dep.state_counts[i] - 1)),
                        (j, rng.randrange(1, dep.state_counts[j]))))
        return out

    def acyclic(base, arrows):
        kept = []
        for arrow in arrows:
            try:
                base.with_control(kept + [arrow])
            except InterferenceError:
                continue
            kept.append(arrow)
        return kept

    dep = dep.with_control(acyclic(dep, random_arrows(rng.randint(0, 2))))
    arrows = acyclic(dep, random_arrows(rng.randint(1, 8)))
    if dep.messages and rng.random() < 0.5:
        m = rng.choice(dep.messages)
        arrows.append((m.src, m.dst))
    if dep.control_arrows and rng.random() < 0.5:
        arrows.append(rng.choice(dep.control_arrows))
    relation = ControlRelation(arrows)
    assert list(relation.minimized(dep)) == minimized_greedy(relation, dep)


def test_minimized_raises_on_interfering_relation():
    dep = chain_dep(3)
    r = ControlRelation([((0, 1), (1, 2)), ((1, 2), (0, 1))])
    with pytest.raises(CycleError):
        r.minimized(dep)


def test_repr_truncates():
    arrows = [((0, i), (1, i)) for i in range(1, 10)]
    text = repr(ControlRelation(arrows))
    assert "+3" in text
