"""Property suite: the incremental CausalIndex equals batch CausalOrder.

The load-bearing guarantee of the index layer: after *any* valid
interleaving of event appends and arrow inserts, the index's clocks and
query answers are identical to a :class:`CausalOrder` built from scratch
over the same states and arrows -- including error behaviour (D1/D2
rejection messages and :class:`CycleError` payloads).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality.relations import CausalOrder, CycleError, StateRef
from repro.errors import InterferenceError, MalformedTraceError
from repro.store import CausalIndex, TraceStore
from repro.workloads import random_deposet

from ..oracles import cycle_cone, reachability_clocks

SMALL = dict(n=3, events_per_proc=4, message_rate=0.4, flip_rate=0.3)


def assert_orders_equal(inc, batch):
    assert inc.state_counts == batch.state_counts
    for i in range(len(inc.state_counts)):
        assert np.array_equal(inc.clock_matrix(i), batch.clock_matrix(i)), i


def all_states(counts):
    return [(i, a) for i, m in enumerate(counts) for a in range(m)]


def assert_queries_equal(inc, batch):
    states = all_states(batch.state_counts)
    for a in states:
        for b in states:
            assert inc.happened_before(a, b) == batch.happened_before(a, b)
            assert inc.concurrent(a, b) == batch.concurrent(a, b)


# -- replaying whole deposets ------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_replayed_deposet_matches_batch_order(seed):
    """Feeding a deposet through the store's append path reproduces the
    batch-computed causal order exactly."""
    dep = random_deposet(seed=seed, **SMALL)
    store = TraceStore.from_deposet(dep)
    assert_orders_equal(store.index, dep.base_order)
    assert_queries_equal(store.index, dep.base_order)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_replayed_controlled_deposet_matches_extended_order(seed):
    """Control arrows streamed as cone inserts yield the same clocks as a
    full batch rebuild over messages + control."""
    dep = random_deposet(seed=seed, **SMALL)
    rng = random.Random(seed)
    arrows = []
    for _ in range(4):
        i, j = rng.sample(range(dep.n), 2)
        if dep.state_counts[i] < 2 or dep.state_counts[j] < 2:
            continue
        a = rng.randrange(dep.state_counts[i] - 1)
        b = rng.randrange(1, dep.state_counts[j])
        if dep.order.concurrent((i, a), (j, b)):
            arrows.append((StateRef(i, a), StateRef(j, b)))
    if not arrows:
        return
    try:
        controlled = dep.with_control(arrows)
    except InterferenceError:
        return  # individually concurrent arrows may still be jointly cyclic
    store = TraceStore.from_deposet(controlled)
    assert_orders_equal(store.index, controlled.order)
    assert_queries_equal(store.index, controlled.order)
    assert set(store.control_arrows) == set(controlled.control_arrows)


# -- arbitrary interleavings -------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_interleaved_appends_and_inserts_match_batch(seed):
    """A random program of appends (with and without message sources) and
    arrow inserts leaves the index identical to a from-scratch CausalOrder;
    interfering inserts raise a CycleError with the exact batch payload."""
    rng = random.Random(seed)
    n = 3
    idx = CausalIndex([1] * n)
    counts = [1] * n
    arrows = []  # mirror of everything inserted, for batch rebuilds

    for _ in range(22):
        if rng.random() < 0.65 or sum(counts) < 5:
            proc = rng.randrange(n)
            sources = []
            if rng.random() < 0.4:
                others = [p for p in range(n) if p != proc and counts[p] >= 2]
                if others:
                    p = rng.choice(others)
                    a = rng.randrange(counts[p] - 1)
                    sources.append((p, a))
            entered = idx.append_event(proc, sources)
            counts[proc] += 1
            assert entered == StateRef(proc, counts[proc] - 1)
            for src in sources:
                arrows.append((StateRef(*src), entered))
        else:
            i, j = rng.sample(range(n), 2)
            if counts[i] < 2 or counts[j] < 2:
                continue
            arrow = (
                StateRef(i, rng.randrange(counts[i] - 1)),
                StateRef(j, rng.randrange(1, counts[j])),
            )
            try:
                CausalOrder(counts, arrows + [arrow])
            except CycleError as batch_exc:
                with pytest.raises(CycleError) as caught:
                    idx.insert_arrows([arrow])
                assert sorted(caught.value.remaining) == sorted(
                    batch_exc.remaining
                )
                continue
            idx.insert_arrows([arrow])
            if arrow not in arrows:
                arrows.append(arrow)

    batch = CausalOrder(counts, arrows)
    assert_orders_equal(idx, batch)
    assert_queries_equal(idx, batch)
    # consistency queries agree on random cuts
    for _ in range(20):
        cut = [rng.randrange(m) for m in counts]
        assert idx.is_consistent_cut(cut) == batch.is_consistent_cut(cut)


# -- validation parity -------------------------------------------------------


def test_insert_rejects_d1_d2_like_batch():
    idx = CausalIndex([3, 3])
    cases = [
        ((0, 2), (1, 1), "C103"),            # D2: source never completes
        ((0, 0), (1, 0), "C103"),            # D1: target always entered
        ((0, 5), (1, 1), "T005"),            # no such state
        ((3, 0), (1, 1), "T005"),            # no such process
        ((0, 1), (0, 1), "C103"),            # points backwards
    ]
    for src, dst, rule in cases:
        arrow = (StateRef(*src), StateRef(*dst))
        with pytest.raises(MalformedTraceError) as inc_err:
            idx.insert_arrows([arrow])
        with pytest.raises(MalformedTraceError) as batch_err:
            CausalOrder([3, 3], [arrow])
        assert inc_err.value.rule == batch_err.value.rule == rule
        assert str(inc_err.value) == str(batch_err.value)


def test_append_requires_completed_source():
    """Streaming appends must arrive in causal delivery order: an arrow
    from the sender's *current* (incomplete) state is rejected."""
    idx = CausalIndex([1, 1])
    idx.append_event(0)  # P0 now has states 0,1; only state 0 completed
    with pytest.raises(MalformedTraceError, match="causal delivery order"):
        idx.append_event(1, sources=[(0, 1)])
    idx.append_event(1, sources=[(0, 0)])  # completed source is fine


def test_failed_insert_leaves_index_usable():
    """A rejected (cyclic) insert must not corrupt the index."""
    idx = CausalIndex([1, 1])
    for _ in range(3):
        idx.append_event(0)
        idx.append_event(1)
    idx.insert_arrows([(StateRef(0, 1), StateRef(1, 2))])
    before = [idx.clock_matrix(i).copy() for i in range(2)]
    with pytest.raises(CycleError):
        idx.insert_arrows([(StateRef(1, 1), StateRef(0, 1))])
    for i in range(2):
        assert np.array_equal(idx.clock_matrix(i), before[i])
    # and the index still accepts further valid operations
    idx.append_event(0)
    idx.insert_arrows([(StateRef(1, 2), StateRef(0, 3))])
    counts = idx.state_counts
    batch = CausalOrder(counts, idx.arrows)
    assert_orders_equal(idx, batch)


# -- dedupe regression (satellite: repeated arrows must not accumulate) ------


def test_extended_dedupes_repeated_arrows():
    base = CausalOrder([3, 3], [(StateRef(0, 0), StateRef(1, 1))])
    again = CausalIndex.from_order(base).extended(
        [(StateRef(0, 0), StateRef(1, 1))]
    )
    assert len(again.arrows) == len(base.arrows) == 1
    idx = CausalIndex.from_order(base)
    idx.insert_arrows([(StateRef(0, 0), StateRef(1, 1))])
    assert len(idx.arrows) == 1


def test_freeze_isolates_snapshot_from_later_growth():
    idx = CausalIndex([1, 1])
    idx.append_event(0)
    idx.append_event(1, sources=[(0, 0)])
    frozen = idx.freeze()
    expect = [frozen.clock_matrix(i).copy() for i in range(2)]
    # grow and rewrite the live index afterwards
    idx.append_event(0)
    idx.append_event(1)
    idx.insert_arrows([(StateRef(1, 1), StateRef(0, 2))])
    assert frozen.state_counts == (2, 2)
    for i in range(2):
        assert np.array_equal(frozen.clock_matrix(i), expect[i])
    with pytest.raises(RuntimeError):
        frozen.insert_arrows([(StateRef(0, 0), StateRef(1, 1))])
    batch = CausalOrder(idx.state_counts, idx.arrows)
    assert_orders_equal(idx, batch)


# -- append validation (one validator for batch and append) ------------------


@pytest.mark.parametrize(
    "proc, src",
    [
        (0, (0, -1)),   # negative state index on the appending process
        (0, (0, 2)),    # the state being entered
        (0, (0, 3)),    # beyond the state being entered
        (0, (1, 5)),    # no such state on another process
        (0, (1, -1)),
        (0, (2, 0)),    # no such process
    ],
)
def test_append_rejects_bad_sources_like_batch(proc, src):
    """An appended source is judged like a batch arrow into the entered
    state, against the counts after the append; a rejected append leaves
    the index unchanged and still rebuildable."""
    idx = CausalIndex([2, 2])
    entered = StateRef(proc, idx.state_counts[proc])
    after = list(idx.state_counts)
    after[proc] += 1
    with pytest.raises(MalformedTraceError) as batch_err:
        CausalOrder(after, [(StateRef(*src), entered)])
    with pytest.raises(MalformedTraceError) as inc_err:
        idx.append_event(proc, [src])
    assert str(inc_err.value) == str(batch_err.value)
    assert idx.state_counts == (2, 2)
    assert idx.arrows == []
    assert_orders_equal(idx, CausalOrder(idx.state_counts, idx.arrows))


# -- an independent oracle: reachability over the event graph ----------------


def assert_matches_oracle(order, counts, arrows):
    expect = reachability_clocks(counts, arrows)
    assert tuple(order.state_counts) == tuple(counts)
    for i in range(len(counts)):
        assert order.clock_matrix(i).tolist() == expect[i], i


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_batch_and_appended_orders_match_oracle(seed):
    """CausalOrder, the deposet's index and a store grown by appends all
    equal the brute-force reachability clocks."""
    dep = random_deposet(seed=seed, **SMALL)
    arrows = [(m.src, m.dst) for m in dep.messages]
    assert cycle_cone(dep.state_counts, arrows) == []
    assert_matches_oracle(CausalOrder(dep.state_counts, arrows), dep.state_counts, arrows)
    assert_matches_oracle(dep.base_order, dep.state_counts, arrows)
    store = TraceStore.from_deposet(dep)
    assert_matches_oracle(store.index, dep.state_counts, arrows)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_appends_and_inserts_match_oracle(seed):
    """The interleaved append/insert program, judged by the oracle alone:
    acyclic inserts leave reachability clocks; an insert the DFS finds
    cyclic raises a CycleError naming exactly the cycle's cone."""
    rng = random.Random(seed)
    n = 3
    idx = CausalIndex([1] * n)
    counts = [1] * n
    arrows = []
    for _ in range(22):
        if rng.random() < 0.65 or sum(counts) < 5:
            proc = rng.randrange(n)
            sources = []
            if rng.random() < 0.4:
                others = [p for p in range(n) if p != proc and counts[p] >= 2]
                if others:
                    p = rng.choice(others)
                    sources.append((p, rng.randrange(counts[p] - 1)))
            entered = idx.append_event(proc, sources)
            counts[proc] += 1
            arrows.extend((StateRef(*src), entered) for src in sources)
        else:
            i, j = rng.sample(range(n), 2)
            if counts[i] < 2 or counts[j] < 2:
                continue
            arrow = (
                StateRef(i, rng.randrange(counts[i] - 1)),
                StateRef(j, rng.randrange(1, counts[j])),
            )
            cone = cycle_cone(counts, arrows + [arrow])
            if cone:
                with pytest.raises(CycleError) as caught:
                    idx.insert_arrows([arrow])
                assert sorted(caught.value.remaining) == cone
                continue
            idx.insert_arrows([arrow])
            if arrow not in arrows:
                arrows.append(arrow)
        assert_matches_oracle(idx, counts, arrows)
    assert_matches_oracle(CausalOrder(counts, arrows), counts, arrows)
    frozen = idx.freeze()
    assert_matches_oracle(frozen, counts, arrows)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_arbitrary_arrow_sets_match_oracle(seed):
    """Arbitrary well-formed arrow sets, cyclic ones included: the batch
    order and a one-at-a-time insert agree with the DFS on acyclicity,
    with reachability on clocks, and with each other on the payload."""
    rng = random.Random(seed)
    counts = [rng.randint(2, 5) for _ in range(rng.randint(2, 4))]
    arrows = []
    for _ in range(rng.randint(1, 6)):
        i, j = rng.randrange(len(counts)), rng.randrange(len(counts))
        src = StateRef(i, rng.randrange(counts[i] - 1))
        dst = StateRef(j, rng.randrange(1, counts[j]))
        if i != j or src.index < dst.index:
            arrows.append((src, dst))
    cone = cycle_cone(counts, arrows)
    if cone:
        with pytest.raises(CycleError) as caught:
            CausalOrder(counts, arrows)
        assert caught.value.remaining == cone
        with pytest.raises(CycleError):
            CausalIndex(counts).insert_arrows(arrows)
        return
    assert_matches_oracle(CausalOrder(counts, arrows), counts, arrows)
    idx = CausalIndex(counts)
    for arrow in arrows:
        idx.insert_arrows([arrow])
    assert_matches_oracle(idx, counts, arrows)


# -- batch inserts: one propagation, all or nothing --------------------------


def test_cyclic_batch_leaves_live_index_unchanged():
    """A batch whose last two arrows, each acyclic alone, close a cycle
    only together, after a first arrow whose cone the propagation gets
    through: the live index keeps its arrows and clocks (a snapshot too),
    names the batch order's cycle cone, and later appends and inserts
    still match a fresh order."""
    idx = CausalIndex([1, 1, 1])
    for _ in range(4):
        idx.append_event(0)
        idx.append_event(1)
    idx.append_event(2)
    idx.insert_arrows([(StateRef(0, 0), StateRef(1, 1))])
    frozen = idx.freeze()
    arrows = idx.arrows
    clocks = [idx.clock_matrix(i).copy() for i in range(3)]
    batch = [
        (StateRef(2, 0), StateRef(0, 1)),  # reorders all of process 0
        (StateRef(0, 2), StateRef(1, 3)),
        (StateRef(1, 2), StateRef(0, 3)),
    ]
    for arrow in batch:
        idx.extended([arrow])  # each alone is fine
    with pytest.raises(CycleError) as caught:
        CausalOrder(idx.state_counts, arrows + batch)
    expect = caught.value.remaining
    with pytest.raises(CycleError) as caught:
        idx.insert_arrows(batch)
    assert caught.value.remaining == expect
    assert idx.arrows == arrows
    for i in range(3):
        assert np.array_equal(idx.clock_matrix(i), clocks[i])
        assert np.array_equal(frozen.clock_matrix(i), clocks[i])
    idx.append_event(0, [(1, 2)])
    idx.append_event(1)
    idx.insert_arrows([(StateRef(0, 3), StateRef(1, 4)), batch[0]])
    assert_orders_equal(idx, CausalOrder(idx.state_counts, idx.arrows))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_random_batches_match_batch_order(seed):
    """A batch of random arrows inserted at once into a live index with
    messages: the clocks of a batch build on success; on a cycle, its
    exact payload and an untouched index."""
    rng = random.Random(seed)
    dep = random_deposet(seed=seed, **SMALL)
    idx = TraceStore.from_deposet(dep).index
    counts = list(idx.state_counts)
    before = idx.arrows
    clocks = [idx.clock_matrix(i).copy() for i in range(dep.n)]
    procs = [i for i, m in enumerate(counts) if m > 1]
    batch = []
    for _ in range(rng.randint(1, 6) if procs else 0):
        i, j = rng.choice(procs), rng.choice(procs)
        src = StateRef(i, rng.randrange(counts[i] - 1))
        dst = StateRef(j, rng.randrange(1, counts[j]))
        if i != j or src.index < dst.index:
            batch.append((src, dst))
    try:
        expect = CausalOrder(counts, before + batch)
    except CycleError as batch_exc:
        with pytest.raises(CycleError) as caught:
            idx.insert_arrows(batch)
        assert caught.value.remaining == batch_exc.remaining
        assert idx.arrows == before
        for i in range(dep.n):
            assert np.array_equal(idx.clock_matrix(i), clocks[i])
        return
    idx.insert_arrows(batch)
    assert_orders_equal(idx, expect)
    assert_matches_oracle(idx, counts, idx.arrows)
