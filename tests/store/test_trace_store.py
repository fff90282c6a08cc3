"""TraceStore: append discipline, D3, snapshot isolation, epochs."""

import numpy as np
import pytest

from repro.causality.relations import CycleError, StateRef
from repro.errors import MalformedTraceError
from repro.store import TraceStore, iter_delivery_events
from repro.workloads import random_deposet


def make_store():
    """P0: s0 -> s1 -> s2; P1 receives P0's message from s0."""
    store = TraceStore(2, start_vars=[{"x": 0}, {}], start_times=0.0)
    store.append_state(0, {"x": 1}, time=1.0)
    store.append_state(1, {"y": 1}, time=2.0,
                       received_from=(0, 0), payload="m", tag="t")
    store.append_state(0, {"x": 2}, time=3.0)
    return store


def test_append_state_records_columns_and_arrow():
    store = make_store()
    assert store.state_counts == (3, 2)
    assert store.state_vars((0, 2)) == {"x": 2}
    assert store.state_vars((1, 1)) == {"y": 1}
    assert store.state_time((1, 1)) == 2.0
    (msg,) = store.messages
    assert (msg.src, msg.dst, msg.payload, msg.tag) == (
        StateRef(0, 0), StateRef(1, 1), "m", "t"
    )
    assert store.index.happened_before((0, 0), (1, 1))
    assert store.epoch == 0  # plain appends never rewrite the past


def test_d3_one_message_per_event():
    store = make_store()
    # the send event (0,0) already carries a message
    with pytest.raises(MalformedTraceError, match="D3"):
        store.append_state(1, received_from=(0, 0))
    # and so does the receive event of P1
    with pytest.raises(MalformedTraceError, match="D3"):
        store.append_message((0, 1), (1, 1))
    with pytest.raises(MalformedTraceError, match="stays on process 0") as err:
        store.append_state(0, received_from=(0, 0))
    assert err.value.rule == "T006"


def test_append_requires_causal_delivery_order():
    store = TraceStore(2)
    store.append_state(0)
    with pytest.raises(MalformedTraceError, match="causal delivery order"):
        # (0,1) is P0's current state; its leaving event has not happened
        store.append_state(1, received_from=(0, 1))


def test_append_message_compat_path_bumps_epoch():
    store = TraceStore(2)
    store.append_state(0)
    store.append_state(1)
    assert store.epoch == 0
    store.append_message((0, 0), (1, 1), payload=7)
    assert store.epoch == 1
    assert store.index.happened_before((0, 0), (1, 1))


def test_append_control_dedupes_and_bumps_epoch_once():
    store = make_store()
    arrow = (StateRef(0, 1), StateRef(1, 1))
    store.append_control(*arrow)
    assert store.epoch == 1
    store.append_control(*arrow)  # duplicate: no-op
    assert store.epoch == 1
    assert store.control_arrows == (arrow,)
    assert store.index.happened_before((0, 1), (1, 1))


def test_append_control_rejects_interference():
    store = make_store()
    # (1,1) -> (0,1) would close a cycle with the recorded message
    with pytest.raises(CycleError):
        store.append_control((1, 0), (0, 1))


def test_snapshot_equals_batch_deposet_and_is_isolated():
    store = make_store()
    dep = store.snapshot(proc_names=["a", "b"])
    assert dep.proc_names == ("a", "b")
    assert dep.state_counts == (3, 2)
    assert dep.timestamps == ((0.0, 1.0, 3.0), (0.0, 2.0))
    clocks_before = [dep.order.clock_matrix(i).copy() for i in range(2)]

    # the store keeps growing and rewriting; the snapshot must not move
    store.append_state(1, {"y": 2})
    store.append_control((0, 1), (1, 2))
    assert store.state_counts == (3, 3)
    assert dep.state_counts == (3, 2)
    for i in range(2):
        assert np.array_equal(dep.order.clock_matrix(i), clocks_before[i])
    assert dep.control_arrows == ()

    # a later snapshot sees the growth
    dep2 = store.snapshot()
    assert dep2.state_counts == (3, 3)
    assert dep2.control_arrows == ((StateRef(0, 1), StateRef(1, 2)),)
    assert dep2.order.happened_before((0, 1), (1, 2))


def test_snapshot_roundtrips_through_from_deposet():
    dep = random_deposet(n=3, events_per_proc=4, message_rate=0.5, seed=11)
    dep2 = TraceStore.from_deposet(dep).snapshot()
    assert dep2.state_counts == dep.state_counts
    assert set(dep2.messages) == set(dep.messages)
    for i in range(dep.n):
        for a in range(dep.state_counts[i]):
            assert dep2.state_vars((i, a)) == dep.state_vars((i, a))
        assert np.array_equal(
            dep2.order.clock_matrix(i), dep.order.clock_matrix(i)
        )


def test_iter_delivery_events_respects_arrow_sources():
    dep = random_deposet(n=3, events_per_proc=5, message_rate=0.6, seed=7)
    emitted = [0] * dep.n
    for proc, entered, msg, _ctls in iter_delivery_events(dep):
        assert entered == emitted[proc] + 1
        if msg is not None:
            # the sender's pre-send state completed in an earlier step
            assert msg.src.index <= emitted[msg.src.proc] - 1
        emitted[proc] = entered
    assert tuple(e + 1 for e in emitted) == dep.state_counts


def test_constructor_validation():
    with pytest.raises(MalformedTraceError, match="at least one process"):
        TraceStore(0)
    with pytest.raises(MalformedTraceError, match="start assignments"):
        TraceStore(2, start_vars=[{}])
    with pytest.raises(MalformedTraceError, match="names"):
        TraceStore(2, proc_names=["only-one"])
    with pytest.raises(MalformedTraceError, match="start times"):
        TraceStore(2, start_times=[0.0])


def test_repr_mentions_shape():
    store = make_store()
    store.append_control((0, 1), (1, 1))
    text = repr(store)
    assert "states=(3, 2)" in text and "control=1" in text
