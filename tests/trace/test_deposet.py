"""Unit tests for the Deposet model and its D1-D3 validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality import StateRef
from repro.errors import InterferenceError, MalformedTraceError
from repro.trace import ComputationBuilder, Deposet, EventKind, MessageArrow


def simple_deposet():
    b = ComputationBuilder(2, start_vars=[{"x": 0}, {"y": 0}])
    b.local(0, x=1)
    m = b.send(0)
    b.receive(1, m, y=1)
    b.local(1, y=2)
    b.local(0, x=2)
    return b.build()


def test_shape():
    dep = simple_deposet()
    assert dep.n == 2
    assert dep.state_counts == (4, 3)
    assert dep.num_states == 7
    assert dep.proc_names == ("P0", "P1")


def test_state_vars_persist_until_overwritten():
    dep = simple_deposet()
    assert dep.state_vars((0, 0)) == {"x": 0}
    assert dep.state_vars((0, 1)) == {"x": 1}
    assert dep.state_vars((0, 2)) == {"x": 1}
    assert dep.state_vars((1, 2)) == {"y": 2}


def test_event_kinds_derived():
    dep = simple_deposet()
    kinds0 = [e.kind for e in dep.events[0]]
    kinds1 = [e.kind for e in dep.events[1]]
    assert kinds0 == [EventKind.LOCAL, EventKind.SEND, EventKind.LOCAL]
    assert kinds1 == [EventKind.RECEIVE, EventKind.LOCAL]


def test_message_endpoints():
    dep = simple_deposet()
    (msg,) = dep.messages
    assert msg.src == StateRef(0, 1)
    assert msg.dst == StateRef(1, 1)


def test_causality_through_message():
    dep = simple_deposet()
    assert dep.order.happened_before((0, 1), (1, 1))
    assert dep.order.concurrent((0, 2), (1, 1))


def test_bottom_top():
    dep = simple_deposet()
    assert dep.bottom(0) == StateRef(0, 0)
    assert dep.top(0) == StateRef(0, 3)
    assert dep.is_bottom(StateRef(1, 0))
    assert dep.is_top(StateRef(1, 2))


def test_no_processes_rejected():
    with pytest.raises(MalformedTraceError):
        Deposet([])


def test_empty_process_rejected():
    with pytest.raises(MalformedTraceError):
        Deposet([[{}], []])


def test_d2_send_after_final_rejected():
    # src state is the final state of P0 -> no event after it exists
    with pytest.raises(MalformedTraceError):
        Deposet([[{}, {}], [{}, {}]], [MessageArrow((0, 1), (1, 1))])


def test_d1_receive_before_initial_rejected():
    with pytest.raises(MalformedTraceError):
        Deposet([[{}, {}], [{}, {}]], [MessageArrow((0, 0), (1, 0))])


def test_d3_event_both_send_and_receive_rejected():
    # event (1,0) receives msg A and sends msg B
    with pytest.raises(MalformedTraceError):
        Deposet(
            [[{}, {}, {}], [{}, {}, {}]],
            [MessageArrow((0, 0), (1, 1)), MessageArrow((1, 0), (0, 2))],
        )


def test_same_process_message_rejected():
    """A same-process message is T006, with lint's text, from the
    deposet constructor and from the store alike."""
    from repro.store import TraceStore

    with pytest.raises(MalformedTraceError) as dep_err:
        Deposet([[{}, {}, {}], [{}]], [MessageArrow((0, 0), (0, 1))])
    assert dep_err.value.rule == "T006"
    assert dep_err.value.location == "messages[0]"
    text = "message (0,0) -> (0,1) stays on process 0"
    assert str(dep_err.value) == f"messages[0]: {text}"

    store = TraceStore(2)
    store.append_state(0)
    with pytest.raises(MalformedTraceError) as store_err:
        store.append_state(0, received_from=(0, 0))
    assert store_err.value.rule == "T006"
    assert str(store_err.value) == "message (0,0) -> (0,2) stays on process 0"
    store.append_state(0)
    with pytest.raises(MalformedTraceError) as msg_err:
        store.append_message((0, 0), (0, 1))
    assert msg_err.value.rule == "T006"
    assert str(msg_err.value) == text


def test_cyclic_messages_rejected():
    with pytest.raises(MalformedTraceError):
        Deposet(
            [[{}, {}, {}], [{}, {}, {}]],
            [MessageArrow((0, 1), (1, 1)), MessageArrow((1, 1), (0, 1))],
        )


def test_with_control_extends_order():
    dep = simple_deposet()
    ctl = dep.with_control([((1, 1), (0, 3))])
    assert ctl.control_arrows == ((StateRef(1, 1), StateRef(0, 3)),)
    assert ctl.order.happened_before((1, 1), (0, 3))
    assert not ctl.base_order.happened_before((1, 1), (0, 3))
    # underlying computation unchanged
    assert ctl.without_control() == dep


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), controlled=st.booleans())
def test_without_control_is_derived_not_rebuilt(seed, controlled):
    """``without_control`` equals the constructor's underlying deposet and
    shares this deposet's base order, states and columns."""
    from repro.workloads import random_deposet

    dep = random_deposet(n=3, events_per_proc=6, message_rate=0.5, seed=seed)
    if controlled and dep.messages:
        m = dep.messages[0]
        dep = dep.with_control([(m.src, m.dst), ((0, 0), (0, 1))])
    under = dep.without_control()
    rebuilt = Deposet([dep.proc_states(i) for i in range(dep.n)],
                      dep.messages, (), dep.proc_names, dep.timestamps)
    assert under == rebuilt and not under.control_arrows
    assert under.order is dep.base_order and under.base_order is dep.base_order
    assert under.state_counts == rebuilt.state_counts
    assert under.proc_names == rebuilt.proc_names
    assert under.events == rebuilt.events
    for i in range(dep.n):
        assert under.proc_states(i) is dep.proc_states(i)
        assert [under.order.clock((i, a)).tolist()
                for a in range(dep.state_counts[i])] == \
            [rebuilt.order.clock((i, a)).tolist()
             for a in range(dep.state_counts[i])]


def test_with_control_interference_raises():
    dep = simple_deposet()
    # message already forces s[0,1] -> s[1,1]; reversing it interferes
    with pytest.raises(InterferenceError):
        dep.with_control([((1, 1), (0, 1))])


def test_equality_ignores_control_order():
    dep = simple_deposet()
    a = dep.with_control([((1, 0), (0, 3)), ((1, 1), (0, 3))])
    b = dep.with_control([((1, 1), (0, 3)), ((1, 0), (0, 3))])
    assert a == b


def test_describe_mentions_processes():
    text = simple_deposet().describe()
    assert "P0" in text and "P1" in text
