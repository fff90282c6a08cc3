"""Error-type contracts and docstring examples."""

import doctest

import pytest

import repro
from repro.errors import (
    AssumptionViolationError,
    InterferenceError,
    MalformedTraceError,
    NoControllerExistsError,
    NotDisjunctiveError,
    OnlineControlError,
    PredicateError,
    ReplayDeadlockError,
    ReproError,
    SimulationError,
)


def test_hierarchy():
    for exc in (
        MalformedTraceError, PredicateError, NoControllerExistsError,
        InterferenceError, ReplayDeadlockError, SimulationError,
        OnlineControlError,
    ):
        assert issubclass(exc, ReproError)
    assert issubclass(NotDisjunctiveError, PredicateError)
    assert issubclass(AssumptionViolationError, OnlineControlError)


def test_no_controller_carries_witness():
    err = NoControllerExistsError(witness=("a", "b"))
    assert err.witness == ("a", "b")
    assert "No Controller Exists" in str(err)


def test_interference_carries_cycle():
    err = InterferenceError(cycle=[(0, 1)])
    assert err.cycle == [(0, 1)]


def test_replay_deadlock_carries_blocked():
    err = ReplayDeadlockError(blocked={0: "waiting"})
    assert err.blocked == {0: "waiting"}


def test_all_public_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.causality.relations",
        "repro.trace.builder",
    ],
)
def test_doctests(module_name):
    import importlib

    module = importlib.import_module(module_name)
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
