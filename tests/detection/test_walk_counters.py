"""Counter and tracing contracts of the detection walks.

Pins the semantics documented in ``repro.detection.lattice_walk``:

* ``detection.lattice_walks`` moves by exactly +1 per public call;
* ``detection.lattice_states`` counts **distinct** cuts evaluated per
  walk -- the memoisation fixes mean a cut reached from several parents,
  or probed twice (the goal cut), is evaluated and counted once;
* with tracing disabled, a walk performs no per-cut tracer work at all.
"""

from repro.detection import (
    definitely_exhaustive,
    possibly_exhaustive,
    violating_cuts,
)
from repro.obs import METRICS, TRACER
from repro.predicates import FALSE, And, LocalPredicate, Predicate
from repro.slicing import definitely_slice, possibly_slice
from repro.trace import ComputationBuilder


def grid_2x3():
    """Two independent processes, three states each: all 9 cuts consistent."""
    b = ComputationBuilder(2, start_vars=[{"x": 0}, {"x": 0}])
    b.local(0, x=1)
    b.local(0, x=2)
    b.local(1, x=1)
    b.local(1, x=2)
    return b.build()


def singleton():
    return ComputationBuilder(1, start_vars=[{"x": 0}]).build()


def at_state(i, k):
    return LocalPredicate(i, lambda s, k=k: s.vars["x"] == k, name=f"x{i}={k}")


def center_only():
    return And(at_state(0, 1), at_state(1, 1))


class Recording(Predicate):
    """Wrapper that records every cut it is evaluated at."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def evaluate(self, dep, cut):
        self.calls.append(tuple(cut))
        return self.inner.evaluate(dep, cut)

    def procs(self):
        return self.inner.procs()


def test_one_walk_per_public_call():
    dep = grid_2x3()
    with METRICS.scoped() as scope:
        possibly_exhaustive(dep, center_only())
        definitely_exhaustive(dep, center_only())
        violating_cuts(dep, center_only())
    assert scope.counter("detection.lattice_walks") == 3


def test_slice_walks_mirror_the_contract():
    dep = grid_2x3()
    with METRICS.scoped() as scope:
        possibly_slice(dep, center_only())
        definitely_slice(dep, center_only())
    assert scope.counter("detection.slice.walks") == 2


def test_definitely_evaluates_each_distinct_cut_once():
    # The avoiding search reaches cuts from several parents and probes the
    # goal cut up front; memoisation must collapse all of that to one
    # evaluation -- and one counted state -- per distinct cut.
    for pred in (center_only(), at_state(0, 1)):
        dep = grid_2x3()
        rec = Recording(pred)
        with METRICS.scoped() as scope:
            definitely_exhaustive(dep, rec)
        assert len(rec.calls) == len(set(rec.calls)), "cut evaluated twice"
        assert scope.counter("detection.lattice_states") == len(rec.calls)


def test_goal_cut_counted_once_on_trivial_trace():
    # start == goal: the sequence search probes the same cut as both
    # endpoints; it must be evaluated and counted once.
    dep = singleton()
    rec = Recording(FALSE)
    with METRICS.scoped() as scope:
        assert definitely_exhaustive(dep, rec) is False
    assert rec.calls == [(0,)]
    assert scope.counter("detection.lattice_states") == 1


def test_possibly_counts_only_visited_cuts():
    # possibly stops at the first satisfying cut; the documented
    # lexicographic enumeration of the free 3x3 grid reaches (1, 1)
    # fifth: (0,0) (0,1) (0,2) (1,0) (1,1).
    dep = grid_2x3()
    with METRICS.scoped() as scope:
        cut = possibly_exhaustive(dep, center_only())
    assert cut == (1, 1)
    assert scope.counter("detection.lattice_states") == 5


def test_disabled_tracing_does_no_per_cut_tracer_work(monkeypatch):
    dep = grid_2x3()
    assert not TRACER.enabled

    def boom(*a, **k):  # pragma: no cover - must never run
        raise AssertionError("tracer touched on the disabled path")

    monkeypatch.setattr(TRACER, "event", boom)
    possibly_exhaustive(dep, center_only())
    definitely_exhaustive(dep, center_only())
    possibly_slice(dep, center_only())
    definitely_slice(dep, center_only())


def test_enabled_tracing_emits_expand_events():
    dep = grid_2x3()
    with TRACER.recording():
        possibly_exhaustive(dep, center_only())
        events = [e for e in TRACER.drain() if e.name == "lattice.expand"]
    assert len(events) == 5  # matches the states counter


# -- detection.slice.states work accounting -----------------------------------
#
# One unit per *local* state whose conjunct was actually evaluated, plus one
# for a possibly witness.  Unconstrained processes charge nothing (their row
# is a single np.ones), and a constant-false short-circuit charges nothing
# (no tables are built).  definitely runs Figure 2, which materialises no
# global cut: its units are exactly the local states it evaluates.


def test_slice_states_counts_only_constrained_processes():
    # at_state(0, 1) constrains process 0 only: 3 table states, +1 witness.
    dep = grid_2x3()
    with METRICS.scoped() as scope:
        assert possibly_slice(dep, at_state(0, 1)) is not None
    assert scope.counter("detection.slice.states") == 3 + 1
    # both processes constrained: 6 table states, +1 witness.
    with METRICS.scoped() as scope:
        assert possibly_slice(dep, center_only()) is not None
    assert scope.counter("detection.slice.states") == 6 + 1


def test_slice_states_zero_on_constant_false_short_circuit():
    # A constant-false factor empties the slice before any table work.
    dep = grid_2x3()
    with METRICS.scoped() as scope:
        assert possibly_slice(dep, And(FALSE, at_state(0, 1))) is None
    assert scope.counter("detection.slice.states") == 0


def counting_at_state(i, k, calls):
    """``at_state`` that records every evaluation in ``calls``."""

    def fn(s):
        calls.append((i, s.index))
        return s.vars["x"] == k

    return LocalPredicate(i, fn, name=f"x{i}={k}")


def test_definitely_slice_states_count_figure2_local_states():
    dep = grid_2x3()
    calls = []
    one = counting_at_state(0, 1, calls)
    both = And(counting_at_state(0, 1, calls), counting_at_state(1, 1, calls))
    for pred, verdict in ((one, True), (both, False)):
        calls.clear()
        with METRICS.scoped() as scope:
            assert definitely_slice(dep, pred) is verdict
        assert len(calls) == len(set(calls)), "local state evaluated twice"
        assert scope.counter("detection.slice.states") == len(calls)
    with METRICS.scoped() as scope:
        assert definitely_slice(dep, And(FALSE, at_state(0, 1))) is False
    assert scope.counter("detection.slice.states") == 0
