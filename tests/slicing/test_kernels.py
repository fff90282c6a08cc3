"""Property suite: the vectorised numpy kernels agree with pure Python.

The slicing engine's inner loops -- candidate elimination (least and
greatest sweeps) and truth-table construction -- are batched numpy
kernels.  This suite pins them against straight-line pure-Python
references on random deposets with and without control arrows:

* the batched least/greatest sweeps vs the original one-comparison-at-a-
  time deque walks (kept verbatim below as references);
* ``Expr.eval_block`` vs ``Expr.eval_state`` vs the constructor lambda,
  including missing keys, ``None`` values, and mixed-type columns (the
  columnar packing exactness contract).
"""

import random
from collections import deque

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.causality.relations import StateRef
from repro.detection.conjunctive import find_conjunctive_cut
from repro.errors import InterferenceError, MalformedTraceError
from repro.predicates import LocalPredicate
from repro.predicates.disjunctive import lower_one_proc
from repro.predicates.expr import (
    AllExpr,
    AnyExpr,
    ConstExpr,
    IndexAtLeast,
    IndexLess,
    NotExpr,
    VarEquals,
    VarTruthy,
)
from repro.slicing.regular import regular_form
from repro.slicing.slice import greatest_satisfying_cut
from repro.store.columns import pack_block, pack_values
from repro.workloads import availability_predicate, random_deposet

SMALL = dict(n=3, events_per_proc=4, message_rate=0.4, flip_rate=0.4)


def small_dep(seed, **overrides):
    return random_deposet(seed=seed, **{**SMALL, **overrides})


def bad(n=3):
    return availability_predicate(n, "up").negated()


def with_random_control(dep, seed):
    rng = random.Random(seed)
    order = dep.order
    arrows = []
    for _ in range(4):
        i, j = rng.sample(range(dep.n), 2)
        if dep.state_counts[i] < 2 or dep.state_counts[j] < 2:
            continue
        a = rng.randrange(dep.state_counts[i] - 1)
        b = rng.randrange(1, dep.state_counts[j])
        if order.concurrent((i, a), (j, b)):
            arrows.append((StateRef(i, a), StateRef(j, b)))
    if not arrows:
        return None
    try:
        return dep.with_control(arrows)
    except (InterferenceError, MalformedTraceError):
        return None


# -- pure-Python reference sweeps (the pre-vectorisation implementations) ---


def reference_least_cut(dep, conjunct_truth):
    n = dep.n
    order = dep.order
    positions = [np.flatnonzero(np.asarray(t, dtype=bool)) for t in conjunct_truth]
    if any(len(p) == 0 for p in positions):
        return None
    ptr = [0] * n

    def cand(i):
        return int(positions[i][ptr[i]])

    dirty = deque(range(n))
    in_dirty = [True] * n
    while dirty:
        i = dirty.popleft()
        in_dirty[i] = False
        advanced_any = False
        for j in range(n):
            if j == i:
                continue
            while True:
                ci, cj = cand(i), cand(j)
                if order.happened_before((i, ci), (j, cj)):
                    loser = i
                elif order.happened_before((j, cj), (i, ci)):
                    loser = j
                else:
                    break
                ptr[loser] += 1
                if ptr[loser] >= len(positions[loser]):
                    return None
                if not in_dirty[loser]:
                    dirty.append(loser)
                    in_dirty[loser] = True
                advanced_any = True
        if advanced_any and not in_dirty[i]:
            dirty.append(i)
            in_dirty[i] = True
    return tuple(cand(i) for i in range(n))


def reference_greatest_cut(dep, conjunct_truth):
    n = dep.n
    order = dep.order
    positions = [np.flatnonzero(np.asarray(t, dtype=bool)) for t in conjunct_truth]
    if any(len(p) == 0 for p in positions):
        return None
    ptr = [len(p) - 1 for p in positions]

    def cand(i):
        return int(positions[i][ptr[i]])

    dirty = deque(range(n))
    in_dirty = [True] * n
    while dirty:
        i = dirty.popleft()
        in_dirty[i] = False
        retreated_any = False
        for j in range(n):
            if j == i:
                continue
            while True:
                ci, cj = cand(i), cand(j)
                if order.happened_before((i, ci), (j, cj)):
                    loser = j
                elif order.happened_before((j, cj), (i, ci)):
                    loser = i
                else:
                    break
                ptr[loser] -= 1
                if ptr[loser] < 0:
                    return None
                if not in_dirty[loser]:
                    dirty.append(loser)
                    in_dirty[loser] = True
                retreated_any = True
        if retreated_any and not in_dirty[i]:
            dirty.append(i)
            in_dirty[i] = True
    return tuple(cand(i) for i in range(n))


def random_tables(dep, seed, true_prob=0.5):
    rng = np.random.default_rng(seed)
    return [rng.random(m) < true_prob for m in dep.state_counts]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_sweeps_agree_with_reference(seed):
    dep = small_dep(seed)
    tables = random_tables(dep, seed * 3 + 1)
    assert find_conjunctive_cut(dep, tables) == reference_least_cut(dep, tables)
    assert greatest_satisfying_cut(dep, tables) == reference_greatest_cut(
        dep, tables
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_sweeps_agree_under_control_arrows(seed):
    cdep = with_random_control(small_dep(seed), seed * 7 + 1)
    assume(cdep is not None)
    tables = random_tables(cdep, seed * 5 + 2)
    assert find_conjunctive_cut(cdep, tables) == reference_least_cut(cdep, tables)
    assert greatest_satisfying_cut(cdep, tables) == reference_greatest_cut(
        cdep, tables
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_sweeps_agree_on_sparse_tables(seed):
    # Near-empty tables exercise the None (exhausted-candidates) paths.
    dep = small_dep(seed)
    tables = random_tables(dep, seed * 11 + 3, true_prob=0.15)
    assert find_conjunctive_cut(dep, tables) == reference_least_cut(dep, tables)
    assert greatest_satisfying_cut(dep, tables) == reference_greatest_cut(
        dep, tables
    )


def test_sweeps_single_process():
    dep = random_deposet(n=1, events_per_proc=6, message_rate=0.0, seed=3)
    t = [np.array([False, True, False, True, False, False, True])]
    assert find_conjunctive_cut(dep, t) == reference_least_cut(dep, t) == (1,)
    assert greatest_satisfying_cut(dep, t) == reference_greatest_cut(dep, t) == (6,)


# -- truth tables: vectorised IR vs the lambda path -------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_vectorised_tables_match_lambda_evaluation(seed):
    dep = small_dep(seed)
    form = regular_form(bad())
    assert form is not None
    assert all(local.expr is not None for local in form.conjuncts.values())
    tables = form.truth_tables(dep)
    for i, local in form.conjuncts.items():
        expected = [local.holds_at(dep, a) for a in range(dep.state_counts[i])]
        assert tables[i].tolist() == expected


# -- expression IR: eval_block == eval_state == lambda -----------------------

VALUE_POOL = [
    None,
    True,
    False,
    0,
    1,
    -3,
    2**60,
    0.0,
    1.5,
    "up",
    "down",
    "",
]


@st.composite
def var_rows(draw):
    m = draw(st.integers(min_value=1, max_value=12))
    rows = []
    for _ in range(m):
        row = {}
        for name in ("x", "y"):
            if draw(st.booleans()):
                row[name] = draw(st.sampled_from(VALUE_POOL))
        rows.append(row)
    return rows


@st.composite
def exprs(draw, depth=0):
    leaves = [
        VarTruthy("x"),
        VarTruthy("y"),
        VarEquals("x", draw(st.sampled_from(VALUE_POOL))),
        VarEquals("y", draw(st.sampled_from(VALUE_POOL))),
        IndexAtLeast(draw(st.integers(min_value=0, max_value=12))),
        IndexLess(draw(st.integers(min_value=0, max_value=12))),
        ConstExpr(draw(st.booleans())),
    ]
    if depth >= 2:
        return draw(st.sampled_from(leaves))
    choice = draw(st.integers(min_value=0, max_value=3))
    if choice == 0:
        return draw(st.sampled_from(leaves))
    if choice == 1:
        return NotExpr(draw(exprs(depth=depth + 1)))
    ops = tuple(
        draw(exprs(depth=depth + 1))
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    return AllExpr(ops) if choice == 2 else AnyExpr(ops)


@settings(max_examples=120, deadline=None)
@given(rows=var_rows(), expr=exprs())
def test_eval_block_matches_eval_state(rows, expr):
    block = pack_block(rows, sorted(expr.var_names()) or ["x"])
    m = len(rows)
    full = expr.eval_block(block, 0, m)
    assert full.dtype == np.bool_ and full.shape == (m,)
    assert full.tolist() == [expr.eval_state(r, a) for a, r in enumerate(rows)]
    # a sub-interval keeps absolute state identity (index expressions!)
    lo, hi = m // 3, max(m // 3, 2 * m // 3)
    assert expr.eval_block(block, lo, hi).tolist() == full[lo:hi].tolist()


@settings(max_examples=80, deadline=None)
@given(rows=var_rows())
def test_pack_values_preserves_truthiness_and_equality(rows):
    raw = [r.get("x") for r in rows]
    col = pack_values(raw)
    assert [bool(v) for v in col] == [bool(v) for v in raw]
    for probe in VALUE_POOL:
        assert [bool(v == probe) for v in col] == [
            bool(v == probe) for v in raw
        ], f"equality vs {probe!r} diverged"


def test_pack_values_mixed_large_int_stays_exact():
    raw = [2**53 + 1, 0.5]  # float64 cannot hold 2**53 + 1
    col = pack_values(raw)
    assert col.dtype == object
    assert bool(col[0] == 2**53 + 1) and not bool(col[0] == float(2**53))


def test_constructor_lambdas_match_their_ir():
    rows = [{"x": v} if v is not None else {} for v in VALUE_POOL]
    dep_like = rows  # eval_state only needs the mapping + index
    preds = [
        LocalPredicate.var_true(0, "x"),
        LocalPredicate.var_false(0, "x"),
        LocalPredicate.var_equals(0, "x", 1),
        LocalPredicate.var_equals(0, "x", "up"),
        LocalPredicate.at_or_after(0, 3),
        LocalPredicate.before(0, 3),
    ]
    for p in preds:
        assert p.expr is not None
        for a, r in enumerate(dep_like):
            from repro.predicates.base import StateInfo

            assert p.expr.eval_state(r, a) == bool(p.fn(StateInfo(0, a, r)))


def test_lower_one_proc_bails_on_opaque_leaves():
    opaque = LocalPredicate.from_vars(0, lambda v: True)
    assert opaque.expr is None
    assert lower_one_proc(opaque) is None
    from repro.predicates.boolean import And, Not

    assert lower_one_proc(And(Not(opaque), LocalPredicate.var_true(0, "x"))) is None
