"""``lint_deposet`` lints a deposet straight from the deposet.

The replay gate and ``repro lint --store`` hold a validated
:class:`~repro.trace.deposet.Deposet`; linting it must report exactly
what ``repro lint`` reports for the same trace written to a file -- the
same findings in the same order, with the same locations, ``passes`` and
``skipped`` -- without the document round trip.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.raw import parse_batch
from repro.analysis.runner import lint_deposet, run_rules
from repro.cli import parse_predicate
from repro.core.offline import control_disjunctive
from repro.errors import NoControllerExistsError, ReproError
from repro.trace.deposet import Deposet
from repro.trace.io import FORMAT, deposet_to_dict
from repro.workloads import random_deposet


def file_lint(dep, predicate, source):
    raw, parse_findings = parse_batch(deposet_to_dict(dep), source=source)
    return run_rules(raw, predicate=predicate, parse_findings=parse_findings,
                     source=source, fmt=FORMAT)


def as_dicts(report):
    return ([f.to_dict() for f in report.findings], report.passes,
            report.skipped, report.source, report.format)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), timed=st.booleans(),
       controlled=st.booleans(), redundant=st.booleans(),
       with_predicate=st.booleans())
def test_lint_deposet_equals_file_lint(seed, timed, controlled, redundant,
                                       with_predicate):
    rng = np.random.default_rng(seed)
    dep = random_deposet(n=int(rng.integers(2, 5)),
                         events_per_proc=int(rng.integers(3, 10)),
                         message_rate=0.5, seed=seed)
    if timed:
        ts = [[float(rng.integers(0, 10)) for _ in range(m)]
              for m in dep.state_counts]
        dep = Deposet([dep.proc_states(i) for i in range(dep.n)],
                      dep.messages, timestamps=ts)
    pred = parse_predicate("at-least-one:up", dep.n)
    if controlled:
        try:
            dep = control_disjunctive(dep, pred).control.apply(dep)
        except NoControllerExistsError:
            pass
    if redundant and dep.messages:
        m = dep.messages[-1]
        try:
            dep = dep.with_control([(m.src, m.dst)])
        except ReproError:
            pass
    predicate = pred if with_predicate else None
    assert as_dicts(lint_deposet(dep, predicate, source="d")) == \
        as_dicts(file_lint(dep, predicate, "d"))
