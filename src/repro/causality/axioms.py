"""The model axioms, judged in one place.

Messages must satisfy the paper's D1 (no receive before a start state),
D2 (no send after a final state) and D3 (an event carries at most one
message); a control arrow must satisfy D1 and D2 and not point backwards
along its process.  Every reader decides this here: the strict loaders,
:class:`~repro.causality.relations.CausalOrder` and its incremental
index, the ``Deposet`` constructor, the ``TraceStore`` appends and
``repro lint``.  A judge returns *problems* ``(rule, text, states)`` --
the lint rule ID, the lint message and the witness states: lint wraps
each into a finding, a strict reader raises :func:`axiom_error` of the
first.  A clean arrow costs a few bound comparisons and builds no text.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import MalformedTraceError

__all__ = [
    "MESSAGE", "CONTROL", "Problem", "arrow_problems", "arrow_str",
    "axiom_error", "claim_events", "d3_problem", "d3_problems",
    "trace_problems",
]

Ref = Tuple[int, int]
#: ``(rule, text, witness states)``
Problem = Tuple[str, str, Tuple[Ref, ...]]

#: the two arrow kinds, as lint names them in its messages
MESSAGE = "message"
CONTROL = "control arrow"


def axiom_error(
    problem: Problem, location: Optional[str] = None,
    arrows: Tuple[Tuple[Ref, Ref], ...] = (),
) -> MalformedTraceError:
    """The strict readers' error for ``problem``: its rule and text,
    prefixed with ``location`` when one is known, and lint's witness --
    the problem's states and the judged ``arrows``."""
    rule, text, states = problem
    return MalformedTraceError(
        text if location is None else f"{location}: {text}",
        rule=rule, location=location, states=states, arrows=arrows,
    )


def arrow_str(a: Any) -> str:
    """``(p,i) -> (q,j)``, plus `` [tag]`` when the arrow has one."""
    tag = f" [{a.tag}]" if a.tag else ""
    return f"({a.src[0]},{a.src[1]}) -> ({a.dst[0]},{a.dst[1]}){tag}"


def arrow_problems(
    what: str,
    src: Ref,
    dst: Ref,
    counts: Sequence[int],
    streamed: bool = False,
) -> Sequence[Problem]:
    """The problems of the arrow ``src -> dst`` of kind ``what``
    (:data:`MESSAGE` or :data:`CONTROL`) against ``counts[i]`` states per
    process, in lint's order: T005 (a missing endpoint), then T006, T002
    and T003 for a message, C103 for a control arrow.  Empty when the
    arrow is well formed.

    ``streamed`` judges a stream record as it arrives (``counts`` include
    the state it enters): an arrow between processes whose source has
    not completed or whose target has not been streamed is only a T009,
    since its endpoints may still appear.
    """
    (sp, si), (dp, di) = src, dst
    n = len(counts)
    if (0 <= sp < n and 0 <= dp < n and 0 <= si <= counts[sp] - 2
            and 0 < di < counts[dp]
            and (sp != dp if what == MESSAGE else (sp != dp or si < di))):
        return ()
    arrow = f"({sp},{si}) -> ({dp},{di})"
    if (streamed and sp != dp and 0 <= sp < n and 0 <= dp < n
            and si >= 0 and di >= 0):
        late = []
        if si > counts[sp] - 2:
            late.append(f"source event at ({sp},{si}) has not completed")
        if di > counts[dp] - 1:
            late.append(f"target state ({dp},{di}) has not been streamed")
        if late:
            return [("T009", f"{what} {arrow}: " + "; ".join(late)
                     + " (causal delivery order)", ((sp, si), (dp, di)))]
    out: List[Problem] = []
    for (p, x), role in ((src, "src"), (dst, "dst")):
        if not 0 <= p < n:
            out.append(("T005", f"{what} {role} ({p},{x}): no process {p} "
                                f"(trace has {n})", ()))
        elif not 0 <= x < counts[p]:
            out.append(("T005", f"{what} {role} ({p},{x}): process {p} has "
                                f"no state {x} (it has {counts[p]})",
                        ((p, min(max(x, 0), counts[p] - 1)),)))
    if out:
        return out
    if what == MESSAGE:
        if sp == dp:
            way = "points backwards on" if si >= di else "stays on"
            return [("T006", f"message {arrow} {way} process {sp}",
                     ((sp, si), (dp, di)))]
        if di < 1:
            out.append(("T002", f"message {arrow}: target is the initial "
                                f"state of process {dp}, which is entered "
                                f"before any receive can happen (D1)",
                        ((dp, di),)))
        if si > counts[sp] - 2:
            out.append(("T003", f"message {arrow}: source is the final state "
                                f"of process {sp}, which never completes (D2)",
                        ((sp, si),)))
        return out
    why = []
    if si > counts[sp] - 2:
        why.append(f"source ({sp},{si}) is the final state of process {sp} "
                   f"and never completes")
    if di < 1:
        why.append(f"target ({dp},{di}) is the initial state of process "
                   f"{dp} and is entered unconditionally")
    if not why:  # only a backwards same-process arrow is left
        why.append(f"same-process arrow {arrow} points backwards and can "
                   f"never be satisfied")
    return [("C103", "control arrow is unenforceable: " + "; ".join(why),
             ((sp, si), (dp, di)))]


def d3_problem(ev: Ref, prev: Any, a: Any) -> Problem:
    """T004: event ``ev`` carries both message ``prev`` (claimed first)
    and message ``a``.  Messages are anything with ``src``, ``dst`` and
    ``tag``; a message's role at ``ev`` follows from its endpoints."""
    prev_role = "send" if (prev.src[0], prev.src[1]) == ev else "receive"
    role = "send" if (a.src[0], a.src[1]) == ev else "receive"
    dup = ("duplicate delivery" if role == prev_role == "receive"
           else "event carries two messages")
    return ("T004", f"event ({ev[0]},{ev[1]}) is the {prev_role} of "
                    f"{arrow_str(prev)} and the {role} of {arrow_str(a)} "
                    f"({dup}; D3)", ((ev[0], ev[1]),))


def _events(a: Any) -> Tuple[Ref, ...]:
    """A message's send and receive events (event ``e`` leaves state
    ``e``).  A same-process message has none: T006 condemns it, and its
    send and receive would fake a D3 clash."""
    if a.src[0] == a.dst[0]:
        return ()
    return (a.src[0], a.src[1]), (a.dst[0], a.dst[1] - 1)


def d3_problems(used: Dict[Ref, Any], a: Any) -> List[Tuple[Problem, Any]]:
    """``(T004, earlier message)`` for each event of message ``a`` that
    ``used`` says an earlier message carries."""
    return [(d3_problem(ev, used[ev], a), used[ev])
            for ev in _events(a) if ev in used]


def claim_events(used: Dict[Ref, Any], a: Any) -> None:
    """Record in ``used`` that message ``a`` carries its events; an event
    claimed first stays with the earlier message."""
    for ev in _events(a):
        used.setdefault(ev, a)


def trace_problems(
    counts: Sequence[int],
    messages: Sequence[Any],
    control: Sequence[Tuple[Ref, Ref]],
) -> Iterator[Tuple[str, int, Problem, Any]]:
    """Every T002--T006 problem of a whole trace, in lint's order: each
    message's, each control arrow's T005 (``control`` holds ``(src,
    dst)`` pairs), then D3 over the messages whose endpoints exist.
    Yields ``(list, k, problem, prev)``: the document list
    (``"messages"`` or ``"control"``), the arrow's index in it, and for a
    T004 the message that claimed the event first.  C103 is judged
    after the messages are known sound, as lint's control pass does.
    """
    claimable = []
    for k, m in enumerate(messages):
        problems = arrow_problems(MESSAGE, m.src, m.dst, counts)
        for problem in problems:
            yield "messages", k, problem, None
        if not problems or problems[0][0] != "T005":
            claimable.append(k)
    for k, (src, dst) in enumerate(control):
        for problem in arrow_problems(CONTROL, src, dst, counts):
            if problem[0] == "T005":
                yield "control", k, problem, None
    used: Dict[Ref, Any] = {}
    for k in claimable:
        for problem, prev in d3_problems(used, messages[k]):
            yield "messages", k, problem, prev
        claim_events(used, messages[k])
