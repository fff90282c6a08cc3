"""Events and message arrows of the deposet model.

The paper's model places an *event* between every pair of consecutive local
states of a process; an event is exactly one of: a local event, a message
send, or a message receive (constraint D3).  We index the event that takes
process ``i`` from state ``a`` to state ``a+1`` by ``(i, a)``.

A message is represented by the paper's *remotely precedes* arrow between
states: ``src ~> dst`` where

* the send is the event *after* state ``src``  (i.e. event ``(src.proc, src.index)``), and
* the receive is the event *before* state ``dst`` (i.e. event ``(dst.proc, dst.index - 1)``).

Constraints D1 ("no receive before the initial state") and D2 ("no send
after the final state") then read: ``dst.index >= 1`` (structural) and
``src.index <= m_src - 2``.  A ``MessageArrow`` is only a value: whether
it is well formed in a computation (D1--D3, two distinct processes) is
judged by :mod:`repro.causality.axioms` when a deposet or store takes it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.causality.relations import StateRef

__all__ = ["EventKind", "Event", "MessageArrow"]


class EventKind(enum.Enum):
    """The three event kinds of the model (constraint D3: exactly one)."""

    LOCAL = "local"
    SEND = "send"
    RECEIVE = "receive"


@dataclass(frozen=True)
class Event:
    """The event taking process ``proc`` from state ``index`` to ``index+1``.

    ``message`` is the index (into ``Deposet.messages``) of the message this
    event sends or receives; ``None`` for local events.
    """

    proc: int
    index: int
    kind: EventKind
    message: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.kind is EventKind.LOCAL) != (self.message is None):
            raise ValueError(
                f"event {self.proc}:{self.index} of kind {self.kind.value} "
                f"has message={self.message!r}"
            )


@dataclass(frozen=True)
class MessageArrow:
    """A message as a *remotely precedes* arrow between local states.

    Attributes
    ----------
    src:
        The last state of the sender before the send event.
    dst:
        The first state of the receiver after the receive event.
    payload:
        Optional application payload (kept for debugging/replay fidelity;
        never interpreted by the algorithms).
    tag:
        Optional small label distinguishing message families (e.g. the
        on-line controller's ``"req"``/``"ack"`` control messages).
    """

    src: StateRef
    dst: StateRef
    payload: Any = field(default=None, compare=False)
    tag: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "src", StateRef(*self.src))
        object.__setattr__(self, "dst", StateRef(*self.dst))

    def __repr__(self) -> str:
        extra = f" tag={self.tag}" if self.tag else ""
        return f"Msg({self.src!r}~>{self.dst!r}{extra})"
