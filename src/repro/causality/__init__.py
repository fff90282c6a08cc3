"""Causality substrate: happened-before over local states.

The paper's model orders the *local states* of an asynchronous
message-passing computation by Lamport's happened-before relation
(transitive closure of "immediately precedes" within a process and
"remotely precedes" across a message).
:class:`~repro.causality.relations.CausalOrder` is the dense, NumPy-backed
state-clock table used for O(1) happened-before queries over a whole
trace, including traces extended with control arrows; its incremental
subclass is :class:`repro.store.CausalIndex`.
"""

from repro.causality.relations import CausalOrder, StateRef

__all__ = ["CausalOrder", "StateRef"]
