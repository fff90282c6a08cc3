"""The layered trace stack's storage and index layers.

* :class:`TraceStore` -- append-only storage for one distributed
  computation: per-process variable/timestamp columns plus message and
  control arrows that stay appendable after construction (storage layer).
  It is one class: the constructor builds the in-memory engine and
  :meth:`TraceStore.open` also returns the durable SQLite subclass
  (:class:`~repro.storage.sqlite.SqliteStore`).
* :class:`CausalIndex` -- an incrementally-maintained
  :class:`~repro.causality.relations.CausalOrder`: O(n) clock extension
  per appended event, downstream-cone recompute per inserted arrow
  (index layer).
* :func:`iter_delivery_events` -- linearise an existing deposet into the
  causal delivery order the streaming format and the store require.

The view layer on top is :class:`~repro.trace.deposet.Deposet`
(:meth:`TraceStore.snapshot`); see ``docs/ARCHITECTURE.md``.
"""

from repro.store.index import CausalIndex
from repro.store.trace_store import TraceStore, iter_delivery_events

__all__ = ["CausalIndex", "TraceStore", "iter_delivery_events"]
