"""The durable trace store and the chain tooling around it.

``store`` holds :class:`~repro.store.TraceStore`, the one store class
(in-memory by default) and the causal index; ``storage`` holds
:class:`~repro.storage.sqlite.SqliteStore`, the commit-chain subclass
``TraceStore.open("sqlite:PATH")`` returns, plus the chain maintenance
verbs and the active-debugging branch recorder.
"""

from repro.storage.branches import ensure_base_trace, record_control_branch
from repro.storage.sqlite import (
    DEFAULT_PAGE_SIZE,
    STORE_FORMAT,
    SqliteStore,
    chain_log,
    create_branch,
    delete_branch,
    gc_store,
    init_db,
    list_branches,
)
from repro.store.trace_store import parse_store_target, split_store_branch

__all__ = [
    "SqliteStore",
    "parse_store_target",
    "split_store_branch",
    "STORE_FORMAT",
    "DEFAULT_PAGE_SIZE",
    "init_db",
    "chain_log",
    "list_branches",
    "create_branch",
    "delete_branch",
    "gc_store",
    "ensure_base_trace",
    "record_control_branch",
]
