"""Recording the active-debugging loop onto trace-store branches.

The paper's loop -- detect a violating cut, synthesize a control
relation, re-execute under control -- produces a *family* of related
computations.  With a commit-chain store each candidate lives as a
branch: ``main`` holds the observed computation, and every candidate
control relation forks one branch carrying its arrows plus the replay
verdict in the commit metadata, so ``repro db log BRANCH`` shows
``parent commit -> branch -> verdict`` and dead candidates fold away
under ``repro db gc`` once their branch pointer is deleted.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.errors import StorageCorruptError, StorageError
from repro.store.trace_store import TraceStore, parse_store_target

__all__ = ["ensure_base_trace", "record_control_branch"]


def ensure_base_trace(target: str, dep: "Deposet") -> "TraceStore":
    """Open ``target``'s ``main`` branch holding ``dep``'s base computation.

    An uninitialised store is populated (``dep`` stripped of any control
    relation, materialised through the incremental append path and
    committed); an existing one is reopened and checked against ``dep`` --
    recording a candidate onto an unrelated trace's chain would silently
    lie, so a mismatch raises :class:`~repro.errors.StorageError`.
    """
    scheme, _path = parse_store_target(target)
    if scheme != "sqlite":
        raise StorageError(
            f"branch recording needs a durable store, got {target!r}"
        )
    base = dep.without_control()
    try:
        store = TraceStore.open(target)
    except StorageCorruptError:
        raise
    except StorageError:  # uninitialised: no header shape recorded yet
        store = TraceStore.from_deposet(base, target)
        store.commit(kind="append", message="base computation ingested")
        return store
    if store.snapshot().without_control() != base:
        store.close()
        raise StorageError(
            f"{target}: branch 'main' holds a different computation than "
            f"the trace being recorded; use a fresh database"
        )
    return store


def record_control_branch(
    target: str,
    dep: "Deposet",
    control,
    *,
    name: Optional[str] = None,
    kind: str = "replay",
    meta: Optional[Dict[str, Any]] = None,
) -> Tuple[str, int]:
    """Record one candidate control relation as a branch of ``target``.

    Forks ``main`` (populating it from ``dep`` first if the store is
    fresh), inserts ``control``'s arrows on the fork as one batch (one
    propagation), and commits them as one ``kind`` commit carrying
    ``meta`` (the replay verdict).  Returns ``(branch name, verdict commit
    id)``.  Branch names default to ``candidate-K``, first free ``K``.

    The chain is replayed at most once (to reopen ``main``); the fork
    copies that store's memory and shares its clocks.  On an existing
    ``main`` the whole record is one SQLite transaction: the candidate
    commit writes the branch row (``forked_from`` ``main``) with the
    arrows and the verdict.  So recording is all or nothing: a rejected
    relation (a bad endpoint, or arrows that interfere with the
    computation) writes nothing, and a commit that fails or crashes
    rolls back with its branch row.
    """
    store = ensure_base_trace(target, dep)
    try:
        if name is None:
            taken = {row[0] for row in
                     store._conn.execute("SELECT name FROM branches")}
            k = 1
            while f"candidate-{k}" in taken:
                k += 1
            name = f"candidate-{k}"
        fork = store._fork(name)
    finally:
        store.close()
    try:
        arrows = list(control)
        fork.append_controls(arrows)
        full_meta = {"arrows": len(arrows)}
        full_meta.update(meta or {})
        cid = fork.commit(kind=kind, message=f"candidate {name}",
                          meta=full_meta)
    finally:
        fork.close()
    return name, cid
