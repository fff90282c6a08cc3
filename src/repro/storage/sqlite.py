"""Durable trace storage: an immutable commit chain in SQLite.

Modeled on production commit-chain stores (ROADMAP item 2): a trace is
not one mutable blob but an append-only chain of **commits**, each the
CRC-checked batch of operations (events, late messages, control arrows,
the obs block) applied since its parent, plus the **pages** of variable
state it completed.  Branches are named pointers into the chain; a fork
is one row (copy-on-write -- every commit and page is immutable, so a
branch shares its ancestry's storage byte-for-byte and diverges only in
the rows its own commits add).  This is what makes each controlled
re-execution of the active-debugging loop a first-class *branch* of the
original computation: original trace -> branch per candidate control
relation -> replay verdict recorded on the branch commit.

Schema (``repro-store-sqlite/1``)::

    meta     key/value: format, n, proc_names, start_times, page_size
    commits  id, parent, kind, message, counts, messages, control,
             epoch, ops(BLOB), crc, meta
    branches name -> head commit id (+ the branch it forked from)
    pages    (commit_id, proc, page) -> upto, body(BLOB), crc

Memory discipline
-----------------
The live :class:`~repro.store.index.CausalIndex` (int32 clocks), arrow
lists and timestamps stay in memory -- they are O(states * n) small ints,
the cheap part of a trace.  The *variable assignments* -- the heavy part
-- live in fixed-size pages (``page_size`` states per process per page)
written at commit time and read back through a bounded LRU cache, so a
trace much larger than the cache streams through detection instead of
residing in RAM; ``state_vars`` on a cold page costs one SELECT + CRC
check + JSON decode, and packed :class:`ColumnBlock` views are rebuilt
page-by-page on demand.  ``snapshot()`` (the batch-engine entry point)
deliberately materialises the prefix -- that is the documented boundary
between the streaming and batch worlds.

Values round-trip through JSON: payloads/tags/variables must be
JSON-representable (anything fed from a ``repro-events/1`` stream is);
non-representable values are replaced by a ``repr`` placeholder exactly
like the stream writer does.

Crash safety
------------
Every commit -- ops row, page rows, branch-head bump -- is one SQLite
transaction.  Creating a store is one transaction too: the schema (its
DDL skipped when the tables exist), the format and shape rows and the
``init`` commit land together, so a crash or error mid-create leaves an
uninitialised store, never one with a shape but no chain.  A crash
mid-commit rolls back to the previous commit on reopen; appends since
the last commit are lost by design (the WAL layer of ``repro serve
--durable`` covers finer granularity).  CRC failures on reopen raise
:class:`~repro.errors.StorageCorruptError` naming the damaged
commit/page instead of guessing, as do ops that replay to no valid
computation.

Cost
----
Each chain verb is one SQLite transaction and at most one index
propagation: a reopen decodes the chain's ops and builds the causal
index in one batch; :meth:`SqliteStore.branch` copies the open store's
memory (no replay) and writes one branch row.
"""

from __future__ import annotations

import json
import os
import sqlite3
import zlib
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.causality.relations import StateRef
from repro.errors import (
    MalformedTraceError,
    StorageCorruptError,
    StorageError,
    UnknownBranchError,
)
from repro.obs.metrics import METRICS
from repro.store.columns import ColumnBlock, pack_block
from repro.store.index import CausalIndex
from repro.store.trace_store import TraceStore
from repro.trace.states import MessageArrow

__all__ = [
    "SqliteStore",
    "STORE_FORMAT",
    "DEFAULT_PAGE_SIZE",
    "init_db",
    "chain_log",
    "list_branches",
    "create_branch",
    "delete_branch",
    "gc_store",
]

STORE_FORMAT = "repro-store-sqlite/1"
DEFAULT_PAGE_SIZE = 256
DEFAULT_CACHE_PAGES = 128

_COMMITS = METRICS.counter("store.sqlite.commits")
_PAGES_WRITTEN = METRICS.counter("store.sqlite.pages_written")
_PAGE_HITS = METRICS.counter("store.sqlite.page_hits")
_PAGE_MISSES = METRICS.counter("store.sqlite.page_misses")
_PAGE_EVICTIONS = METRICS.counter("store.sqlite.page_evictions")
_REOPENS = METRICS.counter("store.sqlite.reopens")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS commits (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    parent INTEGER,
    kind TEXT NOT NULL,
    message TEXT,
    counts TEXT NOT NULL,
    messages INTEGER NOT NULL,
    control INTEGER NOT NULL,
    epoch INTEGER NOT NULL,
    ops BLOB NOT NULL,
    crc INTEGER NOT NULL,
    meta TEXT
);
CREATE TABLE IF NOT EXISTS branches (
    name TEXT PRIMARY KEY,
    head INTEGER NOT NULL,
    forked_from TEXT
);
CREATE TABLE IF NOT EXISTS pages (
    commit_id INTEGER NOT NULL,
    proc INTEGER NOT NULL,
    page INTEGER NOT NULL,
    upto INTEGER NOT NULL,
    body BLOB NOT NULL,
    crc INTEGER NOT NULL,
    PRIMARY KEY (commit_id, proc, page)
);
"""
_TABLES = frozenset(("meta", "commits", "branches", "pages"))


def _jsonable(value: Any) -> Any:
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return {"__repr__": repr(value)}


def _page_body(entries: List[Dict[str, Any]]) -> bytes:
    """A page's stored bytes: one ``json.dumps`` of its variable dicts.

    Only a page holding a value JSON cannot encode pays the per-value
    :func:`_jsonable` pass, which writes the same bytes for every value
    that does encode.
    """
    try:
        body = json.dumps(entries, separators=(",", ":"))
    except (TypeError, ValueError):
        body = json.dumps(
            [{k: _jsonable(v) for k, v in d.items()} for d in entries],
            separators=(",", ":"),
        )
    return body.encode("utf-8")


def _crc(body: bytes) -> int:
    return zlib.crc32(body) & 0xFFFFFFFF


def _connect(path: str) -> sqlite3.Connection:
    conn = sqlite3.connect(path, timeout=30.0, check_same_thread=False)
    conn.row_factory = sqlite3.Row
    return conn


def _tables(conn: sqlite3.Connection, path: str) -> set:
    """Names of the tables ``conn``'s database already has."""
    try:
        return {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
    except sqlite3.DatabaseError as exc:
        raise StorageCorruptError(
            f"{path}: not a repro trace store ({exc})"
        ) from exc


def _init_schema(conn: sqlite3.Connection, tables: set) -> None:
    """Open a transaction holding the schema and the format row.

    The DDL is skipped when every table already exists.  The explicit
    ``BEGIN`` keeps the DDL in the transaction (``sqlite3`` would run it
    in autocommit otherwise); the caller's ``with conn`` ends it.
    """
    conn.execute("BEGIN")
    if not _TABLES <= tables:
        for ddl in _SCHEMA.split(";"):
            if ddl.strip():
                conn.execute(ddl.strip())
    conn.execute(
        "INSERT OR IGNORE INTO meta (key, value) VALUES ('format', ?)",
        (STORE_FORMAT,),
    )


def _read_meta(conn: sqlite3.Connection) -> Dict[str, str]:
    try:
        rows = conn.execute("SELECT key, value FROM meta").fetchall()
    except sqlite3.DatabaseError as exc:
        raise StorageCorruptError(f"not a repro trace store: {exc}") from exc
    return {row["key"]: row["value"] for row in rows}


def init_db(path: str) -> None:
    """Create an empty (schema + format, no header) store at ``path``.

    The first ingest against it supplies the header shape; ``db init``
    exists so deploy tooling can pre-create and permission the file.
    """
    conn = _connect(path)
    try:
        tables = _tables(conn, path)
        with conn:
            _init_schema(conn, tables)
    finally:
        conn.close()


def _check_format(meta: Dict[str, str], path: str) -> None:
    fmt = meta.get("format")
    if fmt != STORE_FORMAT:
        raise StorageError(
            f"{path}: unknown store format {fmt!r}; expected {STORE_FORMAT!r}"
        )


def _chain_rows(conn: sqlite3.Connection, head: int,
                path: str) -> List[sqlite3.Row]:
    """Commit rows from the root to ``head`` (inclusive), in apply order."""
    rows: List[sqlite3.Row] = []
    cid: Optional[int] = head
    seen = set()
    while cid is not None:
        if cid in seen:
            raise StorageCorruptError(f"{path}: commit chain cycles at #{cid}")
        seen.add(cid)
        row = conn.execute(
            "SELECT * FROM commits WHERE id = ?", (cid,)
        ).fetchone()
        if row is None:
            raise StorageCorruptError(
                f"{path}: commit chain is broken (missing commit #{cid})"
            )
        rows.append(row)
        cid = row["parent"]
    rows.reverse()
    return rows


def _decode_ops(row: sqlite3.Row, path: str) -> List[List[Any]]:
    body = row["ops"]
    if isinstance(body, str):
        body = body.encode("utf-8")
    if _crc(body) != row["crc"]:
        raise StorageCorruptError(
            f"{path}: commit #{row['id']} failed its CRC check"
        )
    return json.loads(body.decode("utf-8"))


class SqliteStore(TraceStore):
    """A :class:`TraceStore` kept as a commit chain in SQLite.

    Open one with ``TraceStore.open("sqlite:PATH", ...)``; the
    constructor is the common tail of the create/reopen/fork paths.  The
    model rules are :class:`TraceStore`'s; this class overrides where
    variables live (pages plus an uncommitted tail), journals every append
    into the next commit's ops, and implements the chain verbs.
    """

    kind = "sqlite"

    def __init__(
        self,
        conn: sqlite3.Connection,
        path: str,
        n: int,
        start_vars: Optional[Sequence[Dict[str, Any]]],
        proc_names: Optional[Sequence[str]],
        start_times: Optional[Sequence[float] | float],
        branch: str,
        page_size: int,
        cache_pages: int,
    ) -> None:
        super().__init__(n, start_vars, proc_names, start_times)
        self._conn: Optional[sqlite3.Connection] = conn
        self.path = path
        self.branch_name = branch
        self.page_size = int(page_size)
        self._cache_pages = int(cache_pages)
        #: states already retrievable from pages, per process; ``_vars``
        #: holds the states appended since the last commit
        self._persisted = [0] * n
        #: operations since the last commit (the next commit's ops body)
        self._pending: List[List[Any]] = []
        #: (proc, page) -> (pages.rowid, upto) for the open branch
        self._page_map: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: LRU of decoded pages: (proc, page) -> list of var dicts
        self._page_cache: "OrderedDict[Tuple[int, int], List[Dict[str, Any]]]" = (
            OrderedDict()
        )
        #: packed-column LRU (small: blocks are built per names+prefix)
        self._block_cache: "OrderedDict[Tuple[int, Tuple[str, ...], int], ColumnBlock]" = (
            OrderedDict()
        )
        self._recording = False

    # -- opening --------------------------------------------------------------

    @classmethod
    def open_path(
        cls,
        path: str,
        *,
        n: Optional[int] = None,
        start_vars: Optional[Sequence[Dict[str, Any]]] = None,
        proc_names: Optional[Sequence[str]] = None,
        start_times: Optional[Sequence[float] | float] = None,
        branch: str = "main",
        at_commit: Optional[int] = None,
        reset_head: bool = False,
        create: bool = True,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = DEFAULT_CACHE_PAGES,
    ) -> "SqliteStore":
        """Open ``path`` at ``branch`` (``TraceStore.open`` calls this).

        A fresh/uninitialised database needs the header shape (``n`` at
        least) and gets an ``init`` commit holding the start states.  On
        an existing one, a shaped open is a create too: it is refused
        when the process count differs or the branch already holds more
        than its start states.  ``at_commit`` opens the branch's chain at
        an older commit (``reset_head=True`` additionally moves the branch
        pointer there -- the durable-restore path after a crash).
        """
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        if not exists and not create:
            raise StorageError(f"{path}: no such trace store")
        conn = _connect(path)
        try:
            tables = _tables(conn, path)
            meta = _read_meta(conn) if "meta" in tables else {}
            if meta:
                _check_format(meta, path)
            if "n" not in meta:
                if n is None:
                    raise StorageError(
                        f"{path}: store is uninitialised; opening it needs "
                        f"the header shape (process count)"
                    )
                return cls._create(
                    conn, path, tables, n, start_vars, proc_names,
                    start_times, branch, page_size, cache_pages,
                )
            if n is not None and int(meta["n"]) != n:
                raise StorageError(
                    f"{path}: store has n={meta['n']} processes, "
                    f"asked to open with n={n}"
                )
            store = cls._reopen(
                conn, path, meta, branch, at_commit, reset_head, cache_pages,
            )
            if n is not None and store.num_states != store.n:
                raise StorageError(
                    f"{path} already holds a trace body; ingest into a "
                    f"fresh database or fork a branch"
                )
            return store
        except BaseException:
            conn.close()
            raise

    @classmethod
    def _create(cls, conn, path, tables, n, start_vars, proc_names,
                start_times, branch, page_size, cache_pages) -> "SqliteStore":
        if branch != "main":
            raise StorageError(
                "a fresh store starts on branch 'main'; fork from there"
            )
        self = cls(conn, path, n, start_vars, proc_names, start_times,
                   branch, page_size, cache_pages)
        self._recording = True
        # One transaction: schema, format and shape rows, init commit (the
        # commit's own ``with conn`` commits it; an error rolls all back).
        with conn:
            _init_schema(conn, tables)
            for key, value in (
                ("n", str(n)),
                ("proc_names", json.dumps(list(self.proc_names))),
                ("start_times", json.dumps(
                    [col[0] for col in self._times]
                    if self._times is not None else None)),
                ("page_size", str(self.page_size)),
            ):
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    (key, value),
                )
            self.commit(kind="init", message="trace created")
        return self

    @classmethod
    def _reopen(cls, conn, path, meta, branch, at_commit, reset_head,
                cache_pages) -> "SqliteStore":
        n = int(meta["n"])
        row = conn.execute(
            "SELECT head FROM branches WHERE name = ?", (branch,)
        ).fetchone()
        if row is None:
            known = [r["name"] for r in
                     conn.execute("SELECT name FROM branches").fetchall()]
            raise UnknownBranchError(
                f"{path}: no branch {branch!r} (have: {', '.join(sorted(known)) or 'none'})"
            )
        head = int(row["head"])
        if at_commit is not None:
            head = int(at_commit)
        self = cls(conn, path, n, None,
                   json.loads(meta.get("proc_names") or "null"),
                   json.loads(meta.get("start_times") or "null"),
                   branch, int(meta.get("page_size", DEFAULT_PAGE_SIZE)),
                   cache_pages)
        rows = _chain_rows(conn, head, path)
        self._load_chain(rows)
        tip = rows[-1]
        counts = tuple(json.loads(tip["counts"]))
        if self.state_counts != counts:
            raise StorageCorruptError(
                f"{path}: commit #{tip['id']} records counts {counts}, "
                f"replaying its chain produced {self.state_counts}"
            )
        self.head = head
        # every state is in pages: no uncommitted tail
        self._persisted = list(self.state_counts)
        self._vars = [[] for _ in range(n)]
        # Page map: later commits override earlier versions of a page.
        for crow in rows:
            for prow in conn.execute(
                "SELECT rowid, proc, page, upto FROM pages "
                "WHERE commit_id = ?", (crow["id"],)
            ):
                self._page_map[(prow["proc"], prow["page"])] = (
                    prow["rowid"], prow["upto"]
                )
        if reset_head and at_commit is not None:
            with conn:
                conn.execute(
                    "UPDATE branches SET head = ? WHERE name = ?",
                    (head, branch),
                )
        self._recording = True
        _REOPENS.inc()
        return self

    def _load_chain(self, rows: List[sqlite3.Row]) -> None:
        """Rebuild in-memory bookkeeping from the chain's op batches.

        Variable values are *not* materialised (they live in pages).  The
        ops give the state counts and every arrow in journal order; the
        causal index is then built over them with one batch propagation,
        whose clocks equal the ones the original appends produced.  Ops
        that do not form a computation raise
        :class:`~repro.errors.StorageCorruptError`.
        """
        counts = [1] * self.n
        arrows: List[Tuple[StateRef, StateRef]] = []
        for crow in rows:
            cid = crow["id"]
            for op in _decode_ops(crow, self.path):
                kind = op[0]
                try:
                    if kind == "ev" or kind == "recv":
                        proc, time = int(op[1]), op[2]
                        if not 0 <= proc < self.n:
                            raise ValueError(f"no process {proc}")
                        entered = StateRef(proc, counts[proc])
                        counts[proc] += 1
                        if self._times is not None:
                            self._times[proc].append(
                                float(time) if time is not None
                                else self._times[proc][-1]
                            )
                        if kind == "recv":
                            msg = MessageArrow(StateRef(*op[3]), entered,
                                               payload=op[4], tag=op[5])
                            self._add_message(msg)
                            arrows.append((msg.src, msg.dst))
                    elif kind == "msg":
                        msg = MessageArrow(StateRef(*op[1]), StateRef(*op[2]),
                                           payload=op[3], tag=op[4])
                        self._add_message(msg)
                        arrows.append((msg.src, msg.dst))
                        self.epoch += 1
                    elif kind == "ctl":
                        arrow = (StateRef(*op[1]), StateRef(*op[2]))
                        self._add_control(arrow)
                        arrows.append(arrow)
                        self.epoch += 1
                    elif kind == "obs":
                        self.obs = op[1]  # not recording yet: no re-journal
                    else:
                        raise StorageCorruptError(
                            f"{self.path}: commit #{cid} holds unknown op "
                            f"{kind!r}"
                        )
                except (IndexError, TypeError, ValueError) as exc:
                    raise StorageCorruptError(
                        f"{self.path}: commit #{cid} holds a malformed "
                        f"{kind!r} op ({exc})"
                    ) from exc
        # The live appends skipped an arrow already in the index (a
        # control arrow on a message's endpoints): so does the batch.
        try:
            self.index = CausalIndex(counts, dict.fromkeys(arrows))
        except MalformedTraceError as exc:
            raise StorageCorruptError(
                f"{self.path}: the chain up to commit #{rows[-1]['id']} is "
                f"not a valid computation ({exc})"
            ) from exc

    # -- journaling storage primitives ------------------------------------------

    def _push_state(self, proc, vars, time, src, payload, tag) -> None:
        self._vars[proc].append(vars)
        if src is None:
            self._pending.append(["ev", proc, time])
        else:
            self._pending.append([
                "recv", proc, time, [src.proc, src.index],
                _jsonable(payload), tag,
            ])

    def _push_arrow(self, arrow) -> None:
        if isinstance(arrow, MessageArrow):
            self._pending.append([
                "msg", [arrow.src.proc, arrow.src.index],
                [arrow.dst.proc, arrow.dst.index], _jsonable(arrow.payload),
                arrow.tag,
            ])
        else:
            a, b = arrow
            self._pending.append(["ctl", [a.proc, a.index], [b.proc, b.index]])

    # ``obs`` journals through the chain so reopen sees it.
    @property
    def obs(self) -> Any:
        return self.__dict__.get("obs")

    @obs.setter
    def obs(self, value: Any) -> None:
        self.__dict__["obs"] = value
        if getattr(self, "_recording", False):
            self._pending.append(["obs", _jsonable(value)])

    # -- reads ---------------------------------------------------------------

    def state_vars(self, ref: StateRef | Tuple[int, int]) -> Dict[str, Any]:
        proc, index = ref
        persisted = self._persisted[proc]
        if index >= persisted:
            return self._vars[proc][index - persisted]
        page = self._load_page(proc, index // self.page_size)
        return page[index % self.page_size]

    def latest_vars(self, proc: int) -> Dict[str, Any]:
        if self._vars[proc]:
            return self._vars[proc][-1]
        return self.state_vars((proc, self.state_counts[proc] - 1))

    def vars_prefix(self, proc: int) -> Tuple[Dict[str, Any], ...]:
        out: List[Dict[str, Any]] = []
        persisted = self._persisted[proc]
        for pg in range((persisted + self.page_size - 1) // self.page_size):
            out.extend(self._load_page(proc, pg))
        out.extend(self._vars[proc])
        return tuple(out)

    def column_block(self, proc: int, names: Sequence[str]) -> ColumnBlock:
        key = (proc, tuple(names), self.state_counts[proc])
        block = self._block_cache.get(key)
        if block is None:
            block = pack_block(self.vars_prefix(proc), key[1])
            self._block_cache[key] = block
            while len(self._block_cache) > 2 * self.n:
                self._block_cache.popitem(last=False)
        else:
            self._block_cache.move_to_end(key)
        return block

    # -- the page cache -------------------------------------------------------

    def _load_page(self, proc: int, pg: int) -> List[Dict[str, Any]]:
        key = (proc, pg)
        page = self._page_cache.get(key)
        if page is not None:
            self._page_cache.move_to_end(key)
            _PAGE_HITS.inc()
            return page
        _PAGE_MISSES.inc()
        entry = self._page_map.get(key)
        if entry is None:
            raise StorageCorruptError(
                f"{self.path}: no page for states "
                f"[{pg * self.page_size}, ...) of process {proc}"
            )
        rowid, upto = entry
        row = self._conn.execute(
            "SELECT body, crc FROM pages WHERE rowid = ?", (rowid,)
        ).fetchone()
        if row is None:
            raise StorageCorruptError(
                f"{self.path}: page row {rowid} vanished (gc raced an open "
                f"store?)"
            )
        body = row["body"]
        if isinstance(body, str):
            body = body.encode("utf-8")
        if _crc(body) != row["crc"]:
            raise StorageCorruptError(
                f"{self.path}: page ({proc}, {pg}) failed its CRC check"
            )
        page = json.loads(body.decode("utf-8"))
        self._cache_put(key, page)
        return page

    def _cache_put(self, key: Tuple[int, int], page: List[Dict[str, Any]]) -> None:
        self._page_cache[key] = page
        self._page_cache.move_to_end(key)
        while len(self._page_cache) > self._cache_pages:
            self._page_cache.popitem(last=False)
            _PAGE_EVICTIONS.inc()

    # -- the commit chain -----------------------------------------------------

    def _commit(self, kind: str, message: Optional[str],
                meta: Optional[Dict[str, Any]]) -> int:
        """One transaction: ops row + completed pages + branch head bump.

        Returns the new commit id, or the current head when there is
        nothing to commit.  Also journals commit-level ``meta`` (e.g. a
        replay verdict) for ``repro db log``.
        """
        if self._conn is None:
            raise StorageError(f"{self.path}: store is closed")
        dirty = any(self._vars[p] for p in range(self.n))
        if not self._pending and not dirty and self.head is not None \
                and meta is None:
            return self.head
        ops_body = json.dumps(
            self._pending, separators=(",", ":"),
            default=lambda v: {"__repr__": repr(v)},
        ).encode("utf-8")
        counts = self.state_counts
        P = self.page_size
        with self._conn:
            cur = self._conn.execute(
                "INSERT INTO commits (parent, kind, message, counts, "
                "messages, control, epoch, ops, crc, meta) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    self.head, kind, message,
                    json.dumps(list(counts)), len(self._messages),
                    len(self._control), self.epoch, ops_body, _crc(ops_body),
                    json.dumps(meta) if meta is not None else None,
                ),
            )
            cid = cur.lastrowid
            written: List[Tuple[Tuple[int, int], int, List[Dict[str, Any]]]] = []
            for proc in range(self.n):
                start, total = self._persisted[proc], counts[proc]
                if start >= total:
                    continue
                for pg in range(start // P, (total - 1) // P + 1):
                    lo, hi = pg * P, min((pg + 1) * P, total)
                    if hi <= start:
                        continue  # fully persisted in an earlier commit
                    entries: List[Dict[str, Any]] = (
                        list(self._load_page(proc, pg)) if lo < start else []
                    )
                    entries.extend(
                        self._vars[proc][max(lo, start) - start:hi - start]
                    )
                    body = _page_body(entries)
                    prow = self._conn.execute(
                        "INSERT INTO pages (commit_id, proc, page, upto, "
                        "body, crc) VALUES (?, ?, ?, ?, ?, ?)",
                        (cid, proc, pg, hi - lo, body, _crc(body)),
                    )
                    written.append(((proc, pg), prow.lastrowid, entries))
                    _PAGES_WRITTEN.inc()
            self._conn.execute(
                "INSERT OR REPLACE INTO branches (name, head, forked_from) "
                "VALUES (?, ?, COALESCE((SELECT forked_from FROM branches "
                "WHERE name = ?), NULL))",
                (self.branch_name, cid, self.branch_name),
            )
        for key, rowid, entries in written:
            self._page_map[key] = (rowid, len(entries))
            self._cache_put(key, entries)
        self._persisted = list(counts)
        self._vars = [[] for _ in range(self.n)]
        self._pending = []
        self.head = cid
        _COMMITS.inc()
        return cid

    def branch(self, name: str) -> "SqliteStore":
        """Fork the current state as branch ``name`` (one row, COW).

        Pending appends are committed first so the fork point is a real
        commit.  The fork is :meth:`TraceStore.branch`'s copy of this
        store's memory (no replay of the chain) with its own connection
        and page map, sharing the decoded pages already cached; it never
        touches the parent branch's rows again.
        """
        head = self.commit(kind="append", message=f"auto-commit before "
                                                  f"branch {name!r}")
        existing = self._conn.execute(
            "SELECT head FROM branches WHERE name = ?", (name,)
        ).fetchone()
        if existing is not None:
            raise StorageError(f"{self.path}: branch {name!r} already exists")
        fork = super().branch(name)
        fork.branch_name = name
        fork._persisted = list(self._persisted)
        fork._pending = []
        fork._page_map = dict(self._page_map)
        fork._page_cache = OrderedDict(self._page_cache)
        fork._block_cache = OrderedDict(self._block_cache)
        with self._conn:
            self._conn.execute(
                "INSERT INTO branches (name, head, forked_from) "
                "VALUES (?, ?, ?)", (name, head, self.branch_name),
            )
        fork._conn = _connect(self.path)
        return fork

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# -- chain inspection / maintenance (CLI plumbing) ----------------------------


def list_branches(path: str) -> List[Dict[str, Any]]:
    """Branch name/head/fork-parent rows of the store at ``path``."""
    conn = _connect(path)
    try:
        meta = _read_meta(conn)
        _check_format(meta, path)
        return [
            {"name": r["name"], "head": r["head"],
             "forked_from": r["forked_from"]}
            for r in conn.execute(
                "SELECT name, head, forked_from FROM branches ORDER BY name"
            )
        ]
    finally:
        conn.close()


def chain_log(path: str, branch: str = "main") -> List[Dict[str, Any]]:
    """The commit chain of ``branch``, root first, CRC-verified.

    Each entry carries id/parent/kind/message/counts/arrow totals/epoch,
    the op count, and any commit meta (e.g. a recorded replay verdict).
    """
    conn = _connect(path)
    try:
        meta = _read_meta(conn)
        _check_format(meta, path)
        row = conn.execute(
            "SELECT head FROM branches WHERE name = ?", (branch,)
        ).fetchone()
        if row is None:
            known = [r["name"] for r in
                     conn.execute("SELECT name FROM branches").fetchall()]
            raise UnknownBranchError(
                f"{path}: no branch {branch!r} "
                f"(have: {', '.join(sorted(known)) or 'none'})"
            )
        out = []
        for crow in _chain_rows(conn, int(row["head"]), path):
            ops = _decode_ops(crow, path)
            out.append({
                "id": crow["id"],
                "parent": crow["parent"],
                "kind": crow["kind"],
                "message": crow["message"],
                "counts": json.loads(crow["counts"]),
                "messages": crow["messages"],
                "control": crow["control"],
                "epoch": crow["epoch"],
                "ops": len(ops),
                "meta": json.loads(crow["meta"]) if crow["meta"] else None,
            })
        return out
    finally:
        conn.close()


def create_branch(path: str, name: str, *, from_branch: str = "main",
                  at_commit: Optional[int] = None) -> int:
    """Create branch ``name`` at ``from_branch``'s head (or ``at_commit``).

    Returns the fork-point commit id.
    """
    conn = _connect(path)
    try:
        meta = _read_meta(conn)
        _check_format(meta, path)
        row = conn.execute(
            "SELECT head FROM branches WHERE name = ?", (from_branch,)
        ).fetchone()
        if row is None:
            raise UnknownBranchError(f"{path}: no branch {from_branch!r}")
        head = int(at_commit if at_commit is not None else row["head"])
        if conn.execute("SELECT 1 FROM commits WHERE id = ?",
                        (head,)).fetchone() is None:
            raise StorageError(f"{path}: no commit #{head}")
        try:
            with conn:
                conn.execute(
                    "INSERT INTO branches (name, head, forked_from) "
                    "VALUES (?, ?, ?)", (name, head, from_branch),
                )
        except sqlite3.IntegrityError:
            raise StorageError(f"{path}: branch {name!r} already exists")
        return head
    finally:
        conn.close()


def delete_branch(path: str, name: str) -> None:
    """Drop the branch pointer (its unreachable commits die at ``gc``)."""
    if name == "main":
        raise StorageError("refusing to delete branch 'main'")
    conn = _connect(path)
    try:
        meta = _read_meta(conn)
        _check_format(meta, path)
        with conn:
            cur = conn.execute("DELETE FROM branches WHERE name = ?", (name,))
        if cur.rowcount == 0:
            raise UnknownBranchError(f"{path}: no branch {name!r}")
    finally:
        conn.close()


def gc_store(path: str) -> Dict[str, int]:
    """Compaction: drop commits/pages unreachable from any branch head.

    Deleted branches leave their private commits dangling; this folds
    them (and their pages) away and VACUUMs the file.  Returns counts of
    what was removed.
    """
    conn = _connect(path)
    try:
        meta = _read_meta(conn)
        _check_format(meta, path)
        keep: set = set()
        for row in conn.execute("SELECT head FROM branches"):
            cid: Optional[int] = int(row["head"])
            while cid is not None and cid not in keep:
                keep.add(cid)
                parent = conn.execute(
                    "SELECT parent FROM commits WHERE id = ?", (cid,)
                ).fetchone()
                if parent is None:
                    raise StorageCorruptError(
                        f"{path}: commit chain is broken (missing #{cid})"
                    )
                cid = parent["parent"]
        all_ids = [r["id"] for r in conn.execute("SELECT id FROM commits")]
        dead = [cid for cid in all_ids if cid not in keep]
        pages_dead = 0
        with conn:
            for cid in dead:
                cur = conn.execute(
                    "DELETE FROM pages WHERE commit_id = ?", (cid,)
                )
                pages_dead += cur.rowcount
                conn.execute("DELETE FROM commits WHERE id = ?", (cid,))
        conn.execute("VACUUM")
        return {"commits_removed": len(dead), "pages_removed": pages_dead,
                "commits_kept": len(keep)}
    finally:
        conn.close()
