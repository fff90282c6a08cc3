"""Durable session state: per-session write-ahead logs and checkpoints.

``repro serve`` (PR 6) kept every tenant's :class:`TraceStore` +
:class:`IncrementalDetector` purely in memory, so a worker crash or a
server restart silently lost all in-flight sessions -- exactly the
failure an *online* detector must tolerate.  This module gives each
session a crash-safe on-disk shape:

``<root>/<tenant>/<session>/``
    ``wal.<gen>.log``
        Append-only write-ahead log of accepted ``repro-events/1``
        records.  Each line is ``"%08x %s" % (crc32(payload), payload)``
        where payload is a compact JSON object -- kind ``hdr`` (the
        stream header), ``rec`` (one forwarded chunk: ``lines[i]`` has
        durable seq ``seq + i``; older one-line ``"line"`` frames are
        still read), or ``end`` (clean end-of-stream).  Each frame is one
        ``write()``, in the kernel before its ``_durable`` ack.  A torn
        tail (a partially-written last line after a crash) fails its CRC
        and is ignored on recovery, then truncated away when the segment
        is re-opened for append -- so the restarted server's next append
        starts on a fresh line instead of merging with the partial one.
        Anything *before* a corrupt line survives.
    ``ckpt.json``
        The latest checkpoint: ``TraceStore.freeze()`` +
        ``IncrementalDetector.snapshot()`` + the session's public
        verdict-event log, written to a temp file and published with
        ``os.replace`` (atomic on POSIX) followed by a directory fsync.
        A crash mid-checkpoint leaves the previous checkpoint intact.

After a checkpoint commits, the WAL rolls to a new generation
(``gen + 1``) and older segments whose records all sit at or below the
checkpoint watermark are unlinked -- segments holding newer records (the
WAL runs ahead of checkpoints because the server logs before it feeds)
survive until a later watermark passes them.  Recovery cost is bounded
by the checkpoint interval plus the worker's apply lag, not the stream
length.  Recovery =
checkpoint (if any) + replay of WAL records with ``seq`` greater than
the checkpoint's watermark, across all surviving generations in order.

Fsync policy (:class:`FsyncPolicy`) trades durability for throughput:
``always`` fsyncs every frame (one per forwarded chunk), ``batch`` on
checkpoint, end and park (the default -- an OS crash may lose the
unsynced tail; a *process* crash loses nothing, every frame being in
the kernel), ``never`` leaves it to the OS (benchmarks only).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.metrics import METRICS

__all__ = [
    "FsyncPolicy",
    "WalCorruptError",
    "SessionWal",
    "Checkpoint",
    "SessionDurability",
    "DurabilityManager",
    "RecoveredSession",
]

_WAL_APPENDS = METRICS.counter("serve.wal.appends")
_WAL_FSYNCS = METRICS.counter("serve.wal.fsyncs")
_WAL_TORN = METRICS.counter("serve.wal.torn_tails")
_CKPTS = METRICS.counter("serve.ckpt.written")
_CKPT_BYTES = METRICS.counter("serve.ckpt.bytes")
_RECOVERED = METRICS.counter("serve.recovered_sessions")
_CORRUPT = METRICS.counter("serve.wal.corrupt_sessions")


class WalCorruptError(ReproError):
    """A WAL line failed its CRC *before* the tail.

    A bad final line is expected after a crash (torn write) and is
    silently dropped; a bad line with valid lines after it means the
    file was damaged at rest and recovery refuses to guess.
    """


class FsyncPolicy:
    """When appends hit the platter.  See module docstring."""

    ALWAYS = "always"
    BATCH = "batch"
    NEVER = "never"

    CHOICES = (ALWAYS, BATCH, NEVER)

    @classmethod
    def validate(cls, value: str) -> str:
        if value not in cls.CHOICES:
            raise ValueError(
                "fsync policy must be one of %s, got %r"
                % ("/".join(cls.CHOICES), value)
            )
        return value


def _frame(payload: Dict[str, Any]) -> str:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "%08x %s" % (zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, body)


def _unframe(line: str) -> Optional[Dict[str, Any]]:
    """The payload, or ``None`` if the line fails CRC / doesn't parse."""
    if len(line) < 10 or line[8] != " ":
        return None
    try:
        want = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:]
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != want:
        return None
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def _rec_pairs(payload: Dict[str, Any]) -> List[Tuple[int, str]]:
    """A ``rec`` frame's ``(seq, line)`` pairs (old frames hold one line)."""
    lines = payload["lines"] if "lines" in payload else [payload.get("line", "")]
    return list(enumerate(lines, int(payload.get("seq", 0))))


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class SessionWal:
    """One session's write-ahead log, segmented by checkpoint generation.

    Appends go to ``wal.<gen>.log``; :meth:`roll` (called after a
    checkpoint commits) opens ``gen + 1`` and unlinks older segments
    once the checkpoint watermark covers their highest record seq.
    Not thread-safe -- the serving loop owns it.
    """

    def __init__(self, directory: str, *, fsync: str = FsyncPolicy.BATCH,
                 gen: int = 0):
        self.directory = directory
        self.fsync = FsyncPolicy.validate(fsync)
        self.gen = gen
        #: highest record seq written to the *current* segment
        self.max_seq = 0
        self._ended = False
        #: gen -> max record seq, for older segments still on disk
        self._retained: Dict[int, int] = {}
        os.makedirs(directory, exist_ok=True)
        self._scan_existing(gen)
        self._fh = open(self._segment_path(gen), "ab")

    def _scan_existing(self, current_gen: int) -> None:
        """After a recovery re-open, repair each surviving segment's torn
        tail and learn its max seq so later rolls know when it becomes
        garbage."""
        for path in SessionWal.segments(self.directory):
            name = os.path.basename(path)
            try:
                g = int(name[4:-4])
            except ValueError:
                continue
            top = self._repair_segment(path)
            if g == current_gen:
                self.max_seq = top
            else:
                self._retained[g] = top

    def _repair_segment(self, path: str) -> int:
        """Truncate ``path``'s torn tail so the next append starts on a
        fresh line, and return the max record seq among its valid lines.

        A crash mid-append leaves a partial final line; appending onto it
        after a re-open would merge the two into a CRC-failing line
        *mid-file*, which a later recovery must refuse
        (:class:`WalCorruptError`) -- so the partial line is chopped here,
        before the segment is opened for append.  A final line that is
        CRC-valid but lost its newline is already durable, so it keeps
        its bytes and gets the newline back.  A CRC failure anywhere
        *else* is damage at rest and is left untouched for
        :meth:`replay` to refuse loudly."""
        top = 0
        with open(path, "r+b") as fh:
            data = fh.read()
            chunks: List[Tuple[int, Optional[Dict[str, Any]], bool]] = []
            pos = 0
            while pos < len(data):
                nl = data.find(b"\n", pos)
                end = len(data) if nl < 0 else nl
                if end > pos:
                    payload = _unframe(
                        data[pos:end].decode("utf-8", "replace"))
                    chunks.append((pos, payload, nl >= 0))
                pos = end if nl < 0 else end + 1
            for _, payload, _ in chunks:
                if payload is None:
                    continue
                if payload.get("t") == "rec":
                    top = max([top] + [q for q, _ in _rec_pairs(payload)])
                elif payload.get("t") == "end":
                    self._ended = True
            if chunks:
                start, payload, complete = chunks[-1]
                intact_prefix = all(p is not None for _, p, _ in chunks[:-1])
                repaired = False
                if payload is None and intact_prefix:
                    _WAL_TORN.inc()
                    fh.truncate(start)
                    repaired = True
                elif payload is not None and not complete:
                    fh.write(b"\n")  # position is at EOF after the read
                    repaired = True
                if repaired:
                    fh.flush()
                    if self.fsync != FsyncPolicy.NEVER:
                        os.fsync(fh.fileno())
        return top

    def _segment_path(self, gen: int) -> str:
        return os.path.join(self.directory, "wal.%06d.log" % gen)

    # -- writing -------------------------------------------------------------

    def append(self, payload: Dict[str, Any]) -> None:
        # one write() per frame: the kernel holds it before any ack
        self._fh.write((_frame(payload) + "\n").encode("utf-8"))
        self._fh.flush()
        _WAL_APPENDS.inc()
        if self.fsync == FsyncPolicy.ALWAYS:
            os.fsync(self._fh.fileno())
            _WAL_FSYNCS.inc()

    def append_header(self, header: Dict[str, Any],
                      opts: Optional[Dict[str, Any]] = None) -> None:
        self.append({"t": "hdr", "header": header, "opts": opts or {}})

    def append_record(self, first_seq: int, lines: List[str]) -> None:
        """One frame for a forwarded chunk; ``lines[i]`` is seq ``first_seq + i``."""
        if isinstance(lines, str):
            raise TypeError("lines must be a list of stream lines, not str")
        self.append({"t": "rec", "seq": first_seq, "lines": lines})
        self.max_seq = max(self.max_seq, first_seq + len(lines) - 1)

    def append_end(self) -> None:
        self.append({"t": "end"})
        self._ended = True
        self.flush()

    def flush(self) -> None:
        self._fh.flush()
        if self.fsync != FsyncPolicy.NEVER:
            os.fsync(self._fh.fileno())
            _WAL_FSYNCS.inc()

    def roll(self, watermark: int) -> None:
        """Start generation ``gen + 1``; drop every older segment whose
        records all sit at or below the checkpoint ``watermark``.

        The WAL runs *ahead* of checkpoints (the server logs before it
        feeds, and workers apply asynchronously), so the segment being
        closed may hold records the checkpoint does not cover yet --
        those segments are retained until a later checkpoint's watermark
        passes their top seq.
        """
        self.flush()
        self._fh.close()
        self._retained[self.gen] = self.max_seq
        self.gen += 1
        self.max_seq = 0
        self._fh = open(self._segment_path(self.gen), "ab")
        if self._ended:
            # keep the clean-end marker visible in the live generation even
            # after the segment that first recorded it is truncated away
            self.append({"t": "end"})
        self.flush()  # segment exists on disk before old ones vanish
        for g, top in list(self._retained.items()):
            if top <= watermark:
                del self._retained[g]
                try:
                    os.unlink(self._segment_path(g))
                except FileNotFoundError:
                    pass
        if self.fsync != FsyncPolicy.NEVER:
            _fsync_dir(self.directory)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    # -- reading -------------------------------------------------------------

    @staticmethod
    def segments(directory: str) -> List[str]:
        """Surviving segment paths, oldest generation first."""
        try:
            names = sorted(
                n for n in os.listdir(directory)
                if n.startswith("wal.") and n.endswith(".log")
            )
        except FileNotFoundError:
            return []
        return [os.path.join(directory, n) for n in names]

    @staticmethod
    def replay(directory: str) -> Iterator[Dict[str, Any]]:
        """Yield surviving payloads across all segments, oldest first.

        A CRC-failing *last* line of the *last* segment is a torn tail
        and is dropped; a failure anywhere else raises
        :class:`WalCorruptError`.
        """
        paths = SessionWal.segments(directory)
        for p_idx, path in enumerate(paths):
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            for l_idx, line in enumerate(lines):
                if not line:
                    continue
                payload = _unframe(line)
                if payload is None:
                    is_tail = (p_idx == len(paths) - 1
                               and l_idx == len(lines) - 1)
                    if is_tail:
                        _WAL_TORN.inc()
                        return
                    raise WalCorruptError(
                        "corrupt WAL line %d in %s (not the tail)"
                        % (l_idx + 1, path)
                    )
                yield payload


@dataclass
class Checkpoint:
    """A committed point-in-time image of one session.

    ``seq`` is the durable watermark in *lines*: every accepted stream
    line numbered ``<= seq`` is reflected in ``snapshot`` (a
    :meth:`DetectionSession.snapshot` payload -- frozen store, detector
    elimination state, and the session's public event log); recovery
    replays only WAL lines above it.
    """

    tenant: str
    session: str
    seq: int
    gen: int
    header: Dict[str, Any]
    snapshot: Dict[str, Any]
    opts: Dict[str, Any] = field(default_factory=dict)

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The public event log captured at the watermark."""
        return list(self.snapshot.get("events", ()))

    def to_json(self) -> Dict[str, Any]:
        return {
            "v": 1,
            "tenant": self.tenant,
            "session": self.session,
            "seq": self.seq,
            "gen": self.gen,
            "header": self.header,
            "snapshot": self.snapshot,
            "opts": self.opts,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Checkpoint":
        if data.get("v") != 1:
            raise WalCorruptError("unknown checkpoint version %r" % data.get("v"))
        return cls(
            tenant=data["tenant"], session=data["session"],
            seq=int(data["seq"]), gen=int(data.get("gen", 0)),
            header=data["header"], snapshot=data["snapshot"],
            opts=dict(data.get("opts", {})),
        )


class SessionDurability:
    """The WAL + checkpoint pair for one live session."""

    CKPT_NAME = "ckpt.json"

    def __init__(self, root: str, tenant: str, session: str, *,
                 fsync: str = FsyncPolicy.BATCH, gen: int = 0):
        self.tenant = tenant
        self.session = session
        self.directory = session_dir(root, tenant, session)
        self.wal = SessionWal(self.directory, fsync=fsync, gen=gen)

    def log_header(self, header: Dict[str, Any],
                   opts: Optional[Dict[str, Any]] = None) -> None:
        self.wal.append_header(header, opts)

    def log_record(self, first_seq: int, lines: List[str]) -> None:
        self.wal.append_record(first_seq, lines)

    def log_end(self) -> None:
        self.wal.append_end()

    def flush(self) -> None:
        """Force buffered appends down per the fsync policy."""
        self.wal.flush()

    def commit_checkpoint(self, ckpt: Checkpoint) -> None:
        """Atomically publish ``ckpt`` and truncate the WAL behind it."""
        ckpt.gen = self.wal.gen + 1  # records after this live in the new gen
        path = os.path.join(self.directory, self.CKPT_NAME)
        tmp = path + ".tmp"
        body = json.dumps(ckpt.to_json(), separators=(",", ":"))
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(body)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        if self.wal.fsync != FsyncPolicy.NEVER:
            _fsync_dir(self.directory)
        _CKPTS.inc()
        _CKPT_BYTES.inc(len(body))
        self.wal.roll(ckpt.seq)

    def destroy(self) -> None:
        """Remove all on-disk state (session closed cleanly)."""
        self.wal.close()
        try:
            for name in os.listdir(self.directory):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except FileNotFoundError:
                    pass
            os.rmdir(self.directory)
            # tenant dir is shared; leave it (rmdir would race siblings)
        except FileNotFoundError:
            pass

    def close(self) -> None:
        self.wal.close()


@dataclass
class RecoveredSession:
    """What :meth:`DurabilityManager.recover_all` found for one session.

    ``checkpoint`` is ``None`` when the session crashed before its first
    checkpoint; ``records`` is the replayable WAL tail -- ``(seq, rec)``
    pairs strictly above the checkpoint watermark, in order;
    ``header`` is always present (from the checkpoint or the WAL);
    ``ended`` means a clean ``end`` marker survived, so the stream needs
    finalizing, not more input.
    """

    tenant: str
    session: str
    header: Dict[str, Any]
    checkpoint: Optional[Checkpoint]
    #: replayable WAL tail: ``(seq, raw line)`` above the ckpt watermark
    records: List[Tuple[int, str]]
    ended: bool
    gen: int
    opts: Dict[str, Any] = field(default_factory=dict)

    @property
    def seq(self) -> int:
        """Highest durable seq recovered (watermark for client resume)."""
        if self.records:
            return self.records[-1][0]
        return self.checkpoint.seq if self.checkpoint else 0


def session_dir(root: str, tenant: str, session: str) -> str:
    safe = lambda s: "".join(
        c if (c.isalnum() or c in "-_.") else "_" for c in s
    )
    return os.path.join(root, safe(tenant), safe(session))


class DurabilityManager:
    """Factory + recovery scanner for a server's durability root."""

    def __init__(self, root: str, *, fsync: str = FsyncPolicy.BATCH):
        self.root = root
        self.fsync = FsyncPolicy.validate(fsync)
        os.makedirs(root, exist_ok=True)

    def open_session(self, tenant: str, session: str, *,
                     gen: int = 0) -> SessionDurability:
        return SessionDurability(
            self.root, tenant, session, fsync=self.fsync, gen=gen
        )

    # -- recovery ------------------------------------------------------------

    def recover_session(self, directory: str) -> Optional[RecoveredSession]:
        ckpt: Optional[Checkpoint] = None
        ckpt_path = os.path.join(directory, SessionDurability.CKPT_NAME)
        try:
            with open(ckpt_path, "r", encoding="utf-8") as fh:
                ckpt = Checkpoint.from_json(json.load(fh))
        except FileNotFoundError:
            pass
        except (ValueError, KeyError):
            # Unreadable checkpoint: the tmp/replace protocol makes this
            # unreachable for crashes; treat damage-at-rest as absent and
            # fall back to full WAL replay if gen 0 survives.
            ckpt = None

        header = ckpt.header if ckpt else None
        opts = dict(ckpt.opts) if ckpt else {}
        watermark = ckpt.seq if ckpt else 0
        records: List[Tuple[int, str]] = []
        ended = False
        gen = ckpt.gen if ckpt else 0
        for payload in SessionWal.replay(directory):
            kind = payload.get("t")
            if kind == "hdr":
                if header is None:
                    header = payload.get("header")
                if not opts:
                    opts = dict(payload.get("opts") or {})
            elif kind == "rec":
                records += [r for r in _rec_pairs(payload) if r[0] > watermark]
            elif kind == "end":
                ended = True
        if header is None:
            return None  # nothing usable survived
        for path in SessionWal.segments(directory):
            name = os.path.basename(path)
            try:
                gen = max(gen, int(name[4:-4]))
            except ValueError:
                pass
        tenant = ckpt.tenant if ckpt else None
        session = ckpt.session if ckpt else None
        if tenant is None or session is None:
            # fall back to directory names (sanitised but stable)
            session = os.path.basename(directory)
            tenant = os.path.basename(os.path.dirname(directory))
        _RECOVERED.inc()
        return RecoveredSession(
            tenant=tenant, session=session, header=header,
            checkpoint=ckpt, records=records, ended=ended, gen=gen,
            opts=opts,
        )

    def recover_all(self) -> List[RecoveredSession]:
        """Scan the root for crashed sessions, oldest-path order.

        One session's WAL being damaged at rest must not keep every
        *other* session (or the server itself) from coming back: the
        damaged session is skipped, its files left in place for
        forensics, and a later durable hello for its key discards them.
        """
        out: List[RecoveredSession] = []
        try:
            tenants = sorted(os.listdir(self.root))
        except FileNotFoundError:
            return out
        for t in tenants:
            tdir = os.path.join(self.root, t)
            if not os.path.isdir(tdir):
                continue
            for s in sorted(os.listdir(tdir)):
                sdir = os.path.join(tdir, s)
                if not os.path.isdir(sdir):
                    continue
                try:
                    rec = self.recover_session(sdir)
                except WalCorruptError:
                    _CORRUPT.inc()
                    continue
                if rec is not None:
                    out.append(rec)
        return out

    def discard(self, tenant: str, session: str) -> None:
        """Drop any on-disk state for a (recovered) session."""
        sdir = session_dir(self.root, tenant, session)
        try:
            for name in os.listdir(sdir):
                try:
                    os.unlink(os.path.join(sdir, name))
                except FileNotFoundError:
                    pass
            os.rmdir(sdir)
        except FileNotFoundError:
            pass
