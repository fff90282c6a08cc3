"""Unit tests for the per-session WAL + checkpoint layer.

The regression that matters most: the WAL runs *ahead* of checkpoints
(the server logs before it feeds, workers apply asynchronously), so a
checkpoint's roll must never unlink a segment still holding records
above the checkpoint watermark -- that was a data-loss bug caught by the
kill -9 chaos harness.
"""

import json
import os
import zlib

import pytest

from repro.serve.durability import (
    Checkpoint,
    DurabilityManager,
    FsyncPolicy,
    SessionDurability,
    SessionWal,
    WalCorruptError,
    session_dir,
)


def wal_dir(tmp_path):
    d = str(tmp_path / "wal")
    os.makedirs(d, exist_ok=True)
    return d


def payloads(directory):
    return list(SessionWal.replay(directory))


def make_ckpt(seq, events=()):
    return Checkpoint(
        tenant="t", session="s", seq=seq, gen=0,
        header={"proc_names": ["a"]},
        snapshot={"events": list(events), "seq": seq, "lines": seq},
        opts={"predicate": "p"},
    )


class TestWal:
    def test_header_records_end_roundtrip(self, tmp_path):
        d = wal_dir(tmp_path)
        wal = SessionWal(d)
        wal.append_header({"proc_names": ["a", "b"]}, {"predicate": "p"})
        wal.append_record(1, ['{"t":"ev"}', '{"t":"ev2"}'])
        wal.append_end()
        wal.close()
        got = payloads(d)
        assert [p["t"] for p in got] == ["hdr", "rec", "end"]
        assert got[0]["header"] == {"proc_names": ["a", "b"]}
        assert got[0]["opts"] == {"predicate": "p"}
        assert got[1] == {"t": "rec", "seq": 1,
                          "lines": ['{"t":"ev"}', '{"t":"ev2"}']}

    def test_torn_tail_is_dropped_silently(self, tmp_path):
        d = wal_dir(tmp_path)
        wal = SessionWal(d)
        wal.append_record(1, ["a"])
        wal.append_record(2, ["b"])
        wal.flush()
        wal.close()
        path = SessionWal.segments(d)[0]
        with open(path, "a") as fh:  # a crash mid-append
            fh.write("deadbeef {\"t\":\"rec\",\"seq\":3,")
        got = payloads(d)
        assert [p["seq"] for p in got] == [1, 2]

    def test_corruption_before_tail_raises(self, tmp_path):
        d = wal_dir(tmp_path)
        wal = SessionWal(d)
        wal.append_record(1, ["a"])
        wal.append_record(2, ["b"])
        wal.flush()
        wal.close()
        path = SessionWal.segments(d)[0]
        lines = open(path).read().splitlines()
        lines[0] = "0" * 8 + " " + lines[0][9:]  # break line 1's CRC
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(WalCorruptError):
            payloads(d)

    def test_crc_actually_guards_payload(self):
        from repro.serve.durability import _frame, _unframe

        line = _frame({"t": "rec", "seq": 7, "line": "x"})
        assert _unframe(line) == {"t": "rec", "seq": 7, "line": "x"}
        flipped = line[:-2] + ("y" if line[-2] != "y" else "z") + line[-1]
        assert _unframe(flipped) is None
        body = line[9:]
        assert zlib.crc32(body.encode()) & 0xFFFFFFFF == int(line[:8], 16)

    def test_roll_drops_fully_covered_segments(self, tmp_path):
        d = wal_dir(tmp_path)
        wal = SessionWal(d)
        for seq in range(1, 5):
            wal.append_record(seq, [f"l{seq}"])
        wal.roll(4)  # checkpoint covered everything logged so far
        assert len(SessionWal.segments(d)) == 1
        assert wal.gen == 1
        assert payloads(d) == []
        wal.close()

    def test_roll_retains_segments_above_watermark(self, tmp_path):
        """The data-loss regression: WAL at seq 10, checkpoint at 4."""
        d = wal_dir(tmp_path)
        wal = SessionWal(d)
        for seq in range(1, 11):
            wal.append_record(seq, [f"l{seq}"])
        wal.roll(4)
        # the old segment still holds records 5..10: it must survive
        assert len(SessionWal.segments(d)) == 2
        assert [p["seq"] for p in payloads(d)] == list(range(1, 11))
        for seq in range(11, 13):
            wal.append_record(seq, [f"l{seq}"])
        wal.roll(10)  # now the old segment is fully covered
        segs = SessionWal.segments(d)
        assert len(segs) == 2  # gen 1 (recs 11-12) + fresh gen 2
        assert [p["seq"] for p in payloads(d)] == [11, 12]
        wal.close()

    def test_end_marker_survives_roll(self, tmp_path):
        d = wal_dir(tmp_path)
        wal = SessionWal(d)
        wal.append_record(1, ["a"])
        wal.append_end()
        wal.roll(1)
        assert any(p["t"] == "end" for p in payloads(d))
        wal.close()

    def test_reopen_learns_retained_segment_seqs(self, tmp_path):
        """After a process restart the new WAL instance must still know
        when surviving old segments become garbage."""
        d = wal_dir(tmp_path)
        wal = SessionWal(d)
        for seq in range(1, 7):
            wal.append_record(seq, [f"l{seq}"])
        wal.roll(2)  # gen 0 retained (max seq 6 > 2)
        wal.close()
        wal2 = SessionWal(d, gen=1)
        wal2.append_record(7, ["l7"])
        wal2.roll(7)  # covers everything: both old segments must go
        assert len(SessionWal.segments(d)) == 1
        assert payloads(d) == []
        wal2.close()

    def test_reopen_truncates_torn_tail_before_appending(self, tmp_path):
        """The second-crash regression: re-opening a WAL whose last line
        was torn by a crash must not concatenate the next append onto
        the partial line -- the merged line would fail its CRC mid-file
        and turn the *next* recovery into a WalCorruptError (or silently
        drop the record the merge swallowed)."""
        d = wal_dir(tmp_path)
        wal = SessionWal(d)
        wal.append_record(1, ["a"])
        wal.append_record(2, ["b"])
        wal.flush()
        wal.close()
        path = SessionWal.segments(d)[0]
        with open(path, "a") as fh:  # kill -9 mid-append of record 3
            fh.write("deadbeef {\"t\":\"rec\",\"seq\":3,")
        wal2 = SessionWal(d)  # the restarted server re-opens gen 0
        assert wal2.max_seq == 2  # the torn record was never durable
        wal2.append_record(3, ["c"])
        wal2.flush()
        wal2.close()
        got = payloads(d)  # the second recovery: no corruption, no loss
        assert [(p["seq"], p["lines"]) for p in got] == [
            (1, ["a"]), (2, ["b"]), (3, ["c"])]

    def test_reopen_completes_missing_final_newline(self, tmp_path):
        """A crash can land a whole final line but not its newline; the
        record is durable (its CRC passes) so the re-open must keep it
        and still start the next append on a fresh line."""
        d = wal_dir(tmp_path)
        wal = SessionWal(d)
        wal.append_record(1, ["a"])
        wal.flush()
        wal.close()
        path = SessionWal.segments(d)[0]
        raw = open(path).read()
        assert raw.endswith("\n")
        open(path, "w").write(raw[:-1])
        wal2 = SessionWal(d)
        assert wal2.max_seq == 1
        wal2.append_record(2, ["b"])
        wal2.flush()
        wal2.close()
        assert [p["seq"] for p in payloads(d)] == [1, 2]

    def test_reopen_leaves_mid_file_damage_for_replay(self, tmp_path):
        """Damage at rest (a bad line with valid lines after it) is not
        a torn tail: the re-open must not destroy the evidence, and
        replay must still refuse to guess."""
        d = wal_dir(tmp_path)
        wal = SessionWal(d)
        wal.append_record(1, ["a"])
        wal.append_record(2, ["b"])
        wal.flush()
        wal.close()
        path = SessionWal.segments(d)[0]
        lines = open(path).read().splitlines()
        lines[0] = "0" * 8 + " " + lines[0][9:]  # break line 1's CRC
        open(path, "w").write("\n".join(lines) + "\n")
        SessionWal(d).close()
        with pytest.raises(WalCorruptError):
            payloads(d)

    def test_recover_all_skips_damaged_sessions(self, tmp_path):
        """One session's at-rest damage must not keep the others (or the
        server) from coming back."""
        mgr = DurabilityManager(str(tmp_path))
        for session in ("bad", "good"):
            dur = mgr.open_session("t", session)
            dur.log_header({"h": 1}, {"predicate": "p"})
            dur.log_record(1, ["x"])
            dur.log_record(2, ["y"])
            dur.flush()
            dur.close()
        seg = SessionWal.segments(session_dir(str(tmp_path), "t", "bad"))[0]
        lines = open(seg).read().splitlines()
        lines[1] = "0" * 8 + " " + lines[1][9:]  # damage before the tail
        open(seg, "w").write("\n".join(lines) + "\n")
        recs = mgr.recover_all()
        assert [(r.tenant, r.session) for r in recs] == [("t", "good")]

    def test_str_lines_is_a_type_error(self, tmp_path):
        """``"ab"`` would otherwise log two one-character lines."""
        dur = DurabilityManager(str(tmp_path)).open_session("t", "s")
        with pytest.raises(TypeError):
            dur.log_record(1, "ab")
        dur.close()

    def test_torn_final_chunk_drops_exactly_that_frame(self, tmp_path):
        """One frame per chunk, its top seq ``seq + len - 1``; a torn
        last frame loses that chunk and nothing before it."""
        d = wal_dir(tmp_path)
        wal = SessionWal(d)
        wal.append_record(1, ["a", "b", "c"])
        wal.append_record(4, ["d", "e"])
        assert wal.max_seq == 5
        wal.close()
        path = SessionWal.segments(d)[0]
        raw = open(path).read()
        assert len(raw.splitlines()) == 2
        open(path, "w").write(raw[:-7])  # kill -9 mid-write of frame 2
        assert [(p["seq"], p["lines"]) for p in payloads(d)] == [
            (1, ["a", "b", "c"])]
        wal2 = SessionWal(d)
        assert wal2.max_seq == 3  # the previous frame's top
        wal2.append_record(4, ["d2"])
        wal2.close()
        assert [p["seq"] for p in payloads(d)] == [1, 4]

    def test_old_per_line_frames_recover_unchanged(self, tmp_path):
        """Sessions parked by a server that wrote one frame per line
        recover to the same ``(seq, line)`` list after an upgrade."""
        from repro.serve.durability import _frame

        mgr = DurabilityManager(str(tmp_path))
        directory = session_dir(str(tmp_path), "t", "s")
        os.makedirs(directory)
        frames = [{"t": "hdr", "header": {"h": 1},
                   "opts": {"predicate": "p"}}]
        frames += [{"t": "rec", "seq": q, "line": f"l{q}"}
                   for q in range(1, 5)]
        with open(os.path.join(directory, "wal.000000.log"), "w") as fh:
            fh.write("".join(_frame(f) + "\n" for f in frames))
        want = [(q, f"l{q}") for q in range(1, 5)]
        assert mgr.recover_session(directory).records == want
        wal = SessionWal(directory)
        assert wal.max_seq == 4
        wal.append_record(5, ["l5", "l6"])  # mixed shapes in one segment
        wal.close()
        assert mgr.recover_session(directory).records == want + [
            (5, "l5"), (6, "l6")]

    def test_fsync_validation(self):
        with pytest.raises(ValueError):
            FsyncPolicy.validate("sometimes")
        for ok in FsyncPolicy.CHOICES:
            assert FsyncPolicy.validate(ok) == ok


class TestSessionDurability:
    def test_checkpoint_commit_is_atomic_and_truncates(self, tmp_path):
        mgr = DurabilityManager(str(tmp_path))
        dur = mgr.open_session("t", "s")
        dur.log_header({"h": 1}, {"predicate": "p"})
        for seq in range(1, 6):
            dur.log_record(seq, [f"l{seq}"])
        dur.commit_checkpoint(make_ckpt(5, events=[{"e": "open"}]))
        assert not os.path.exists(
            os.path.join(dur.directory, "ckpt.json.tmp"))
        rec = mgr.recover_session(dur.directory)
        assert rec is not None
        assert rec.checkpoint.seq == 5
        assert rec.records == []  # WAL truncated behind the checkpoint
        assert rec.checkpoint.events == [{"e": "open"}]
        dur.destroy()

    def test_recovery_ckpt_plus_wal_tail(self, tmp_path):
        mgr = DurabilityManager(str(tmp_path))
        dur = mgr.open_session("t", "s")
        dur.log_header({"h": 1}, {"predicate": "p", "engine": "auto"})
        for seq in range(1, 4):
            dur.log_record(seq, [f"l{seq}"])
        dur.commit_checkpoint(make_ckpt(3))
        for seq in range(4, 7):
            dur.log_record(seq, [f"l{seq}"])
        dur.flush()
        rec = mgr.recover_session(dur.directory)
        assert rec.seq == 6
        assert rec.records == [(4, "l4"), (5, "l5"), (6, "l6")]
        assert rec.opts["predicate"] == "p"
        assert not rec.ended
        dur.log_end()
        rec2 = mgr.recover_session(dur.directory)
        assert rec2.ended
        dur.close()

    def test_chunk_straddling_the_watermark_replays_only_above_it(
            self, tmp_path):
        mgr = DurabilityManager(str(tmp_path))
        dur = mgr.open_session("t", "s")
        dur.log_header({"h": 1}, {"predicate": "p"})
        dur.log_record(1, ["l1", "l2", "l3", "l4", "l5"])
        dur.commit_checkpoint(make_ckpt(3))  # worker had applied 3 of 5
        rec = mgr.recover_session(dur.directory)
        assert rec.records == [(4, "l4"), (5, "l5")]
        assert rec.seq == 5
        dur.close()

    def test_recovery_without_checkpoint_uses_wal_header(self, tmp_path):
        mgr = DurabilityManager(str(tmp_path))
        dur = mgr.open_session("acme", "run-1")
        dur.log_header({"proc_names": ["x"]}, {"predicate": "q"})
        dur.log_record(1, ["r1"])
        dur.flush()
        rec = mgr.recover_session(dur.directory)
        assert rec.tenant == "acme" and rec.session == "run-1"
        assert rec.header == {"proc_names": ["x"]}
        assert rec.checkpoint is None and rec.seq == 1
        dur.destroy()

    def test_crash_mid_checkpoint_keeps_previous(self, tmp_path):
        mgr = DurabilityManager(str(tmp_path))
        dur = mgr.open_session("t", "s")
        dur.log_header({"h": 1}, {"predicate": "p"})
        dur.log_record(1, ["l1"])
        dur.commit_checkpoint(make_ckpt(1))
        # a crash mid-write leaves a partial tmp file; it must be ignored
        with open(os.path.join(dur.directory, "ckpt.json.tmp"), "w") as fh:
            fh.write('{"v": 1, "tenant": "t", "ses')
        rec = mgr.recover_session(dur.directory)
        assert rec.checkpoint.seq == 1
        dur.destroy()

    def test_damaged_checkpoint_falls_back_to_wal(self, tmp_path):
        mgr = DurabilityManager(str(tmp_path))
        dur = mgr.open_session("t", "s")
        dur.log_header({"h": 1}, {"predicate": "p"})
        dur.log_record(1, ["l1"])
        dur.flush()
        with open(os.path.join(dur.directory, "ckpt.json"), "w") as fh:
            fh.write("not json at all")
        rec = mgr.recover_session(dur.directory)
        assert rec.checkpoint is None
        assert rec.records == [(1, "l1")]
        dur.destroy()

    def test_destroy_removes_session_dir(self, tmp_path):
        mgr = DurabilityManager(str(tmp_path))
        dur = mgr.open_session("t", "s")
        dur.log_header({"h": 1})
        dur.log_record(1, ["x"])
        dur.commit_checkpoint(make_ckpt(1))
        assert os.path.isdir(dur.directory)
        dur.destroy()
        assert not os.path.exists(dur.directory)
        assert mgr.recover_all() == []

    def test_recover_all_scans_every_tenant(self, tmp_path):
        mgr = DurabilityManager(str(tmp_path))
        for tenant, session in [("a", "s1"), ("a", "s2"), ("b", "s1")]:
            dur = mgr.open_session(tenant, session)
            dur.log_header({"h": tenant}, {"predicate": "p"})
            dur.log_record(1, ["x"])
            dur.flush()
            dur.close()
        recs = mgr.recover_all()
        assert sorted((r.tenant, r.session) for r in recs) == [
            ("a", "s1"), ("a", "s2"), ("b", "s1")]

    def test_session_dir_sanitises_names(self, tmp_path):
        d = session_dir(str(tmp_path), "a/b", "c:d e")
        assert "/b" not in os.path.basename(os.path.dirname(d))
        assert os.path.basename(d) == "c_d_e"

    def test_fsync_always_counts_syncs(self, tmp_path):
        mgr = DurabilityManager(str(tmp_path), fsync=FsyncPolicy.ALWAYS)
        dur = mgr.open_session("t", "s")
        dur.log_record(1, ["x"])  # must not raise; fsync per append
        rec_before = mgr.recover_session(dur.directory)
        assert rec_before is None  # no header yet -> nothing usable
        dur.log_header({"h": 1})
        assert mgr.recover_session(dur.directory) is not None
        dur.destroy()


@pytest.mark.parametrize("fsync,fsyncs", [("batch", 3), ("always", 9)])
def test_server_logs_one_frame_per_forwarded_chunk(tmp_path, fsync, fsyncs):
    """E17's 126-record document at ``batch=32``: header + 4 chunks +
    end is 6 frames (one per line was 128), and ``always`` fsyncs once
    per frame plus the checkpoint roll and end (9, was 131).  A work
    count, not wall time."""
    import asyncio
    import io

    from repro.obs.metrics import METRICS
    from repro.serve import (
        Backoff, ReproServer, ServeConfig, stream_events_durable)
    from repro.trace.io import write_event_stream
    from repro.workloads import random_deposet

    dep = random_deposet(seed=1700, n=3, events_per_proc=40,
                         message_rate=0.3, flip_rate=0.3)
    buf = io.StringIO()
    write_event_stream(dep, buf)
    doc = buf.getvalue().splitlines()
    assert len(doc) - 1 == 126

    async def serve():
        srv = ReproServer(ServeConfig(
            tcp=("127.0.0.1", 0), workers=0, supervise=False, batch=32,
            durable_dir=str(tmp_path), fsync=fsync, checkpoint_every=64))
        await srv.start()
        port = srv._servers[0].sockets[0].getsockname()[1]
        try:
            return await stream_events_durable(
                f"127.0.0.1:{port}", "t", "s", "at-least-one:up", doc,
                backoff=Backoff(base=0.01, seed=1), timeout=60.0)
        finally:
            await srv.drain()

    with METRICS.scoped() as scope:
        events = asyncio.run(serve())
    assert any(e.get("e") == "final" for e in events)
    counters = scope.delta()["counters"]
    assert counters["serve.wal.appends"] == 6
    assert counters["serve.wal.fsyncs"] == fsyncs
