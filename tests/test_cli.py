"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main, parse_predicate
from repro.trace import dump_deposet, load_deposet
from repro.workloads import mutex_trace, random_deposet
from repro.workloads.servers import figure4_c1


@pytest.fixture()
def trace_file(tmp_path):
    dep, _ = figure4_c1()
    path = tmp_path / "c1.json"
    dump_deposet(dep, path)
    return str(path)


def test_parse_predicate_at_least_one():
    pred = parse_predicate("at-least-one:up", 3)
    assert set(pred.locals_by_proc) == {0, 1, 2}


def test_parse_predicate_mutex():
    pred = parse_predicate("mutex:cs", 2)
    assert pred.n == 2


def test_parse_predicate_happens_before():
    pred = parse_predicate("happens-before:0,2>1,3", 4)
    assert set(pred.locals_by_proc) == {0, 1}


@pytest.mark.parametrize("bad", ["nope", "mutex", "happens-before:xyz", "zap:cs"])
def test_parse_predicate_rejects(bad):
    with pytest.raises(ValueError):
        parse_predicate(bad, 3)


def test_cli_info(trace_file, capsys):
    assert main(["info", trace_file]) == 0
    out = capsys.readouterr().out
    assert "S1" in out and "critical path" in out


def test_cli_render(trace_file, capsys):
    assert main(["render", trace_file, "--predicate", "at-least-one:avail"]) == 0
    out = capsys.readouterr().out
    assert "#" in out


def test_cli_detect_violation(trace_file, capsys):
    assert main(["detect", trace_file, "--predicate", "at-least-one:avail"]) == 1
    assert "violation possible" in capsys.readouterr().out


def test_cli_detect_all(trace_file, capsys):
    assert main([
        "detect", trace_file, "--predicate", "at-least-one:avail", "--all",
    ]) == 1
    out = capsys.readouterr().out
    assert "2 violating" in out


def test_cli_detect_all_limit_counts_what_it_hides(trace_file, capsys):
    assert main([
        "detect", trace_file, "--predicate", "at-least-one:avail", "--all",
        "--limit", "0",
    ]) == 1
    out = capsys.readouterr().out
    assert "2 violating" in out and "... (2 more)" in out


def test_cli_detect_rejects_negative_limit(trace_file, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["detect", trace_file, "--predicate", "at-least-one:avail",
              "--all", "--limit", "-1"])
    assert exc_info.value.code == 2
    assert "--limit: must be >= 0, got -1" in capsys.readouterr().err


def test_cli_detect_slice_engine_footer(trace_file, capsys):
    assert main([
        "detect", trace_file, "--predicate", "at-least-one:avail",
        "--engine", "slice",
    ]) == 1
    out = capsys.readouterr().out
    assert "[detect] engine=slice slice states=" in out
    assert "violation possible" in out


def test_cli_detect_parallel_engine_is_gone(trace_file, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["detect", trace_file, "--predicate", "at-least-one:avail",
              "--engine", "parallel"])
    assert exc_info.value.code == 2
    assert "invalid choice: 'parallel'" in capsys.readouterr().err


def test_cli_control_and_recheck(trace_file, tmp_path, capsys):
    fixed = str(tmp_path / "fixed.json")
    assert main([
        "control", trace_file, "--predicate", "at-least-one:avail",
        "-o", fixed, "--minimize",
    ]) == 0
    out = capsys.readouterr().out
    assert "control relation" in out
    assert main(["detect", fixed, "--predicate", "at-least-one:avail"]) == 0


@pytest.mark.parametrize("seed", [None, 0, 5])
def test_cli_control_seed_defaults_to_the_deterministic_order(tmp_path,
                                                             seed, capsys):
    """Without ``--seed`` the CLI emits Figure 2's default choice order;
    ``--seed N`` draws ``select`` at random, as the library does."""
    from repro.core import control_disjunctive
    from repro.workloads import availability_predicate

    dep = random_deposet(n=3, events_per_proc=8, message_rate=0.3,
                         flip_rate=0.3, seed=7)
    path = tmp_path / "t.json"
    dump_deposet(dep, path)
    fixed = str(tmp_path / "fixed.json")
    argv = ["control", str(path), "--predicate", "at-least-one:up",
            "-o", fixed]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) == 0
    pred = availability_predicate(3, "up")
    expected = list(control_disjunctive(dep, pred, seed=seed).control)
    assert list(load_deposet(fixed).control_arrows) == expected
    if seed is None:  # the default order differs from seed 0's draw here
        assert expected != list(control_disjunctive(dep, pred, seed=0).control)


def test_cli_control_infeasible(tmp_path, capsys):
    from repro.trace import ComputationBuilder

    b = ComputationBuilder(1, start_vars=[{"avail": True}])
    b.local(0, avail=False)
    b.local(0, avail=True)
    path = tmp_path / "t.json"
    dump_deposet(b.build(), path)
    assert main(["control", str(path), "--predicate", "at-least-one:avail"]) == 2


def test_cli_replay_roundtrip(trace_file, tmp_path, capsys):
    out_path = str(tmp_path / "replayed.json")
    assert main(["replay", trace_file, "-o", out_path]) == 0
    original = load_deposet(trace_file)
    assert load_deposet(out_path).without_control() == original


def test_cli_mutex_bench(capsys):
    assert main([
        "mutex-bench", "--algorithm", "antitoken", "--n", "3",
        "--entries", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "msgs/entry" in out


def test_cli_missing_file_errors(capsys):
    assert main(["info", "/nonexistent/trace.json"]) == 3
    assert "error:" in capsys.readouterr().err


def test_cli_full_pipeline_mutex(tmp_path, capsys):
    path = tmp_path / "mutex.json"
    dump_deposet(mutex_trace(cs_per_proc=3, n=2, seed=0), path)
    fixed = str(tmp_path / "fixed.json")
    assert main([
        "control", str(path), "--predicate", "mutex:cs", "-o", fixed,
    ]) == 0
    assert main(["replay", fixed]) == 0


def test_cli_ingest_roundtrip_both_directions(trace_file, tmp_path, capsys):
    stream = str(tmp_path / "s.jsonl")
    back = str(tmp_path / "back.json")
    assert main(["ingest", trace_file, "-o", stream]) == 0
    assert "repro-events/1" in capsys.readouterr().out
    assert main(["ingest", stream, "-o", back]) == 0
    assert "repro-deposet/1" in capsys.readouterr().out
    original, rebuilt = load_deposet(trace_file), load_deposet(back)
    assert rebuilt.state_counts == original.state_counts
    assert set(rebuilt.messages) == set(original.messages)


def test_cli_watch_detects_violation(trace_file, tmp_path, capsys):
    stream = str(tmp_path / "s.jsonl")
    assert main(["ingest", trace_file, "-o", stream]) == 0
    capsys.readouterr()
    assert main([
        "watch", stream, "--predicate", "at-least-one:avail", "--verify",
    ]) == 1
    out = capsys.readouterr().out
    assert "violation possible" in out
    assert "batch detector agrees" in out


S196 = Path(__file__).parent / "fixtures" / "serve_seed7_s196.jsonl"


def test_cli_watch_prints_the_obstruction_of_a_definite_violation(capsys):
    assert main(["watch", str(S196), "--predicate", "at-least-one:up"]) == 1
    out = capsys.readouterr().out
    assert "DEFINITELY occurs" in out
    assert ("no controller exists: false-intervals I[0: 18..34], "
            "I[1: 11..37], I[2: 23..27], I[3: 25..34] overlap") in out


@pytest.mark.parametrize("argv", [
    ["watch", str(S196), "--predicate", "at-least-one:up"],
    ["serve", "--listen", "unix:unused.sock"],
])
def test_cli_watch_and_serve_engine_flag_is_gone(argv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv + ["--engine", "slice"])
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --engine slice" in capsys.readouterr().err


def test_cli_watch_controlled_trace_holds(trace_file, tmp_path, capsys):
    fixed = str(tmp_path / "fixed.json")
    stream = str(tmp_path / "s.jsonl")
    assert main([
        "control", trace_file, "--predicate", "at-least-one:avail",
        "-o", fixed,
    ]) == 0
    assert main(["ingest", fixed, "-o", stream]) == 0
    capsys.readouterr()
    assert main([
        "watch", stream, "--predicate", "at-least-one:avail", "--verify",
    ]) == 0
    out = capsys.readouterr().out
    assert "predicate holds" in out
    assert "batch detector agrees" in out


def test_cli_watch_lint_honours_inline_suppressions(tmp_path, capsys):
    """An ``obs`` suppression mutes the watch roll-up exactly as it mutes
    the serve session's (and file lint's): P203 is a finalize-mode rule,
    so it must not appear, and the count drops to the one T007."""
    from pathlib import Path

    from repro.serve.session import DetectionSession

    crossed = Path(__file__).resolve().parents[1] / "examples/traces/crossed.jsonl"
    lines = crossed.read_text().splitlines() + [
        '{"t": "obs", "obs": {"lint": {"suppress": ["P203"]}}}'
    ]
    stream = tmp_path / "crossed.jsonl"
    stream.write_text("\n".join(lines) + "\n")
    args = ["watch", str(stream), "--predicate", "at-least-one:up", "--lint"]

    assert main(args) == 0
    out = capsys.readouterr().out
    assert "P203" not in out and "T007" in out
    assert "[lint] 1 finding(s)" in out

    assert main(args + ["--format", "json"]) == 0
    events = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert not [e for e in events if e.get("rule") == "P203"]
    (summary,) = [e for e in events if e["e"] == "lint"]

    sess = DetectionSession("t", "s", json.loads(lines[0]), "at-least-one:up",
                            lint=True)
    sess.feed(lines[1:], base_lineno=2)
    (served,) = [e for e in sess.finalize() if e["e"] == "lint"]
    assert summary["findings"] == served["findings"] == 1


def test_cli_watch_malformed_stream_errors(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"format": "repro-events/1", "start": [{}, {}]}\n{oops\n')
    assert main(["watch", str(bad), "--predicate", "at-least-one:up"]) == 3
    err = capsys.readouterr().err
    assert "bad.jsonl:2" in err
