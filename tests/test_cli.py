from __future__ import annotations

import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rbc.cli
from rbc.cli import main
from rbc.netsim import simulate
from rbc.transcript_io import parse_transcript

from conftest import ShortAnswer

RUN_BASE = ["run", "--m", "2", "--rounds", "3", "--bit", "1",
            "--alice-seed", "7", "--bob-seed", "9"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_writes_accepting_transcript(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, _, _ = run_cli(RUN_BASE + ["--out", str(out)], capsys)
        assert code == 0
        transcript = parse_transcript(out.read_text())
        assert [len(r.values) for r in transcript.rounds] == [1, 2, 4]

    def test_identical_flags_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(RUN_BASE + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(RUN_BASE + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_output(self, capsys):
        code, out, _ = run_cli(RUN_BASE + ["--out", "-"], capsys)
        assert code == 0
        assert json.loads(out)["format"] == "rbc-transcript"

    def test_invalid_geometry_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(
            RUN_BASE + ["--out", str(tmp_path / "x.json"),
                        "--dx", "0.01", "--dt", "0.005"], capsys)
        assert code == 1
        assert "error" in err

    def test_seed_outside_64_bits_exits_one(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        argv = ["run", "--m", "2", "--rounds", "1", "--bit", "0",
                "--alice-seed", "-1", "--bob-seed", "9", "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert "alice_seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("m, code", [(64, 0), (65, 1)])
    def test_largest_m(self, tmp_path, capsys, m, code):
        out = tmp_path / "x.json"
        argv = ["run", "--m", str(m), "--rounds", "2", "--bit", "0",
                "--alice-seed", "1", "--bob-seed", "2", "--out", str(out)]
        assert run_cli(argv, capsys)[0] == code
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("rounds", ["23", "60", str(10 ** 9)])
    def test_run_past_the_tape_bound_exits_one(self, tmp_path, capsys, rounds):
        out = tmp_path / "x.json"
        argv = ["run", "--m", "2", "--rounds", rounds, "--bit", "0",
                "--alice-seed", "1", "--bob-seed", "2", "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert "tape keys" in err
        assert not out.exists()

    def test_time_too_long_for_the_file_exits_one(self, tmp_path, capsys):
        # --dx itself fits the 256-character cap on file times; round 2's
        # start, derived from it, does not
        out = tmp_path / "x.json"
        dx = f"{3 ** 262 + 1}/{3 ** 262}"
        assert len(dx) <= 256
        code, _, err = run_cli(RUN_BASE + ["--out", str(out), "--dx", dx], capsys)
        assert code == 1
        assert "rounds[1].challenge.start" in err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["file", "stdout"])
    def test_refused_transcript_writes_nothing(self, tmp_path, capsys,
                                               monkeypatch, target):
        # abort is the last field the writer checks, so a writer that wrote
        # while it checked would leave all the file before it behind
        def refused_simulate(*args, **kwargs):
            result = simulate(*args, **kwargs)
            return dataclasses.replace(result, transcript=dataclasses.replace(
                result.transcript, abort=5))

        monkeypatch.setattr("rbc.cli.simulate", refused_simulate)
        out = tmp_path / "t.json"
        code, stdout, err = run_cli(
            RUN_BASE + ["--out", str(out) if target == "file" else "-"], capsys)
        assert code == 1
        assert err == "error: abort: expected a string or None, got 5\n"
        assert stdout == ""
        assert not out.exists()

    def test_abort_exits_two_and_records_reason(self, tmp_path, capsys,
                                                monkeypatch):
        # run plays honestly and never aborts; an abort result from
        # simulate, here from malformed strategy output, still exits 2
        def short_answer_simulate(*args, **kwargs):
            return simulate(*args, strategy=ShortAnswer(), **kwargs)

        monkeypatch.setattr("rbc.cli.simulate", short_answer_simulate)
        out = tmp_path / "aborted.json"
        code, _, err = run_cli(RUN_BASE + ["--out", str(out)], capsys)
        assert code == 2
        assert "aborted" in err
        assert parse_transcript(out.read_text()).abort is not None

    def test_response_deadline_miss_geometry_exits_one(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, _, err = run_cli(
            ["run", "--m", "2", "--rounds", "2", "--bit", "0",
             "--alice-seed", "1", "--bob-seed", "2", "--out", str(out),
             "--dx", "1", "--delta", "0.05", "--dt", "0.01",
             "--intra-delay", "0.1"], capsys)
        assert code == 1
        assert "intra_delay <= delta + delta_t" in err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unwritable_out_exits_one(self, tmp_path, capsys, target):
        out = tmp_path / "nope" / "t.json" if target == "missing" else tmp_path
        code, stdout, err = run_cli(RUN_BASE + ["--out", str(out)], capsys)
        assert code == 1
        assert stdout == ""
        assert err.startswith(f"cannot write {out}: ")
        assert err.count("\n") == 1

    def test_dual_unveil_flag(self, tmp_path, capsys):
        out = tmp_path / "dual.json"
        code, _, _ = run_cli(RUN_BASE + ["--out", str(out), "--dual-unveil"], capsys)
        assert code == 0
        assert len(parse_transcript(out.read_text()).unveils) == 2


class TestVerify:
    @pytest.fixture
    def transcript_path(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(RUN_BASE + ["--out", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_accepts_honest_file(self, transcript_path, capsys):
        code, out, _ = run_cli(["verify", str(transcript_path)], capsys)
        assert code == 0
        verdict = json.loads(out)
        assert verdict["outcome"] == "accept"
        assert verdict["bit"] == 1
        assert verdict["aggregation_time"] is not None

    def test_rejects_mutated_file(self, transcript_path, capsys):
        obj = json.loads(transcript_path.read_text())
        obj["unveils"][0]["revealed"][0] = (obj["unveils"][0]["revealed"][0] + 2) % 4
        transcript_path.write_text(json.dumps(obj))
        code, out, _ = run_cli(["verify", str(transcript_path)], capsys)
        assert code == 3
        verdict = json.loads(out)
        assert verdict["outcome"] == "reject"
        assert verdict["reason"] in ("decode_mismatch",)

    def test_truncated_file_exits_one(self, transcript_path, capsys):
        transcript_path.write_text(transcript_path.read_text()[:40])
        code, _, err = run_cli(["verify", str(transcript_path)], capsys)
        assert code == 1
        assert "parse error" in err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code, _, _ = run_cli(["verify", str(tmp_path / "nope.json")], capsys)
        assert code == 1

    @pytest.mark.parametrize("data", [b"\xff\xfe", b'{"m": "\xe9"}'],
                             ids=["utf16-bom", "latin1"])
    def test_file_not_utf8_is_a_parse_error(self, tmp_path, capsys, data):
        path = tmp_path / "t.json"
        path.write_bytes(data)
        code, out, err = run_cli(["verify", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("parse error: not UTF-8: 'utf-8' codec can't "
                              "decode byte 0x")


class TestAttack:
    def test_offset_guess_report(self, capsys):
        code, out, _ = run_cli(
            ["attack", "--m", "2", "--rounds", "1", "--strategy", "offset-guess",
             "--trials", "300", "--seed", "5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["oracle_rate_exact"] == "1/3"
        assert abs(report["success_rate"] - 1 / 3) < 0.1

    def test_oracle_too_long_for_exact_string(self, capsys):
        # at (2,14) the exact oracle fraction has about 7,800 digits
        code, out, _ = run_cli(
            ["attack", "--m", "2", "--rounds", "14", "--strategy", "offset-guess",
             "--trials", "1", "--seed", "5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["oracle_rate_exact"] is None
        assert 0 < report["oracle_rate"] < 1 / 3

    def test_honest_relabel_sanity(self, capsys):
        code, out, _ = run_cli(
            ["attack", "--m", "2", "--rounds", "2", "--strategy", "honest-relabel",
             "--trials", "20", "--seed", "5"], capsys)
        assert code == 0
        assert json.loads(out)["success_rate"] == 1.0

    def test_m_past_64_exits_one(self, capsys):
        code, _, err = run_cli(
            ["attack", "--m", "65", "--rounds", "2", "--strategy", "offset-guess",
             "--trials", "3", "--seed", "1"], capsys)
        assert code == 1
        assert "m=65" in err

    @pytest.mark.parametrize("rounds", ["23", "60", str(10 ** 9)])
    def test_run_past_the_tape_bound_exits_one(self, capsys, rounds):
        code, out, err = run_cli(
            ["attack", "--m", "2", "--rounds", rounds, "--strategy",
             "offset-guess", "--trials", "3", "--seed", "1"], capsys)
        assert code == 1
        assert out == ""
        assert "tape keys" in err

    def test_unknown_strategy_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--m", "2", "--rounds", "1", "--strategy", "bogus",
                  "--trials", "10", "--seed", "1"])
        assert exc.value.code == 1


class TestCapacity:
    ARGS = ["capacity", "--m", "10", "--baud", "1e11"]

    def test_reference_scenario_json(self, capsys):
        code, out, _ = run_cli(self.ARGS, capsys)
        assert code == 0
        report = json.loads(out)
        assert 8 <= report["max_rounds"] <= 12

    def test_table_format(self, capsys):
        code, out, _ = run_cli(self.ARGS + ["--format", "table"], capsys)
        assert code == 0
        assert "max practical rounds" in out

    def test_unknown_format_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--format", "xml"])
        assert exc.value.code == 1

    def test_intra_delay_exits_one(self):
        # the capacity does not depend on intra_delay, so the flag is unknown
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--intra-delay", "0.1"])
        assert exc.value.code == 1

    def test_zero_baud_exits_one(self, capsys):
        code, _, err = run_cli(["capacity", "--m", "10", "--baud", "0"], capsys)
        assert code == 1
        assert "baud" in err

    def test_geometric_table_rows(self, capsys):
        code, out, _ = run_cli(
            ["capacity", "--m", "2", "--dx", "1.0", "--delta", "0.005",
             "--dt", "0.01", "--baud", "1e6"], capsys)
        assert code == 0
        report = json.loads(out)
        bits = [row["bits"] for row in report["rounds"]]
        assert all(b == 2 * a for a, b in zip(bits, bits[1:]))
        assert report["max_rounds"] > 10


class TestNumericFlags:
    """--dx, --delta, --dt, --intra-delay and --baud are read by one bounded
    reader: a spelling whose Fraction would be costly to build, or that no
    Fraction takes, exits 1 before any is built."""

    ATTACK = ["attack", "--m", "2", "--rounds", "1", "--strategy",
              "offset-guess", "--trials", "1", "--seed", "1"]
    CAPACITY = ["capacity", "--m", "2"]

    @pytest.mark.parametrize("argv, flag", [
        (RUN_BASE + ["--out", "-", "--dx", "1e10000000"], "--dx"),
        (RUN_BASE + ["--out", "-", "--delta", "1e-10000000"], "--delta"),
        (RUN_BASE + ["--out", "-", "--dt", "1" * 257], "--dt"),
        (RUN_BASE + ["--out", "-", "--intra-delay", "1/0"], "--intra-delay"),
        (RUN_BASE + ["--out", "-", "--dx", "1e257"], "--dx"),
        (RUN_BASE + ["--out", "-", "--dx", "0x10"], "--dx"),
        (RUN_BASE + ["--out", "-", "--dx", " 1"], "--dx"),
        (ATTACK + ["--dx", "1e10000000"], "--dx"),
        (CAPACITY + ["--baud", "1e100000"], "--baud"),
        (CAPACITY + ["--baud", "1e5000"], "--baud"),
    ], ids=["run-dx-exponent", "run-delta-exponent", "run-dt-long",
            "run-intra-delay-zero-q", "run-dx-past-limit", "run-dx-hex",
            "run-dx-space", "attack-dx-exponent", "capacity-baud-exponent",
            "capacity-baud-past-int-limit"])
    def test_refuses_unbounded_spelling(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "4300" not in err

    @pytest.mark.parametrize("baud", ["1e11", "100000000000", "1E+11",
                                      "200000000000/2", ".1e12"])
    def test_capacity_takes_documented_spellings(self, capsys, baud):
        code, out, _ = run_cli(["capacity", "--m", "10", "--baud", baud,
                                "--delta", "0.00001", "--dt", "1e-4"], capsys)
        assert code == 0
        assert json.loads(out)["baud"] == "100000000000"


class TestUsage:
    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_bad_bit_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--m", "2", "--rounds", "1", "--bit", "2",
                  "--alice-seed", "1", "--bob-seed", "2", "--out", "-"])
        assert exc.value.code == 1


class TestClosedStdout:
    """A reader that closes the pipe early, as in rbc verify t.json | head -1,
    ends the command with exit 1 and nothing on stderr."""

    @pytest.mark.parametrize("argv", [
        ["verify", "{path}"],
        ["attack", "--m", "2", "--rounds", "1", "--strategy", "offset-guess",
         "--trials", "10", "--seed", "1"],
        RUN_BASE + ["--out", "-"],
        ["capacity", "--m", "4", "--baud", "1e9"],
    ], ids=["verify", "attack", "run", "capacity"])
    def test_exits_one_without_traceback(self, tmp_path, capsys, argv):
        path = tmp_path / "t.json"
        assert run_cli(RUN_BASE + ["--out", str(path)], capsys)[0] == 0
        src = str(Path(rbc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "rbc.cli",
             *(arg.format(path=path) for arg in argv)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class _Outcome:
    """What the CLI reads of an attack outcome."""

    def to_json_obj(self):
        return {}


class _ClosedStdout(io.TextIOBase):
    """Standard output whose reader has gone, as in rbc verify t.json | head -1.
    A text stream, so its writelines calls write, as sys.stdout's does."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def _unwritable(tmp_path):
    return RUN_BASE + ["--out", str(tmp_path / "nope" / "t.json")]


def _rejected(tmp_path):
    path = tmp_path / "t.json"
    obj = json.loads(path.read_text())
    obj["unveils"][0]["revealed"][0] = (obj["unveils"][0]["revealed"][0] + 2) % 4
    path.write_text(json.dumps(obj))
    return ["verify", str(path)]


def _truncated(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(path.read_text()[:40])
    return ["verify", str(path)]


# (argv builder, exit code) for each way out of run and verify; each builder
# gets a directory that holds an honest m=2, R=3 transcript at t.json
GC_EXITS = {
    "run_ok": (lambda d: RUN_BASE + ["--out", str(d / "again.json")], 0),
    "run_unwritable": (_unwritable, 1),
    "run_bad_geometry": (lambda d: RUN_BASE + ["--out", str(d / "x.json"),
                                               "--dx", "0.01", "--dt", "0.005"], 1),
    "verify_accept": (lambda d: ["verify", str(d / "t.json")], 0),
    "verify_reject": (_rejected, 3),
    "verify_truncated": (_truncated, 1),
    "verify_missing": (lambda d: ["verify", str(d / "nope.json")], 1),
}


class TestCyclicGcPause:
    """run and verify pause the cyclic GC while their bodies run, and leave
    it as they found it on every way out; attack does not pause it."""

    @pytest.fixture
    def transcript_dir(self, tmp_path, capsys):
        assert main(RUN_BASE + ["--out", str(tmp_path / "t.json")]) == 0
        capsys.readouterr()
        return tmp_path

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def gc_before(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("case", GC_EXITS)
    def test_state_restored(self, transcript_dir, capsys, gc_before, case):
        build, code = GC_EXITS[case]
        argv = build(transcript_dir)
        assert main(argv) == code
        assert gc.isenabled() is gc_before

    @pytest.mark.parametrize("argv", [["verify", "{path}"], RUN_BASE + ["--out", "-"]],
                             ids=["verify", "run"])
    def test_state_restored_on_closed_stdout(self, transcript_dir, monkeypatch,
                                             gc_before, argv):
        path = transcript_dir / "t.json"
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        with pytest.raises(BrokenPipeError):
            main([arg.format(path=path) for arg in argv])
        assert gc.isenabled() is gc_before

    @pytest.mark.parametrize("gc_before", [True], ids=["enabled"], indirect=True)
    def test_paused_inside_run_and_verify(self, transcript_dir, capsys,
                                          monkeypatch, gc_before):
        seen = []

        def spy(real):
            def call(*args, **kwargs):
                seen.append((real.__name__, gc.isenabled()))
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(rbc.cli, "simulate", spy(rbc.cli.simulate))
        monkeypatch.setattr(rbc.cli, "verify", spy(rbc.cli.verify))
        path = transcript_dir / "t.json"
        assert main(RUN_BASE + ["--out", str(path)]) == 0
        assert main(["verify", str(path)]) == 0
        assert seen == [("simulate", False), ("verify", False)]

    def test_attack_leaves_gc_as_it_is(self, capsys, monkeypatch, gc_before):
        seen = []

        def fake_attack(*args):
            seen.append(gc.isenabled())
            return _Outcome()

        monkeypatch.setattr(rbc.cli, "run_attack", fake_attack)
        code, _, _ = run_cli(["attack", "--m", "2", "--rounds", "1", "--strategy",
                              "offset-guess", "--trials", "1", "--seed", "1"], capsys)
        assert code == 0
        assert seen == [gc_before]
