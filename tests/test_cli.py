import errno
import json
import subprocess
import sys

import pytest

from degenscope import cli, density
from degenscope.cli import (
    EXIT_INVALID_INPUT,
    EXIT_IO_FAILURE,
    EXIT_OK,
    dumps_envelope,
    frac_decimal,
    frac_str,
    main,
    run_scan,
)
from fractions import Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestFractions:
    def test_frac_str(self):
        assert frac_str(Fraction(9)) == "9"
        assert frac_str(Fraction(25, 3)) == "25/3"
        assert frac_str(Fraction(-1, 2)) == "-1/2"

    def test_frac_decimal(self):
        assert frac_decimal(Fraction(1, 2)) == "0.5"
        assert frac_decimal(Fraction(1, 3)) == "0.333333333333"
        assert frac_decimal(Fraction(7)) == "7"
        assert frac_decimal(Fraction(-1, 8)) == "-0.125"
        assert frac_decimal(Fraction(601, 1000)) == "0.601"


class TestCqsCommand:
    def test_wahl_germ(self, capsys):
        env = run_json(capsys, "cqs", "9", "1", "2")
        assert env["schema_version"] == "1" and env["command"] == "cqs"
        r = env["result"]
        assert r["chain"] == [5, 2] and r["dual_chain"] == [2, 5]
        assert r["t_data"] == {"d": 1, "n": 3, "a": 1} and r["wahl"]
        assert r["mu"] == 0
        assert r["rigid"] == {"rigid": False, "k": 3, "r": 3}
        assert r["gorenstein_index"] == 3
        assert r["mld"] == "1/3"

    def test_smooth_marker(self, capsys):
        r = run_json(capsys, "cqs", "1", "0", "0")["result"]
        assert r["smooth"] and r["mld"] == "2" and r["chain"] == []

    def test_basket_example(self, capsys):
        r = run_json(capsys, "cqs", "12", "1", "7")["result"]
        assert r["chain"] == [2, 4, 2]
        assert {b["family"] for b in r["baskets"]} == {"F4", "D"}
        assert r["rigid"] == {"rigid": False, "k": 4, "r": 3}

    def test_bound_flag(self, capsys):
        r = run_json(capsys, "cqs", "841", "1", "637", "--bound", "12")["result"]
        assert r["mld_bound"] == "985/10092"
        assert "mld" not in r

    def test_invalid_germ_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "cqs", "4", "2", "1")
        assert code == EXIT_INVALID_INPUT and "unit" in err

    def test_limit_exceeded_exit_3(self, capsys):
        # there is no mld cap and no exit code 3 any more: argparse rejects
        # the removed --limit-mld flag, and the Wahl germ n = 10007 (order
        # above the former 10^8 cap) gets its exact mld
        with pytest.raises(SystemExit) as exc:
            main(["--limit-mld", "100", "cqs", "101", "1", "7"])
        assert exc.value.code == EXIT_INVALID_INPUT
        r = run_json(capsys, "cqs", "100140049", "1", "50065020")["result"]
        assert r["mld"] == "1/10007"
        assert r["t_data"] == {"d": 1, "n": 10007, "a": 5003} and r["wahl"]

    def test_bound_avoids_limit(self, capsys):
        # --bound reports the pigeonhole quantity instead of the exact mld
        code, out, _ = run_cli(capsys, "cqs", "100140049", "1", "50065020", "--bound", "10")
        assert code == EXIT_OK
        r = json.loads(out)["result"]
        assert r["mld_bound_T"] == 10 and r["mld_bound"] == "100140149/1001400490"
        assert "mld" not in r


class TestWpsCommand:
    def test_markov_square(self, capsys):
        r = run_json(capsys, "wps", "4", "25", "841")["result"]
        assert r["well_formed"] and r["k2"] == "9"
        assert r["verdict"]["outcome"] == "NoNontrivialDegenerations"
        assert r["mld"] == "1/29"
        assert r["noether"] == {"lhs": "12", "lhs_decimal": "12", "holds": True}

    def test_exceptional(self, capsys):
        r = run_json(capsys, "wps", "1", "5", "8")["result"]
        kinds = [x["kind"] for x in r["verdict"]["reasons"]]
        assert kinds == ["in_family_a", "in_family_b", "mld_at_least_one_sixth"]
        assert r["verdict"]["reasons"][1]["family"] == "B1"

    def test_markov_square_above_former_cap(self, capsys):
        # the square of the Markov triple (5, 2897, 43261)
        r = run_json(capsys, "wps", "25", "8392609", "1871514121")["result"]
        assert r["mld"] == "1/43261"
        assert r["verdict"]["outcome"] == "NoNontrivialDegenerations"

    def test_not_well_formed(self, capsys):
        r = run_json(capsys, "wps", "2", "4", "5")["result"]
        assert not r["well_formed"]
        assert r["verdict"]["outcome"] == "OutOfScope"
        assert [x["kind"] for x in r["verdict"]["reasons"]] == ["not_well_formed"]

    def test_nonpositive_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "wps", "0", "1", "2")
        assert code == EXIT_INVALID_INPUT

    def test_explain_attaches_text(self, capsys):
        r = run_json(capsys, "--explain", "wps", "1", "1", "1")["result"]
        assert all("explain" in x for x in r["verdict"]["reasons"])


class TestMarkovCommand:
    def test_classic(self, capsys):
        r = run_json(capsys, "markov", "classic", "--bound", "1")["result"]
        assert r["triples"] == [[1, 1, 1]]

    def test_gen(self, capsys):
        r = run_json(capsys, "markov", "gen", "--n", "3", "--bound", "100")["result"]
        assert r["solutions"] == [[1, 1], [1, 4], [4, 19], [19, 91]]

    def test_degenerations_annotated(self, capsys):
        r = run_json(capsys, "markov", "degenerations", "--n", "4", "--bound", "50")["result"]
        assert [p["weights"] for p in r["planes"]] == [[1, 1, 4], [1, 25, 4], [25, 841, 4]]
        assert all(p["wps"]["well_formed"] for p in r["planes"])

    def test_degenerations_above_former_cap(self, capsys):
        r = run_json(capsys, "markov", "degenerations", "--n", "3", "--bound", "20000")["result"]
        last = r["planes"][-1]
        assert last["weights"] == [4363921, 100180081, 3]
        assert last["wps"]["mld"] == "1/10009"
        assert last["wps"]["verdict"]["outcome"] == "NoNontrivialDegenerations"

    def test_candidates(self, capsys):
        r = run_json(capsys, "markov", "candidates", "--n", "3", "--x", "4", "--y", "19")["result"]
        kinds = [c["kind"] for c in r["candidates"]]
        assert kinds == ["Toric", "NonToricGm", "NonToricGm", "Toric"]

    def test_small_n_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "markov", "degenerations", "--n", "2", "--bound", "5")
        assert code == EXIT_INVALID_INPUT
        code, _, _ = run_cli(capsys, "markov", "candidates", "--n", "2", "--x", "1", "--y", "3")
        assert code == EXIT_INVALID_INPUT


class TestDensityCommand:
    def test_json_censuses(self, capsys):
        r = run_json(capsys, "density", "10")["result"]
        assert r["censuses"][0]["count_B1"] == 18
        assert r["censuses"][0]["ratio"] == "601/1000"

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "--csv", "density", "10", "50")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "N,count_A,count_B1,count_B2,count_B3,count_S,ratio"
        assert lines[1].startswith("10,595,18,")
        assert len(lines) == 3

    def test_csv_rejected_elsewhere(self, capsys):
        code, _, _ = run_cli(capsys, "--csv", "cqs", "9", "1", "2")
        assert code == EXIT_INVALID_INPUT


class TestScanCommand:
    def test_scan_one(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        rec = json.loads(lines[0])
        assert rec["command"] == "scan-record"
        assert rec["result"]["triple"] == [1, 1, 1]
        assert rec["result"]["verdict"] == "OutOfScope"
        summary = json.loads("\n".join(lines[1:]))
        assert summary["result"]["well_formed_records"] == 1

    def test_jobs_invariance_small(self):
        assert run_scan(25, jobs=1) == run_scan(25, jobs=4)

    def test_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "records.jsonl"
        code, out, _ = run_cli(capsys, "--quiet", "scan", "5", "--out", str(out_file))
        assert code == EXIT_OK and out == ""
        lines = out_file.read_text().splitlines()
        assert all(json.loads(line)["command"] == "scan-record" for line in lines)

    def test_csv_records(self, tmp_path, capsys):
        out_file = tmp_path / "records.csv"
        code, _, _ = run_cli(capsys, "--csv", "--quiet", "scan", "4", "--out", str(out_file))
        assert code == EXIT_OK
        lines = out_file.read_text().splitlines()
        assert lines[0] == "a,b,c,verdict,reasons,mld,k2"
        assert lines[1].split(",")[:4] == ["1", "1", "1", "OutOfScope"]

    def test_unwritable_out_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "scan", "2", "--out", "/nonexistent-dir/x.jsonl")
        assert code == EXIT_IO_FAILURE

    def test_failed_write_keeps_previous_out(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "records.jsonl"
        target.write_text("previous run\n")
        real_open = open

        def full_disk_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)

            def write(_):
                raise OSError(errno.ENOSPC, "No space left on device")

            fh.write = write
            return fh

        monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
        code, _, err = run_cli(capsys, "scan", "5", "--out", str(target))
        assert code == EXIT_IO_FAILURE and "No space left" in err
        assert target.read_text() == "previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]

        monkeypatch.undo()
        code, _, _ = run_cli(capsys, "scan", "5", "--out", str(target))
        assert code == EXIT_OK
        assert json.loads(target.read_text().splitlines()[0])["command"] == "scan-record"
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]


class _RecordingContext:
    """Stands in for a multiprocessing context: records each pool size and
    runs the pool's map in this process."""

    def __init__(self):
        self.pool_sizes = []

    def Pool(self, processes):
        self.pool_sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(t) for t in tasks]


class TestJobs:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--jobs", "0", "density", "20"),
            ("--jobs", "0", "scan", "5"),
            ("--jobs", "-1", "cqs", "9", "1", "2"),
            ("wps", "4", "25", "841", "--jobs", "0"),
            ("markov", "gen", "--n", "3", "--bound", "10", "--jobs", "0"),
        ],
    )
    def test_jobs_below_one_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INVALID_INPUT and out == "" and "--jobs" in err

    def test_scan_pool_clamped(self, monkeypatch):
        ctx = _RecordingContext()
        monkeypatch.setattr(cli, "get_context", lambda method: ctx)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        serial = run_scan(6, jobs=1)
        assert run_scan(6, jobs=10**6) == serial  # clamped to the 3 CPUs
        assert run_scan(2, jobs=10**6) == run_scan(2, jobs=1)  # clamped to the 2 tasks
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert run_scan(6, jobs=8) == serial  # unknown CPU count: serial
        assert ctx.pool_sizes == [3, 2]

    def test_density_pool_clamped(self, monkeypatch):
        ctx = _RecordingContext()
        monkeypatch.setattr(density, "get_context", lambda method: ctx)
        monkeypatch.setattr(density.os, "cpu_count", lambda: 3)
        serial = density.count_family_A(20, jobs=1)
        assert density.count_family_A(20, jobs=10**6) == serial
        monkeypatch.setattr(density.os, "cpu_count", lambda: 1)
        assert density.count_family_A(20, jobs=4) == serial
        assert ctx.pool_sizes == [3]


class TestFlagPlacement:
    def test_global_flags_after_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "3", "--jobs", "2", "--quiet")
        assert code == EXIT_OK and out == ""

    def test_same_result_either_side(self, capsys):
        _, out1, _ = run_cli(capsys, "--explain", "wps", "1", "5", "8")
        _, out2, _ = run_cli(capsys, "wps", "1", "5", "8", "--explain")
        assert out1 == out2


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "wps", "4", "25", "841")
        _, out2, _ = run_cli(capsys, "wps", "4", "25", "841")
        assert out1 == out2

    def test_envelope_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "density", "15")
        env = json.loads(out)
        assert dumps_envelope(env) == out.rstrip("\n")


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "degenscope", "cqs", "4", "1", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        env = json.loads(proc.stdout)
        assert env["result"]["chain"] == [4] and env["result"]["wahl"]

    def test_module_invocation_bad_input(self):
        proc = subprocess.run(
            [sys.executable, "-m", "degenscope", "wps", "-1", "2", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_INVALID_INPUT
