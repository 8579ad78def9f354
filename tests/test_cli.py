import contextlib
import errno
import io
import json
import os
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from math import gcd
from types import SimpleNamespace

import exit_cases
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from import_budget import over_budget
from oracles import scan_lines

from degenscope import cli, cqs, density, pool, wps
from degenscope.cli import (
    EXIT_INVALID_INPUT,
    EXIT_IO_FAILURE,
    EXIT_OK,
    dumps_envelope,
    main,
    run_scan,
)
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


def usable_cpus(monkeypatch, n):
    """Let `fan_out` see n CPUs in this process's affinity mask."""
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestFractions:
    # The payloads render a Fraction f through cqs.ratio_str / ratio_decimal
    # of its numerator and denominator (cli.frac_fields).
    def test_frac_str(self):
        assert cqs.ratio_str(9, 1) == "9"
        assert cqs.ratio_str(25, 3) == "25/3"
        assert cqs.ratio_str(-1, 2) == "-1/2"

    def test_frac_decimal(self):
        assert cqs.ratio_decimal(1, 2) == "0.5"
        assert cqs.ratio_decimal(1, 3) == "0.333333333333"
        assert cqs.ratio_decimal(7, 1) == "7"
        assert cqs.ratio_decimal(-1, 8) == "-0.125"
        assert cqs.ratio_decimal(601, 1000) == "0.601"


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

    def test_mld_cap_is_gone(self, capsys):
        # there is no mld cap and no exit code 3 any more: argparse rejects
        # the removed --limit-mld flag, and the Wahl germ n = 10007 (order
        # above the former 10^8 cap) gets its exact mld
        with pytest.raises(SystemExit) as exc:
            main(["--limit-mld", "100", "cqs", "101", "1", "7"])
        assert exc.value.code == EXIT_INVALID_INPUT
        r = run_json(capsys, "cqs", "100140049", "1", "50065020")["result"]
        assert r["mld"] == "1/10007"
        assert r["t_data"] == {"d": 1, "n": 10007, "a": 5003} and r["wahl"]

    def test_bound_reports_the_pigeonhole_quantity(self, capsys):
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

    def test_failed_bound_check_warns_alike_in_density_and_scan(self, tmp_path, capsys, monkeypatch):
        real_census = density.census

        def failing_census(N):
            c = real_census(N)
            failed = c.bound_checks[-1]._replace(holds=False)
            return c._replace(bound_checks=(*c.bound_checks[:-1], failed))

        monkeypatch.setattr(density, "census", failing_census)
        b = failing_census(7).bound_checks[-1]
        expected = [f"bound check {b.name} failed at N=7: {b.lhs} vs {b.rhs}"]
        assert run_json(capsys, "density", "7")["warnings"] == expected
        scan = run_json(capsys, "scan", "7", "--out", str(tmp_path / "records.jsonl"))
        assert scan["warnings"] == expected
        # A CSV table has no envelope: the warnings go to stderr, quiet or not.
        code, out, err = run_cli(capsys, "--csv", "density", "7")
        assert code == EXIT_OK and out.startswith("N,count_A,")
        assert err == f"warning: {expected[0]}\n"
        assert run_cli(capsys, "--quiet", "--csv", "density", "7") == (EXIT_OK, "", err)


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
        for csv_format in (False, True):
            serial = scan_lines(25, jobs=1, csv_format=csv_format)
            assert scan_lines(25, jobs=4, csv_format=csv_format) == serial

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

    def test_unwritable_out_exit_4(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "scan", "2", "--out", "/nonexistent-dir/x.jsonl")
        assert code == EXIT_IO_FAILURE
        # The message names the path given, not the hidden temporary file.
        assert "'/nonexistent-dir/x.jsonl'" in err and ".tmp" not in err
        # So does a failed rename onto a directory, which leaves nothing behind.
        target = tmp_path / "d"
        target.mkdir()
        code, _, err = run_cli(capsys, "scan", "2", "--out", str(target))
        assert code == EXIT_IO_FAILURE
        assert f"'{target}'" in err and ".tmp" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["d"] and list(target.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [("scan", "0"), ("--jobs", "0", "scan", "5"), ("--json", "--csv", "scan", "5")],
    )
    def test_invalid_input_exits_2_before_out_is_opened(self, tmp_path, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--out", "/nonexistent-dir/x.jsonl")
        assert code == EXIT_INVALID_INPUT and out == ""
        code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "x.jsonl"))
        assert code == EXIT_INVALID_INPUT and out == ""
        assert list(tmp_path.iterdir()) == []

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

        monkeypatch.setattr(pool, "open", full_disk_open, raising=False)
        code, _, err = run_cli(capsys, "scan", "5", "--out", str(target))
        assert code == EXIT_IO_FAILURE and "No space left" in err
        assert target.read_text() == "previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]

        monkeypatch.undo()
        code, _, _ = run_cli(capsys, "scan", "5", "--out", str(target))
        assert code == EXIT_OK
        assert json.loads(target.read_text().splitlines()[0])["command"] == "scan-record"
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]

    def test_stale_temporary_file_does_not_block_out(self, tmp_path, capsys, monkeypatch):
        # A killed run whose pid this process now has left its temporary
        # file, under the old name and under the first token drawn.
        monkeypatch.setattr(pool.os, "getpid", lambda: 4242)
        tokens = iter([bytes(6), b"\1" * 6])
        monkeypatch.setattr(pool.os, "urandom", lambda n: next(tokens))
        stale = [tmp_path / ".o.jsonl.4242.tmp", tmp_path / ".o.jsonl.4242.000000000000.tmp"]
        for path in stale:
            path.write_text("stale\n")
        code, _, err = run_cli(capsys, "scan", "5", "--out", str(tmp_path / "o.jsonl"))
        assert code == EXIT_OK, err
        assert json.loads((tmp_path / "o.jsonl").read_text().splitlines()[0])["command"] == "scan-record"
        assert [path.read_text() for path in stale] == ["stale\n"] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["o.jsonl", *(p.name for p in stale)])

    def test_out_symlink_keeps_its_target(self, tmp_path, capsys):
        # The scan replaces the file a symlink names, as it would that file,
        # and creates the file a dangling symlink names.
        plain = tmp_path / "plain.jsonl"
        assert run_cli(capsys, "scan", "5", "--out", str(plain))[0] == EXIT_OK
        (tmp_path / "real.jsonl").write_text("previous run\n")
        for link, target in (("link.jsonl", "real.jsonl"), ("dangling.jsonl", "new.jsonl")):
            (tmp_path / link).symlink_to(target)
            code, _, err = run_cli(capsys, "scan", "5", "--out", str(tmp_path / link))
            assert code == EXIT_OK, err
            assert (tmp_path / link).is_symlink() and os.readlink(tmp_path / link) == target
            assert (tmp_path / target).read_bytes() == plain.read_bytes()
        names = ["dangling.jsonl", "link.jsonl", "new.jsonl", "plain.jsonl", "real.jsonl"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names

    def test_out_fifo_delivers_the_records(self, tmp_path, capsys):
        # A FIFO is written in place: its reader gets the bytes of a file.
        plain, fifo, spare = tmp_path / "plain.jsonl", tmp_path / "records.fifo", tmp_path / "spare"
        assert run_cli(capsys, "scan", "5", "--out", str(plain))[0] == EXIT_OK
        os.mkfifo(fifo)
        os.link(fifo, spare)  # reaches the FIFO even if its path is replaced
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        try:
            code, _, err = run_cli(capsys, "scan", "5", "--out", str(fifo))
            reader.join(timeout=60)
        finally:
            if reader.is_alive():  # nothing opened the FIFO: end the reader's wait
                os.close(os.open(spare, os.O_WRONLY | os.O_NONBLOCK))
                reader.join(timeout=60)
        assert not reader.is_alive()
        assert code == EXIT_OK, err
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert received == [plain.read_bytes()]


class _ForkRecorder:
    """Wraps `os.fork` and `pool.fan_out` for one test: records the pids of
    the workers forked, as this process sees them, and the number each
    `fan_out` call forked (0 for one that ran in this process)."""

    def __init__(self, monkeypatch):
        self.pids, self.pool_sizes = [], []
        fork, fan_out = os.fork, pool.fan_out

        def recording_fork():
            pid = fork()
            if pid:
                self.pids.append(pid)
            return pid

        @contextlib.contextmanager
        def recording_fan_out(*args):
            before = len(self.pids)
            try:
                with fan_out(*args) as results:
                    yield results
            finally:
                self.pool_sizes.append(len(self.pids) - before)

        monkeypatch.setattr(pool.os, "fork", recording_fork)
        monkeypatch.setattr(pool, "fan_out", recording_fan_out)

    def all_reaped(self):
        """Whether every recorded worker has exited and been reaped."""
        for pid in self.pids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            return False
        return True


def no_child_left():
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def append_line(path, text):
    """Append one line with one O_APPEND write, so lines from forked workers
    and from this process never interleave within a line."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        os.write(fd, (text + "\n").encode())
    finally:
        os.close(fd)


def wait_for(path, timeout_s=20):
    deadline = time.monotonic() + timeout_s
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.005)


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
        forks = _ForkRecorder(monkeypatch)
        usable_cpus(monkeypatch, 3)
        serial = scan_lines(6, jobs=1)
        assert scan_lines(6, jobs=10**6) == serial  # clamped to the 3 CPUs
        assert scan_lines(2, jobs=10**6) == scan_lines(2, jobs=1)  # clamped to the 2 tasks
        # A platform without an affinity call counts the machine's CPUs.
        monkeypatch.delattr(pool.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(pool.os, "cpu_count", lambda: 2)
        assert scan_lines(6, jobs=8) == serial
        monkeypatch.setattr(pool.os, "cpu_count", lambda: None)
        assert scan_lines(6, jobs=8) == serial  # unknown CPU count: serial
        assert forks.pool_sizes == [0, 3, 2, 0, 2, 0]
        assert len(forks.pids) == 7 and forks.all_reaped()

    def test_one_usable_cpu_runs_in_process(self, capsys, monkeypatch):
        # As under `taskset -c 0` on a 2-CPU machine: the process may run on
        # one CPU, so --jobs 2 forks no worker.
        forks = _ForkRecorder(monkeypatch)
        monkeypatch.setattr(pool.os, "cpu_count", lambda: 2)
        usable_cpus(monkeypatch, 1)
        assert run_cli(capsys, "--jobs", "2", "scan", "6")[0] == EXIT_OK
        assert forks.pool_sizes == [0] and forks.pids == []

    def test_only_the_scan_records_start_a_pool(self, capsys, monkeypatch):
        forks = _ForkRecorder(monkeypatch)
        usable_cpus(monkeypatch, 2)
        assert run_cli(capsys, "--jobs", "2", "density", "50")[0] == EXIT_OK
        assert forks.pool_sizes == [] and forks.pids == []
        assert run_cli(capsys, "--jobs", "2", "scan", "6")[0] == EXIT_OK
        assert forks.pool_sizes == [2] and len(forks.pids) == 2 and forks.all_reaped()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scan_streams_each_task_before_the_next_runs(self, monkeypatch, tmp_path, jobs):
        # Task 2 waits until the block of task 1 has been written, then logs
        # itself.  At jobs=1 it runs after task 1; with two real workers it
        # runs beside task 1.  Either way it is logged after that block only
        # if the scan writes task 1's block as soon as that task is back.
        forks = _ForkRecorder(monkeypatch)
        usable_cpus(monkeypatch, 2)
        log, marker = tmp_path / "events", tmp_path / "task-1-written"

        def spied(args, _fn=cli._scan_slice):
            if args[1] == 2:
                wait_for(marker)
            append_line(log, f"task {args[1]}")
            return _fn(args)

        def write(block):
            for a in {json.loads(line)["input"]["triple"][0] for line in block.splitlines()}:
                append_line(log, f"block {a}")
                if a == 1:
                    marker.touch()

        monkeypatch.setattr(cli, "_scan_slice", spied)
        run_scan(6, write, jobs=jobs)
        events = log.read_text().splitlines()
        assert events.index("block 1") < events.index("task 2")
        tasks = [e for e in events if e.startswith("task")]
        assert sorted(tasks) == [f"task {a}" for a in range(1, 7)]
        if jobs == 1:
            assert tasks == sorted(tasks)
        blocks = [int(e.split()[1]) for e in events if e.startswith("block")]
        assert blocks == sorted(blocks)
        assert forks.pool_sizes == [0 if jobs == 1 else 2] and forks.all_reaped()

    def test_forked_workers_classify_no_germ(self, monkeypatch, tmp_path):
        # The scan classifies its box's germs before it forks; the workers
        # inherit the records.  `hj_runs` runs for each germ classified.
        forks = _ForkRecorder(monkeypatch)
        usable_cpus(monkeypatch, 2)
        log = tmp_path / "pids"

        def logged(m, q, _fn=cqs.hj_runs):
            append_line(log, str(os.getpid()))
            return _fn(m, q)

        monkeypatch.setattr(cqs, "hj_runs", logged)
        wps._point_core.cache_clear()  # earlier tests warm it
        forked = scan_lines(20, jobs=2)
        assert forks.pool_sizes == [2] and len(forks.pids) == 2 and forks.all_reaped()
        pids = set(log.read_text().split())
        assert pids == {str(os.getpid())} and not pids & {str(pid) for pid in forks.pids}
        assert forked == scan_lines(20, jobs=1)

    def test_failing_write_exits_the_pool(self, monkeypatch):
        forks = _ForkRecorder(monkeypatch)
        usable_cpus(monkeypatch, 2)
        written = []

        def write(block):
            for a in {json.loads(line)["input"]["triple"][0] for line in block.splitlines()}:
                if a == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                written.append(a)

        with pytest.raises(OSError):
            run_scan(8, write, jobs=2)
        assert written and set(written) == {1}
        assert forks.pool_sizes == [2] and forks.all_reaped()

    def test_failing_write_leaves_no_worker_behind(self, monkeypatch):
        usable_cpus(monkeypatch, 2)

        def write(block):
            raise OSError(errno.ENOSPC, "No space left on device")

        with pytest.raises(OSError):
            run_scan(8, write, jobs=2)
        assert no_child_left()


def _padded(i):
    return f"{i:0100d}"


class TestForkedFanOut:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_many_tasks_come_back_complete_and_in_order(self, monkeypatch, workers):
        # Far more task indices, and result bytes, than a pipe buffer holds:
        # the feed must not fill up while the results wait to be read.  Three
        # workers are more than a 2-CPU machine runs at once.
        forks = _ForkRecorder(monkeypatch)
        usable_cpus(monkeypatch, workers)
        tasks = list(range(20_000))
        with pool.fan_out(_padded, tasks, workers) as results:
            assert list(results) == [_padded(t) for t in tasks]
        assert len(forks.pids) == workers and forks.all_reaped()

    def test_first_result_arrives_before_the_last_task_ends(self, monkeypatch, tmp_path):
        usable_cpus(monkeypatch, 2)
        marker, log = tmp_path / "first-result-seen", tmp_path / "events"

        def task(i):
            if i == 5:
                wait_for(marker)
                append_line(log, "last task ends")
            return [str(i)]

        with pool.fan_out(task, list(range(6)), 2) as results:
            for lines in results:
                if lines == ["0"]:
                    append_line(log, "first result")
                    marker.touch()
        assert log.read_text().splitlines() == ["first result", "last task ends"]
        assert no_child_left()

    def test_a_failing_task_fails_the_scan(self, monkeypatch, tmp_path, capfd):
        usable_cpus(monkeypatch, 2)

        def spied(args, _fn=cli._scan_slice):
            if args[1] == 3:
                raise ArithmeticError("task 3 broke")
            return _fn(args)

        monkeypatch.setattr(cli, "_scan_slice", spied)
        with pytest.raises(ChildProcessError, match="exited with status 1"):
            run_scan(8, lambda line: None, jobs=2)
        assert no_child_left()
        assert "ArithmeticError: task 3 broke" in capfd.readouterr().err

        target = tmp_path / "records.jsonl"
        target.write_text("previous run\n")
        code = main(["--jobs", "2", "scan", "8", "--out", str(target)])
        err = capfd.readouterr().err
        assert code == EXIT_IO_FAILURE and "error: scan worker" in err and "task 3 broke" in err
        assert target.read_text() == "previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]
        assert no_child_left()

    @pytest.mark.skipif(
        len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
        reason="fewer than 2 usable CPUs: the scan forks no worker",
    )
    def test_ctrl_c_prints_one_traceback_and_leaves_no_worker(self):
        # Ctrl-C sends SIGINT to the whole foreground process group: here,
        # the group of a scan started in its own session, sent once its first
        # record is out and both workers are busy.
        proc = subprocess.Popen(
            [sys.executable, "-m", "degenscope", "--jobs", "2", "scan", "100"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            assert json.loads(proc.stdout.readline())["command"] == "scan-record"
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert proc.returncode != 0
        assert err.count("Traceback (most recent call last):") == 1, err
        assert err.splitlines().count("KeyboardInterrupt") == 1, err
        with pytest.raises(ProcessLookupError):  # no process of the group is left
            os.killpg(proc.pid, 0)


class TestStartup:
    def test_cli_start_loads_neither_dataclasses_nor_multiprocessing(self):
        # Nor `select` or `signal`, which only the forked fan-out imports.
        banned = ("dataclasses", "multiprocessing", "select", "signal")
        assert over_budget(sys.executable, ("cqs", "1", "1", "1"), banned) == ""

    def test_scan_with_two_jobs_forks_a_real_pool(self, capsys, monkeypatch):
        forks = _ForkRecorder(monkeypatch)
        usable_cpus(monkeypatch, 2)
        code, out, _ = run_cli(capsys, "--jobs", "2", "--quiet", "scan", "6")
        assert code == EXIT_OK and out == ""
        assert forks.pool_sizes == [2] and len(forks.pids) == 2 and forks.all_reaped()


@pytest.mark.parametrize("argv", [["frobnicate"], ["markov", "frobnicate"]])
def test_unknown_command_exits_2(capsys, argv):
    # Both subcommand groups are required choices: argparse rejects any
    # other name before a handler runs.
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


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


# Leaves of the envelope payload types, with the cases a hand-written
# encoder gets wrong: negative and beyond-64-bit ints, bools beside ints,
# and strings with quotes, backslashes, control and non-BMP characters.
JSON_LEAVES = (
    st.integers(-(2**70), 2**70)
    | st.sampled_from([0, -1, 2**64, 2**64 + 1, -(2**64)])
    | st.booleans()
    | st.none()
    | st.text(st.characters(codec="utf-8") | st.sampled_from('"\\\x00\x1f\x7f\n\t\U0001f600'))
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=5)
    | st.lists(kids, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=5), kids, max_size=5),
    max_leaves=40,
)


B = cli._CHAIN_BLOCK  # entries per shared block of a written chain run


def indent2_oracle(obj):
    return json.dumps(obj, ensure_ascii=False, indent=2)


class TestPrettyWriter:
    """`dumps_envelope` writes the bytes of `json.dumps(..., indent=2)`."""

    @given(JSON_TREES)
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def test_matches_json_dumps(self, obj):
        assert dumps_envelope(obj) == indent2_oracle(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            (1, True),
            [True, 2],
            {"a": [False, 0, 1, True]},
            [[], {}, [[]], {"x": {}}, [{}]],
            {"": [], "e": {}},
            [2**64, -(2**64), 0],
            [],
            {},
        ],
    )
    def test_explicit_cases(self, obj):
        assert dumps_envelope(obj) == indent2_oracle(obj)

    def test_long_du_val_chain_at_depth_3(self):
        chain = (2,) * 10**5
        env = {"result": {"point": {"chain": chain, "dual_chain": list(chain)}}}
        assert dumps_envelope(env) == indent2_oracle(env)

    @pytest.mark.parametrize("a", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, B - 1, B, B + 1, 2 * B + 1])
    def test_chain_runs_across_the_block_size(self, a, k):
        # A run is written from whole shared blocks plus the rest; these
        # lengths put the rest at every edge, at entry indents 1 to 3.
        for runs in (((a, k),), ((a, k), (5, 1), (2, k)), ((4, 2), (a, k), (3, B))):
            chain, dual = cli.ChainRuns(runs), cli.ChainRuns(runs[::-1])
            for env in (chain, [chain, dual], {"point": {"chain": chain, "dual_chain": dual}}):
                assert dumps_envelope(env) == indent2_oracle(plain(env))

    def test_du_val_chain_is_copied_once(self):
        # The peak is the one join of the pieces: a run is not first built
        # as a string of its own.
        m = 10**6
        payload = cli._cmd_cqs(SimpleNamespace(m=m, w1=1, w2=m - 1, bound=None))
        env = cli.make_envelope("cqs", {}, payload, [])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = dumps_envelope(env)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(out) > 18 * 10**6
        assert peak <= 1.1 * len(out) + 2**20

    @pytest.mark.parametrize(
        "leaf",
        [
            1.5,
            Fraction(1, 2),
            float("nan"),
            object(),
            # Value objects are tuples, but never JSON arrays.
            cqs.CqsGerm(5, 1, 2),
            wps.degeneration_verdict(wps.WpsTriple(1, 3, 4)),
        ],
    )
    def test_other_types_raise(self, leaf):
        # The compact C encoder writes floats and tuple subclasses as JSON
        # (no payload holds either); any other type raises there too, and so
        # does a ChainRuns, which only the pretty writer takes.
        compact_too = not isinstance(leaf, (float, tuple))
        chain = cli.ChainRuns(((2, 3),))
        for obj in (leaf, [leaf], [1, leaf], {"a": leaf}, (leaf,), [chain, leaf], {"c": chain, "x": leaf}):
            for compact in (False, True) if compact_too else (False,):
                with pytest.raises(TypeError, match="is not JSON serializable"):
                    dumps_envelope(obj, compact=compact)

    def test_compact_mode_takes_no_chain_runs(self):
        chain = cli.ChainRuns(((2, 3),))
        for obj in (chain, [chain], {"chain": chain}):
            with pytest.raises(TypeError, match="ChainRuns is not JSON serializable"):
                dumps_envelope(obj, compact=True)

    def test_non_str_keys_raise(self):
        # Payload keys are all str; json.dumps would coerce these silently.
        for key in (1, None, True):
            with pytest.raises(TypeError):
                dumps_envelope({"ok": {key: 0}})


def plain(obj):
    """`obj` with each `ChainRuns` replaced by the list of its entries."""
    if type(obj) is cli.ChainRuns:
        return [a for a, k in obj.runs for _ in range(k)]
    if type(obj) is dict:
        return {key: plain(value) for key, value in obj.items()}
    if type(obj) in (list, tuple):
        return [plain(item) for item in obj]
    return obj


class TestChainRunsWriter:
    """A chain held as runs writes the bytes `json` writes for its entries."""

    @staticmethod
    def check(env):
        assert dumps_envelope(env) == indent2_oracle(plain(env))

    def test_every_germ_to_200(self):
        germs = [(1, 0)] + [(m, q) for m in range(2, 201) for q in range(1, m) if gcd(m, q) == 1]
        for m, q in germs:
            args = SimpleNamespace(m=m, w1=1, w2=q, bound=None)
            payload = cli._cmd_cqs(args)
            assert type(payload["chain"]) is cli.ChainRuns
            self.check(cli.make_envelope("cqs", vars(args), payload, []))

    @pytest.mark.parametrize(
        "runs",
        [
            ((2, 10**5 - 1),),
            ((3, 1), (2, 10**5)),
            ((3, 1), (2, 1)),
            ((3, 1),),
            cqs.hj_runs(*cqs.wahl(3000, 1447)),
            cqs.hj_runs(*cqs.wahl(97, 40)),
            (),
        ],
    )
    def test_long_chains_at_every_depth(self, runs):
        chain, dual = cli.ChainRuns(runs), cli.ChainRuns(runs[::-1])
        for env in (
            chain,
            [chain, dual],
            {"chain": chain, "dual_chain": dual},
            {"result": {"points": [{"chain": chain, "dual_chain": dual, "mu": None}]}},
        ):
            self.check(env)

    def test_wps_point_payloads(self):
        for weights in ((1, 1000, 1001), (4, 25, 841), (169, 1156, 1755625), (2, 4, 5)):
            report = wps.analyze(wps.WpsTriple(*weights))
            self.check(cli.make_envelope("wps", {}, cli.wps_payload(report), []))


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        proc = exit_cases.spawn(
            sys.executable, ["-m", "degenscope", "cqs", "4", "1", "1"], str(tmp_path), capture_output=True
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        env = json.loads(proc.stdout)
        assert env["result"]["chain"] == [4] and env["result"]["wahl"]

    def test_package_and_cli_module_print_the_same_bytes(self, tmp_path):
        assert exit_cases.cli_module(sys.executable, str(tmp_path)) == ""

    def test_script_target_is_run(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts == {"degenscope": "degenscope.cli:run"}


# Small and edge integers: orders up to 10^4 for germs, planes and Markov
# bounds, box sizes up to 30 for density and scan, --jobs up to 2.
EDGE = st.sampled_from([0, -1, -7, 1, 2, 3])
ORDER, BOX, JOBS = 10**4, 30, 2


@st.composite
def cli_argv(draw, out_dir):
    # One argv in three takes edge values throughout (zero, negatives, a bad
    # --jobs, format flags a command rejects); the rest keep to valid ranges
    # so most commands get past argument checking and do their work.
    edge = draw(st.integers(0, 2)) == 2

    def num(hi):
        if edge:
            return str(draw(EDGE | st.integers(-3, hi)))
        return str(draw(st.integers(1, min(hi, 40)) | st.integers(1, hi)))

    command = draw(st.sampled_from(["cqs", "wps", "markov", "density", "scan"]))
    if command == "cqs":
        args = ["cqs", num(ORDER), num(ORDER), num(ORDER)]
        if draw(st.booleans()):
            args += ["--bound", num(ORDER)]
    elif command == "wps":
        args = ["wps", num(ORDER), num(ORDER), num(ORDER)]
    elif command == "markov":
        sub = draw(st.sampled_from(["classic", "gen", "degenerations", "candidates"]))
        names = {"classic": ["--bound"], "gen": ["--n", "--bound"],
                 "degenerations": ["--n", "--bound"], "candidates": ["--n", "--x", "--y"]}[sub]  # fmt: skip
        args = ["markov", sub]
        for name in names:
            args += [name, num(ORDER)]
    elif command == "density":
        args = ["density", *(num(BOX) for _ in range(draw(st.integers(1, 3))))]
    else:
        args = ["scan", num(BOX)]
        out = draw(st.sampled_from([None, "records.out", os.path.join("missing", "records.out")]))
        if out is not None:
            args += ["--out", os.path.join(out_dir, out)]
    if edge:
        formats = ["--json", "--csv"]
    else:
        formats = ["--csv"] if command in ("density", "scan") else ["--json"]
    flags = [f for f in (*formats, "--quiet", "--explain") if draw(st.booleans())]
    flags += ["--jobs", num(JOBS)]
    return flags + args if draw(st.booleans()) else args + flags


class TestFuzz:
    def test_cli_never_raises(self):
        with tempfile.TemporaryDirectory() as out_dir:

            @settings(derandomize=True, max_examples=300, deadline=None, database=None)
            @given(cli_argv(out_dir))
            def check(argv):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse rejects the argv
                        code = exc.code
                assert code in (EXIT_OK, EXIT_INVALID_INPUT, EXIT_IO_FAILURE), (argv, code)
                assert "Traceback" not in stderr.getvalue()

            check()
