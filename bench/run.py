#!/usr/bin/env python3
"""degenscope benchmark: four CLI workloads, checked outputs, end-to-end
metrics, and a per-module trace taken from outside the program.

    python3 bench/run.py --workload scan_box --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload scan_box --seed 1 --seconds 30 --trace 1

`--trace 0` runs the workload's commands as fresh `python -m degenscope`
processes, one at a time, in passes until `--seconds` is used up, checks
every output, and reports the end-to-end metrics.  `--trace 1` runs each
command once in-process under bench/trace_main.py and reports the
per-layer metrics.  The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a full results file with a
machine block goes to .bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import gcd, isqrt
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DIGESTS_FILE = BENCH / "digests.json"

sys.path.insert(0, str(BENCH))
from trace_main import ALL_SPANS, CACHES, TRACED  # noqa: E402

MLD_CAP = 10**8  # the CLI's default brute-force mld order cap
COMMAND_TIMEOUT_S = 150
SETUP_SAMPLES = 9
SETUP_ARGV = ["cqs", "1", "1", "1"]
# Median wall of bench/reference.py on the machine of the README baselines;
# it only sets the scale of the times reported at the reference speed.
REFERENCE_S = 0.15
REFERENCE_EVERY_S = 1.0  # command wall time per reference probe

SCAN_N = 60
DENSITY_SIZES = (400, 500)
WAHL_N, WAHL_A = 3000, 1447  # Wahl germ 1/n^2(1, n*a - 1), order 9*10^6
DU_VAL_M = 500_000  # A_{m-1}: chain [2]*(m-1), one JSON line per entry
MARKOV_PLANES = (  # squares of the Markov triples (13,34,1325) and (5,194,2897)
    (169, 1156, 1755625),
    (25, 37636, 8392609),
)
DEGENERATIONS = ((3, 10000), (5, 3000))  # (n, bound) for markov degenerations

SCAN_OUT = ".bench_out/tmp/scan.out"


# ---------------------------------------------------------------------------
# commands and their checks


@dataclass
class Command:
    """One CLI invocation and how to check what it printed and wrote."""

    argv: list[str]
    check: Callable[["Command", bytes, bytes | None], list[str]]
    key: str = ""  # digest key; defaults to the argv
    out: str | None = None  # file the command writes with --out
    canon: Callable[[bytes], tuple[bytes, list[str]]] | None = None
    expect: dict = field(default_factory=dict)  # oracle inputs for the check

    def __post_init__(self) -> None:
        self.key = self.key or " ".join(self.argv)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.cache
def recorded_digests() -> dict[str, dict[str, str]]:
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def digest_problems(cmd: Command, stdout: bytes, out: bytes | None) -> list[str]:
    """Byte-for-byte comparison with the digests bench/record_digests.py recorded."""
    want = recorded_digests().get(cmd.key)
    if want is None:
        return [f"{cmd.key}: no recorded digest"]
    problems = []
    body = stdout
    if cmd.canon is not None:
        body, echo_problems = cmd.canon(stdout)
        problems += echo_problems
    if sha256(body) != want["stdout"]:
        problems.append(f"{cmd.key}: stdout differs from the recorded bytes")
    if cmd.out is not None and (out is None or sha256(out) != want["out"]):
        problems.append(f"{cmd.key}: --out file differs from the recorded bytes")
    return problems


def frac_text(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def coprime_triples(N: int) -> list[tuple[int, int, int]]:
    """Oracle: pairwise-coprime sorted triples a <= b <= c <= N in lexicographic order."""
    return [
        (a, b, c)
        for a in range(1, N + 1)
        for b in range(a, N + 1)
        if gcd(a, b) == 1
        for c in range(b, N + 1)
        if gcd(a, c) == 1 and gcd(b, c) == 1
    ]


def scan_rows(out: bytes, csv_format: bool) -> list[tuple[str, ...]]:
    """Records reduced to the fields JSON and CSV share: a,b,c,verdict,reasons,mld,k2."""
    text = out.decode("utf-8")
    if csv_format:
        rows = list(csv.reader(io.StringIO(text)))
        if rows[:1] != [["a", "b", "c", "verdict", "reasons", "mld", "k2"]]:
            raise ValueError("unexpected CSV header")
        return [tuple(r) for r in rows[1:]]
    rows = []
    for line in text.splitlines():
        rec = json.loads(line)["result"]
        rows.append(
            (
                *map(str, rec["triple"]),
                rec["verdict"],
                ";".join(r["kind"] for r in rec["reasons"]),
                rec["mld"],
                rec["k2"],
            )
        )
    return rows


def check_scan(cmd: Command, stdout: bytes, out: bytes | None) -> list[str]:
    expected = cmd.expect["triples"]
    summary = json.loads(stdout)
    problems = []
    if summary["result"]["well_formed_records"] != len(expected):
        problems.append(f"{cmd.key}: well_formed_records is not {len(expected)}")
    rows = scan_rows(out or b"", cmd.expect["csv"])
    if [tuple(map(int, r[:3])) for r in rows] != expected:
        problems.append(f"{cmd.key}: records are not the coprime triples of the box in order")
        return problems
    bad_k2 = bad_a = 0
    for (a, b, c), row in zip(expected, rows):
        bad_k2 += row[6] != frac_text(Fraction((a + b + c) ** 2, a * b * c))
        in_a = (b + c) % a == 0 or (a + c) % b == 0 or (a + b) % c == 0
        bad_a += in_a != ("in_family_a" in row[4].split(";"))
    if bad_k2 or bad_a:
        problems.append(f"{cmd.key}: {bad_k2} records with a wrong K^2, {bad_a} with a wrong family A flag")
    projection = sha256("\n".join(",".join(r) for r in rows).encode())
    if projection != recorded_digests()["scan-projection"]["stdout"]:
        problems.append(f"{cmd.key}: records disagree with the JSON/CSV common-field projection")
    return problems


def check_density(cmd: Command, stdout: bytes, out: bytes | None) -> list[str]:
    censuses = json.loads(stdout)["result"]["censuses"]
    problems = []
    if [c["N"] for c in censuses] != list(DENSITY_SIZES):
        problems.append(f"{cmd.key}: censuses are not for N in {DENSITY_SIZES}")
    for c in censuses:
        if c["ratio"] != frac_text(Fraction(c["count_S"], c["N"] ** 3)):
            problems.append(f"{cmd.key}: ratio at N={c['N']} is not count_S/N^3")
        if not c["count_A"] <= c["count_S"] <= c["count_A"] + c["count_B1"] + c["count_B2"] + c["count_B3"]:
            problems.append(f"{cmd.key}: count_S at N={c['N']} is outside [A, A+B1+B2+B3]")
    return problems


def hj_value(chain: list[int]) -> tuple[int, int]:
    m, q = 1, 0
    for a in reversed(chain):
        m, q = a * m - q, m
    return m, q


def check_cqs(cmd: Command, stdout: bytes, out: bytes | None) -> list[str]:
    r = json.loads(stdout)["result"]
    m, q, mld = cmd.expect["m"], cmd.expect["q"], cmd.expect["mld"]
    problems = []
    if r["normalized"] != {"m": m, "q": q}:
        problems.append(f"{cmd.key}: normal form is not 1/{m}(1,{q})")
    if hj_value(r["chain"]) != (m, q) or r["dual_chain"] != r["chain"][::-1]:
        problems.append(f"{cmd.key}: HJ chain is not {m}/{q} or dual_chain is not its reversal")
    if r["mld"] != frac_text(mld):
        problems.append(f"{cmd.key}: mld is not {frac_text(mld)}")
    return problems


def check_wps(cmd: Command, stdout: bytes, out: bytes | None) -> list[str]:
    r = json.loads(stdout)["result"]
    weights = cmd.expect["weights"]
    largest = isqrt(max(weights))
    problems = []
    if r["weights"] != list(weights) or not r["well_formed"]:
        problems.append(f"{cmd.key}: weights are not echoed as a well-formed plane")
    # P(x^2,y^2,z^2) for a Markov triple: K^2 = 9, Noether holds, mld = 1/z.
    if r["k2"] != "9" or r["noether"] != {"lhs": "12", "lhs_decimal": "12", "holds": True}:
        problems.append(f"{cmd.key}: K^2 is not 9 or the Noether check does not hold")
    if r["mld"] != f"1/{largest}":
        problems.append(f"{cmd.key}: mld is not 1/{largest}")
    if r["verdict"]["outcome"] != "NoNontrivialDegenerations":
        problems.append(f"{cmd.key}: a Markov-square plane did not get NoNontrivialDegenerations")
    return problems


def gen_chain(n: int, bound: int) -> list[tuple[int, int]]:
    """Oracle: the solutions (x,y) of n + x^2 + y^2 = (n+2)xy with y <= bound."""
    out, x, y = [], 1, 1
    while y <= bound:
        out.append((x, y))
        x, y = y, (n + 2) * y - x
    return out


def check_degenerations(cmd: Command, stdout: bytes, out: bytes | None) -> list[str]:
    r = json.loads(stdout)["result"]
    n, bound = cmd.expect["n"], cmd.expect["bound"]
    want = [[x * x, y * y, n] for x, y in gen_chain(n, bound)]
    if [p["weights"] for p in r["planes"]] != want:
        return [f"{cmd.key}: planes are not P(x^2,y^2,{n}) over the solution chain"]
    return []


def check_setup(cmd: Command, stdout: bytes, out: bytes | None) -> list[str]:
    r = json.loads(stdout)["result"]
    return [] if r["smooth"] and r["mld"] == "2" else [f"{cmd.key}: 1/1 is not a smooth point"]


def echo_canon(w1: int, w2: int) -> Callable[[bytes], tuple[bytes, list[str]]]:
    """The seeded units appear only in the input echo and the germ block;
    check them there and blank them so one digest covers every seed."""
    pattern = re.compile(rb'"(w1|w2)": (\d+)')
    want = {b"w1": w1, b"w2": w2}

    def canon(stdout: bytes) -> tuple[bytes, list[str]]:
        seen = pattern.findall(stdout[:1024])
        problems = []
        if sorted(seen) != sorted([(b"w1", str(w1).encode()), (b"w2", str(w2).encode())] * 2):
            problems.append(f"echoed units {seen} are not w1={w1}, w2={w2}")
        body = pattern.sub(lambda mt: b'"' + mt.group(1) + b'": 0', stdout[:1024], count=4)
        return body + stdout[1024:], problems

    return canon


def random_unit(rng: random.Random, m: int) -> int:
    while True:
        u = rng.randrange(1, m)
        if gcd(u, m) == 1:
            return u


# ---------------------------------------------------------------------------
# workloads


def scan_commands(jobs: int, csv_format: bool) -> list[Command]:
    argv = ["--jobs", str(jobs)] + (["--csv"] if csv_format else []) + ["scan", str(SCAN_N), "--out", SCAN_OUT]
    triples = coprime_triples(SCAN_N)
    return [Command(argv, check_scan, out=SCAN_OUT, expect={"triples": triples, "csv": csv_format})]


def density_commands(jobs: int) -> list[Command]:
    return [Command(["--jobs", str(jobs), "density", *map(str, DENSITY_SIZES)], check_density)]


def large_germ_commands(seed: int, perms: tuple[int, ...] | None = None) -> list[Command]:
    """Seeded inputs of fixed cost: the seed picks the units of the two
    germs and the order of each plane's weights, never an order or a bound."""
    rng = random.Random(seed)
    cmds = []
    for label, m, q, mld in (
        ("wahl", WAHL_N**2, WAHL_N * WAHL_A - 1, Fraction(1, WAHL_N)),
        ("du_val", DU_VAL_M, DU_VAL_M - 1, Fraction(1)),
    ):
        w1 = random_unit(rng, m)
        w2 = w1 * q % m
        if not (1 < m <= MLD_CAP and gcd(w2, m) == 1 and pow(w1, -1, m) * w2 % m == q):
            raise ValueError(f"generated germ 1/{m}({w1},{w2}) is not 1/{m}(1,{q}) under the mld cap")
        cmds.append(
            Command(
                ["cqs", str(m), str(w1), str(w2)],
                check_cqs,
                key=f"cqs {label} 1/{m}(1,{q})",
                canon=echo_canon(w1, w2),
                expect={"m": m, "q": q, "mld": mld},
            )
        )
    orders = list(permutations(range(3)))
    for i, plane in enumerate(MARKOV_PLANES):
        order = orders[perms[i] if perms else rng.randrange(6)]
        weights = tuple(plane[j] for j in order)
        a, b, c = weights
        if gcd(a, b) != 1 or gcd(a, c) != 1 or gcd(b, c) != 1 or max(weights) > MLD_CAP:
            raise ValueError(f"P{weights} is not a well-formed plane under the mld cap")
        cmds.append(Command(["wps", *map(str, weights)], check_wps, expect={"weights": weights}))
    for n, bound in DEGENERATIONS:
        if max(y for _, y in gen_chain(n, bound)) ** 2 > MLD_CAP:
            raise ValueError(f"markov degenerations --n {n} --bound {bound} exceeds the mld cap")
        cmds.append(
            Command(
                ["markov", "degenerations", "--n", str(n), "--bound", str(bound)],
                check_degenerations,
                expect={"n": n, "bound": bound},
            )
        )
    return cmds


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, int | None], list[Command]]  # (seed, jobs or None for the default)
    pool_span: str | None  # the pool entry point timed for cli.pool.*
    expected: tuple[str, ...]  # spans that must record calls when traced


SCAN_SPANS = (
    "cqs.normalize", "cqs.hj_expand", "cqs.classify_t", "cqs.is_qg_rigid",
    "cqs.gorenstein_index", "cqs.basket_membership", "cqs.mld_normalized",
    "cqs.mld_less_than", "wps.singular_points", "wps.k2", "wps.wps_mld",
    "wps.wps_mld_below", "wps.family_A_member", "wps.family_B_member",
    "wps.degeneration_verdict", "density.census", "density.family_b_ordered",
    "density.family_b_param_instances", "density.family_a_contains", "cli.main",
    "cli.run_scan", "cli.dumps_envelope", "cli.reason_payload",
    "cli.census_payload", "cli.frac_fields",
)  # fmt: skip

# Why each workload exists (bench/README.md has the full map):
# scan_box: ~10^4 small planes whose germs repeat, so wps, the point cache
#   and per-record JSON do the work; the single-process scan baseline.
# scan_parallel: the same records through the fork pool and the CSV writer,
#   the only workload with pool fan-out and merge.
# density_census: the O(N^2) census; never touches cqs or wps.
# large_germs: Theta(m) mld scans and long chains with no cache reuse.
WORKLOADS: dict[str, Workload] = {
    "scan_box": Workload(
        build=lambda seed, jobs: scan_commands(jobs or 1, csv_format=False),
        pool_span="cli.run_scan",
        expected=SCAN_SPANS + ("cli.record_envelope",),
    ),
    "scan_parallel": Workload(
        build=lambda seed, jobs: scan_commands(jobs or 2, csv_format=True),
        pool_span="cli.run_scan",
        expected=SCAN_SPANS,
    ),
    "density_census": Workload(
        build=lambda seed, jobs: density_commands(jobs or 1),
        pool_span="density.census",
        expected=(
            "density.census", "density.family_b_ordered", "density.family_b_param_instances",
            "density.family_a_contains", "cli.main", "cli.census_payload",
            "cli.frac_fields", "cli.dumps_envelope",
        ),  # fmt: skip
    ),
    "large_germs": Workload(
        build=lambda seed, jobs: large_germ_commands(seed),
        pool_span=None,
        expected=tuple(
            s for s in ALL_SPANS if not s.startswith("density.")
            and s not in ("cli.run_scan", "cli.record_envelope", "cli.census_payload")
        ),  # fmt: skip
    ),
}


# ---------------------------------------------------------------------------
# running commands


@dataclass
class Run:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    out: bytes | None


def cli_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEGENSCOPE_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], tmp: Path, out: str | None) -> Run:
    """Run one process with stdout to a file; wall from spawn to reap, CPU
    and peak RSS from wait4 (they include the reaped pool workers)."""
    if out is not None:
        (ROOT / out).unlink(missing_ok=True)
    stdout_path, stderr_path = tmp / "stdout", tmp / "stderr"
    with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, cwd=ROOT, env=cli_env(), start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the command and reap it
            kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    out_bytes = (ROOT / out).read_bytes() if out is not None and (ROOT / out).exists() else None
    return Run(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        stdout=stdout_path.read_bytes(),
        stderr=stderr_path.read_bytes(),
        out=out_bytes,
    )


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_cli(cmd: Command, tmp: Path) -> Run:
    return run_process([sys.executable, "-m", "degenscope", *cmd.argv], tmp, cmd.out)


def check_run(cmd: Command, run: Run) -> list[str]:
    if run.exit_code != 0:
        tail = run.stderr.decode(errors="replace").strip().splitlines()[-1:] or ["no stderr"]
        return [f"{cmd.key}: exit code {run.exit_code}: {tail[0]}"]
    try:
        return digest_problems(cmd, run.stdout, run.out) + cmd.check(cmd, run.stdout, run.out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{cmd.key}: output could not be checked: {exc!r}"]


class Tally:
    """Commands attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


# ---------------------------------------------------------------------------
# end-to-end measurement


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"n={n}: fewer than 20 samples, no tail percentile above the median"
    p = 100 * (n - 10) // n
    return f"p{p}={sorted(values)[n - 11]:.4f} s (n={n}, 10 samples beyond)"


def reference_probe(tmp: Path, tally: Tally) -> float:
    """Wall time of one fresh bench/reference.py process; a wrong checksum
    counts as a failed command."""
    run = run_process([sys.executable, str(BENCH / "reference.py")], tmp, None)
    if run.exit_code != 0 or run.stdout.decode().strip() != reference_checksum():
        tally.add([f"reference probe: exit code {run.exit_code}, output {run.stdout[:80]!r}"])
    return run.wall_s


@functools.cache
def reference_checksum() -> str:
    import reference

    return reference.job()


def measure(workload: Workload, seed: int, seconds: int, tmp: Path, tally: Tally) -> dict:
    setup_cmd = Command(SETUP_ARGV, check_setup)
    commands = workload.build(seed, None)
    warm = run_cli(setup_cmd, tmp)  # writes bytecode caches; not timed
    tally.add(check_run(setup_cmd, warm))
    reference_probe(tmp, tally)

    setup: list[float] = []
    reference: list[float] = []
    passes: list[dict] = []
    start = time.perf_counter()
    last = 0.0  # duration of the last iteration: probes, pass and checks
    last_wall: dict[int, float] = {}  # each command's last wall time
    # An iteration starts only if one as long as the last would still fit.
    while not passes or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        # Probes are spread over the run, so a slow spell of the machine
        # weighs on them as much as on the commands they sit between.
        reference.append(reference_probe(tmp, tally))
        run = run_cli(setup_cmd, tmp)
        tally.add(check_run(setup_cmd, run))
        setup.append(run.wall_s)
        p = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "records": 0, "scan_wall_s": 0.0}
        for i, cmd in enumerate(commands):
            # About one probe per second the command took last time, so a
            # long command's share of the host's slow spells is sampled as
            # densely as a short one's.
            for _ in range(max(1, round(last_wall.get(i, 0.0) / REFERENCE_EVERY_S))):
                reference.append(reference_probe(tmp, tally))
            run = run_cli(cmd, tmp)
            last_wall[i] = run.wall_s
            p["wall_s"] += run.wall_s
            p["cpu_s"] += run.cpu_s
            p["peak_rss_mb"] = max(p["peak_rss_mb"], run.peak_rss_mb)
            problems = check_run(cmd, run)
            tally.add(problems)
            if cmd.check is check_scan and not problems:
                p["records"] += len(cmd.expect["triples"])
                p["scan_wall_s"] += run.wall_s
        passes.append(p)
        last = time.perf_counter() - began
    while len(setup) < SETUP_SAMPLES:
        reference.append(reference_probe(tmp, tally))
        run = run_cli(setup_cmd, tmp)
        tally.add(check_run(setup_cmd, run))
        setup.append(run.wall_s)

    walls = [p["wall_s"] for p in passes]
    cpus = [p["cpu_s"] for p in passes]
    # Times at the reference speed: the run's time scaled by how much slower
    # or faster than REFERENCE_S the reference probe ran meanwhile.  The host
    # flips between a fast and a slow state, often within one probe, and only
    # a mean follows the share of time spent slow.  So pass times are
    # averaged like the probes, and the ratio of the two averages cancels
    # the machine's speed; a median pass would not.
    speed = REFERENCE_S / statistics.mean(reference)
    metrics = {
        "wall_ref_s": (statistics.mean(walls) * speed, "s"),
        "setup_s": (statistics.median(setup) * speed, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "cpu_ref_s": (statistics.mean(cpus) * speed, "s"),
    }
    # The raw medians, as a user on this machine saw them.
    extra: dict = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_raw_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
    }
    extra["reference_probe_s"] = (statistics.mean(reference), "s")
    extra["wall_s_tail"] = tail_percentile(walls)
    if passes[0]["records"]:
        rates = [p["records"] / p["scan_wall_s"] for p in passes if p["scan_wall_s"]]
        extra["records_per_s"] = (statistics.median(rates), "1/s")
    return {
        "metrics": metrics,
        "extra": extra,
        "samples": {"passes": passes, "setup_s": setup, "reference_s": reference},
        "inputs": [c.argv for c in commands],
    }


# ---------------------------------------------------------------------------
# traced run


def run_traced(cmd: Command, spans: str, tmp: Path, tally: Tally) -> tuple[Run, dict]:
    stats_path = tmp / "stats.json"
    stats_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "trace_main.py"), "--spans", spans, "--stats", str(stats_path), "--", *cmd.argv]
    run = run_process(argv, tmp, cmd.out)
    tally.add(check_run(cmd, run))
    stats = json.loads(stats_path.read_text()) if stats_path.exists() else {"main_s": 0.0, "functions": {}, "caches": {}}
    return run, stats


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace(workload: Workload, seed: int, tmp: Path, tally: Tally) -> dict:
    """Traced pass at --jobs 1, untraced reference at --jobs 1, and the
    pool entry point at --jobs 2, each command in a fresh interpreter."""
    commands = workload.build(seed, 1)
    traced = [run_traced(c, "all", tmp, tally) for c in commands]
    light1 = [run_traced(c, "light", tmp, tally)[1] for c in commands]
    light2 = []
    if workload.pool_span is not None:
        light2 = [run_traced(c, "light", tmp, tally)[1] for c in workload.build(seed, 2)]

    funcs: dict[str, dict[str, float]] = {s: {"calls": 0, "self_s": 0.0} for s in ALL_SPANS}
    caches: dict[str, list[int]] = {}
    for _, stats in traced:
        for name, agg in stats["functions"].items():
            funcs[name]["calls"] += agg["calls"]
            funcs[name]["self_s"] += agg["self_s"]
        for name, (hits, misses) in stats["caches"].items():
            acc = caches.setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses

    metrics: dict[str, tuple[float, str]] = {}
    for name in ALL_SPANS:
        metrics[f"{name}.calls"] = (funcs[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (funcs[name]["self_s"], "s")
    for layer in TRACED:
        metrics[f"layer.{layer}.self_s"] = (
            sum(funcs[f"{layer}.{fn}"]["self_s"] for fn in TRACED[layer]),
            "s",
        )
    traced_wall = sum(run.wall_s for run, _ in traced)
    main_s = sum(stats["main_s"] for _, stats in traced)
    metrics["layer.outside_main_s"] = (traced_wall - main_s, "s")
    for name in CACHES:
        hits, misses = caches.get(name, (0, 0))
        metrics[f"{name}.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    metrics["wps.singular_points.per_plane"] = (
        ratio(funcs["wps.singular_points"]["calls"], funcs["wps.degeneration_verdict"]["calls"]),
        "calls/plane",
    )
    speedup = 0.0
    if light2:
        span = workload.pool_span
        speedup = ratio(
            sum(s["functions"].get(span, {}).get("self_s", 0.0) for s in light1),
            sum(s["functions"].get(span, {}).get("self_s", 0.0) for s in light2),
        )
    metrics["cli.pool.speedup"] = (speedup, "ratio")
    metrics["cli.pool.efficiency"] = (speedup / 2, "ratio")
    metrics["trace.overhead_ratio"] = (ratio(main_s, sum(s["main_s"] for s in light1)), "ratio")

    # The trace's own accounting counts as one more checked item.
    layer_sum = sum(metrics[f"layer.{layer}.self_s"][0] for layer in TRACED)
    problems = [f"span {name} recorded no calls on this workload" for name in workload.expected if funcs[name]["calls"] == 0]
    if abs(layer_sum - main_s) > 1e-3 + 1e-3 * main_s:
        problems.append(f"layer self times sum to {layer_sum:.6f} s, not the cli.main span {main_s:.6f} s")
    tally.add(problems)
    return {
        "metrics": metrics,
        "extra": {},
        "samples": {
            "traced_wall_s": traced_wall,
            "main_s": main_s,
            "edges": [e for _, stats in traced for e in stats.get("edges", [])],
        },
        "inputs": [c.argv for c in commands],
    }


# ---------------------------------------------------------------------------
# results


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_block() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "loadavg_before": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="degenscope benchmark (see bench/README.md)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running command is killed and reaped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    if not (SRC / "degenscope" / "cli.py").is_file():
        print(f"error: no degenscope sources under {SRC}", file=sys.stderr)
        return 2
    try:
        recorded_digests()
        WORKLOADS[args.workload].build(args.seed, None)  # validates the seeded inputs
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    machine = machine_block()
    workload = WORKLOADS[args.workload]
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        if args.trace:
            result = trace(workload, args.seed, tmp, tally)
        else:
            result = measure(workload, args.seed, args.seconds, tmp, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    machine["loadavg_after"] = list(os.getloadavg())

    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": error_rate,
        "problems": tally.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "extra": result["extra"],
        "inputs": result["inputs"],
        "samples": result["samples"],
    }
    results_path = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    results_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} ({machine['nproc']} CPUs, load {machine['loadavg_before'][0]:.2f})")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:42s} {value:.6g} {unit}")
    for name, value in result["extra"].items():
        text = f"{value[0]:.6g} {value[1]}" if isinstance(value, tuple) else value
        print(f"  {name:42s} {text}")
    print(f"  {'error_rate':42s} {error_rate:.6g} ({tally.failed} of {tally.attempted} commands failed)")
    print(f"  results: {results_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
