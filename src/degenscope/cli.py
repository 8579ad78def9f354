"""Command-line front end: singularity reports, plane verdicts, mutation
censuses, density counts, and a parallel box scan.

Output is deterministic: identical inputs give byte-identical output, and
the scan result never depends on the worker count.  Rational values are
serialized as exact "p/q" strings with an advisory decimal field; floats
never appear in payloads.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import marshal
import os
import sys
from fractions import Fraction
from itertools import chain as concat, repeat, starmap
from json.encoder import encode_basestring
from math import gcd
from types import SimpleNamespace
from typing import Any, NoReturn

from . import cqs, density, markov, wps
# `normalize` is unused here; kept bound because bench/test_bench.py checks
# that the benchmark's trace patches cli.normalize.
from .cqs import _tuple_new, normalize  # noqa: F401
from .wps import WpsTriple

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_IO_FAILURE = 4

RECORD_CSV_HEADER = ["a", "b", "c", "verdict", "reasons", "mld", "k2"]
CENSUS_CSV_HEADER = ["N", "count_A", "count_B1", "count_B2", "count_B3", "count_S", "ratio"]

REASON_EXPLANATIONS = {
    "not_well_formed": "weights are not pairwise coprime, so the triple is not a genuine weighted projective plane",
    "in_family_a": "some torus-fixed point is Du Val or smooth: one weight divides the sum of the other two",
    "in_family_b": "triple lies in an exceptional parametric family (1+l*e, base+k*e, e) excluded from the criterion",
    "mld_at_least_one_sixth": "minimal log discrepancy is at least 1/6, outside the regime the criterion covers",
}


def frac_fields(name: str, f: Fraction) -> dict[str, str]:
    n, d = f.as_integer_ratio()
    return {name: cqs.ratio_str(n, d), f"{name}_decimal": cqs.ratio_decimal(n, d)}


def make_envelope(command: str, inputs: dict[str, Any], result: Any, warnings: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": inputs,
        "result": result,
        "warnings": warnings,
    }


class ChainRuns:
    """A Hirzebruch-Jung chain in a payload, held as its runs ((a, count),
    ...) from `cqs.hj_runs`: it serializes as the JSON array of its
    entries, and the pretty writer renders each run with one string repeat,
    so an A_{m-1} chain costs O(1) string operations plus its bytes."""

    __slots__ = ("runs",)

    def __init__(self, runs: tuple[tuple[int, int], ...]) -> None:
        self.runs = runs


def _expand_chain(obj: Any) -> list[int]:
    # The compact encoder's `default`: it sees only objects that are not
    # JSON types, and of those only a ChainRuns serializes.
    if type(obj) is ChainRuns:
        return list(concat.from_iterable(starmap(repeat, obj.runs)))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# The encoder `json.dumps(obj, ensure_ascii=False, separators=(",", ":"))`
# builds for every call, built once, which also expands a ChainRuns.  Payloads
# are fresh trees, so it skips the cycle check (a cycle raises RecursionError).
_COMPACT = json.JSONEncoder(
    ensure_ascii=False, separators=(",", ":"), default=_expand_chain, check_circular=False
)


def dumps_envelope(env: Any, compact: bool = False) -> str:
    """The envelope or other payload `env` as the exact bytes of
    `json.dumps(env, ensure_ascii=False, indent=2)`, or as compact JSON (the
    scan writes each record's reasons array so, see `record_envelope`); a
    `ChainRuns` is written as the array of its entries in either mode.

    `json` pretty-prints only through its pure-Python encoder, which costs a
    call per array entry; `_pretty_pieces` writes the same bytes and renders
    a chain run by run, so an m-1 entry Du Val chain takes one string repeat.
    """
    if compact:
        return _COMPACT.encode(env)
    pieces: list[str] = []
    _pretty_pieces(env, "\n", pieces)
    return "".join(pieces)


def _pretty_pieces(obj: Any, newline: str, pieces: list[str]) -> None:
    """Append the indent-2 JSON pieces of `obj`, nested at the indent that
    `newline` carries, to `pieces`: one list joined once at the top, so a
    long chain is copied once, not once per nesting level.  Containers share
    one item loop, where a `ChainRuns` run (a, k) is one piece."""
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, str):
        pieces.append(encode_basestring(obj))
    elif isinstance(obj, int):
        pieces.append(int.__repr__(obj))
    else:
        # Exact types: the value objects are tuple subclasses, and one that
        # leaks into a payload must raise, not print as an array.
        kind = type(obj)
        if kind is dict:
            items, brackets = obj.items(), "{}"
        elif kind is list or kind is tuple:
            items, brackets = obj, "[]"
        elif kind is ChainRuns:
            items, brackets = obj.runs, "[]"
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        if not items:
            pieces.append(brackets)
            return
        inner = newline + "  "
        lead = brackets[0] + inner
        sep = "," + inner
        for item in items:
            if kind is ChainRuns:
                text = int.__repr__(item[0])
                pieces.append(lead + (text + sep) * (item[1] - 1) + text)
            else:
                if kind is dict:
                    key, item = item
                    if not isinstance(key, str):
                        raise TypeError(f"keys must be str, not {type(key).__name__}")
                    lead += encode_basestring(key) + ": "
                pieces.append(lead)
                _pretty_pieces(item, inner, pieces)
            lead = sep
        pieces.append(newline + brackets[1])


def _classification_fields(record: wps.GermRecord) -> dict[str, Any]:
    """The fields a point's germ record shares with the cqs command, in order.

    The chains go in as `ChainRuns` of the record's O(log m) runs, the dual
    chain as the same runs reversed: a chain can hold m-1 entries, and
    neither is copied or reversed entry by entry.
    """
    runs, t_data = record.runs, record.t_data
    return {
        "normalized": record.normalized._asdict(),
        "chain": ChainRuns(runs),
        "dual_chain": ChainRuns(runs[::-1]),
        "t_data": None if t_data is None else t_data._asdict(),
        "wahl": t_data is not None and t_data.is_wahl,
        "mu": record.mu,
        "rigid": None
        if record.smooth
        else {"rigid": record.rigid, "k": record.rigid_k, "r": record.rigid_r},
        "gorenstein_index": record.gorenstein_index,
        "baskets": [tag._asdict() for tag in sorted(record.baskets)],
    }


def _mld_fields(record: wps.GermRecord) -> dict[str, str]:
    """The mld fields of a germ, the texts its record rendered once."""
    return {"mld": record.mld_text, "mld_decimal": record.mld_decimal}


def point_payload(m: int, w1: int, w2: int, record: wps.GermRecord) -> dict:
    """The fixed point 1/m(w1,w2) of a plane, whose germ record is `record`."""
    return {
        "weight": m,
        "smooth": record.smooth,
        "germ": {"m": m, "w1": w1 % m, "w2": w2 % m},
        **_classification_fields(record),
        **_mld_fields(record),
    }


def reason_payload(
    kind: str, verdict: wps.Verdict, mld: dict[str, str] | None, explain: bool = False
) -> dict:
    """The fields of one reason of the verdict: a family reason carries its
    witness from the verdict, and `mld_at_least_one_sixth` carries `mld`,
    the plane's mld fields."""
    out: dict[str, Any] = {"kind": kind}
    if kind == "in_family_a":
        out.update(verdict.family_a._asdict())
    elif kind == "in_family_b":
        out.update(verdict.family_b._asdict())
    elif kind == "mld_at_least_one_sixth":
        out.update(mld)
    if explain:
        out["explain"] = REASON_EXPLANATIONS[kind]
    return out


def verdict_payload(verdict: wps.Verdict, mld: dict[str, str] | None, explain: bool = False) -> dict:
    """The outcome, the reasons, and the informational hypothesis block of
    the one-complement criterion (null for a plane that is not well-formed):
    Picard-rank-one toricity is an assumption for a genuine weighted plane,
    recorded, not computed; the basket condition never gates the verdict."""
    points = verdict.points
    return {
        "outcome": verdict.outcome.value,
        "reasons": [reason_payload(kind, verdict, mld, explain) for kind in verdict.reasons],
        "one_complement_hypotheses": None
        if points is None
        else {
            "toric_picard_rank_one_assumed": True,
            "mld_below_one_sixth": "mld_at_least_one_sixth" not in verdict.reasons,
            "no_basket_points": not any(rec.baskets for rec in points),
        },
    }


def wps_payload(report: wps.WpsReport, explain: bool = False) -> dict:
    verdict = report.verdict
    points = verdict.points
    out: dict[str, Any] = {
        "weights": list(report.triple),
        "well_formed": points is not None,
    }
    out.update(frac_fields("k2", report.k2))
    a, b, c = report.triple
    out["points"] = None if points is None else [
        point_payload(*w, rec) for w, rec in zip(((a, b, c), (b, a, c), (c, a, b)), points)
    ]
    mld = None if points is None else _mld_fields(wps.lowest_germ(points))
    if mld is not None:
        out.update(mld)
    if report.noether is None:
        out["noether"] = None
    else:
        lhs, holds = report.noether
        out["noether"] = {**frac_fields("lhs", lhs), "holds": holds}
    out["family_a"] = None if verdict.family_a is None else verdict.family_a._asdict()
    out["family_b"] = None if verdict.family_b is None else verdict.family_b._asdict()
    out["verdict"] = verdict_payload(verdict, mld, explain)
    return out


def census_payload(c: density.DensityCensus) -> dict:
    return {
        "N": c.N,
        "count_A": c.count_A,
        "count_B1": c.count_B1,
        "count_B2": c.count_B2,
        "count_B3": c.count_B3,
        "count_S": c.count_S,
        **frac_fields("ratio", c.ratio),
        "count_A_single_role": c.count_A_single_role,
        "count_B1_unordered": c.count_B1_unordered,
        "count_B2_unordered": c.count_B2_unordered,
        "count_B3_unordered": c.count_B3_unordered,
        "bound_checks": [b._asdict() for b in c.bound_checks],
    }


def candidate_payload(cand: markov.CentralFiberCandidate) -> dict:
    return {
        "kind": cand.kind,
        "general_fiber": cand.is_general_fiber,
        "toric_model": list(cand.toric_model),
        "basket": [s._asdict() for s in cand.basket],
        **frac_fields("k2", cand.k2),
        "rho": cand.rho,
        "note": cand.note,
    }


# ---------------------------------------------------------------------------
# box scan


# A scan record's envelope, less its reasons array (the one part whose shape varies).  Every
# other text is an Outcome value or a rational's digits, "-", "/" and ".", never JSON-escaped.
_RECORD = (
    '{"schema_version":"' + SCHEMA_VERSION + '","command":"scan-record",'
    '"input":{"triple":[%d,%d,%d]},"result":{"triple":[%d,%d,%d],"verdict":"%s",'
    '"reasons":%s,"mld":"%s","mld_decimal":"%s","k2":"%s","k2_decimal":"%s"},"warnings":[]}'
)


def record_envelope(p: WpsTriple, outcome: str, reasons: list, mld: dict, k2: dict) -> str:
    """The compact bytes `json.dumps` writes for the `scan-record` envelope of
    the triple `p`, its `outcome` value, its `reason_payload` dicts `reasons`
    and its mld and k2 fields, written without building that dict."""
    a, b, c = p
    return _RECORD % (a, b, c, a, b, c, outcome, dumps_envelope(reasons, compact=True),
                      mld["mld"], mld["mld_decimal"], k2["k2"], k2["k2_decimal"])  # fmt: skip


def _scan_line(p: WpsTriple, explain: bool, csv_format: bool) -> str:
    """The output line of the well-formed plane `p`, its CSV row or its
    compact JSON record, both from one set of values per plane.  A CSV row
    reads no reason payload, but they are built on both paths: the
    benchmark's trace (bench/run.py) expects `reason_payload` calls on each."""
    verdict = wps.degeneration_verdict(p)
    mld = _mld_fields(wps.lowest_germ(verdict.points))
    reasons = [reason_payload(kind, verdict, mld, explain) for kind in verdict.reasons]
    k2 = frac_fields("k2", wps.k2(p))
    # `_value_` is the plain attribute behind the Enum's `value` property.
    outcome = verdict.outcome._value_
    if csv_format:
        return _csv_line([*p, outcome, ";".join(verdict.reasons), mld["mld"], k2["k2"]])
    return record_envelope(p, outcome, reasons, mld, k2)


def _scan_slice(args: tuple[int, int, bool, bool]) -> list[str]:
    """The finished output lines, compact JSON envelopes or CSV rows, of the
    well-formed triples a <= b <= c <= N for one value of a."""
    N, a, explain, csv_format = args
    lines = []
    append = lines.append
    for b in range(a, N + 1):
        if gcd(a, b) != 1:
            continue
        for c in range(b, N + 1):
            if gcd(a, c) == 1 and gcd(b, c) == 1:
                # 1 <= a <= b <= c: valid weights, built without checking again.
                append(_scan_line(_tuple_new(WpsTriple, (a, b, c)), explain, csv_format))
    return lines


def _work(fn, tasks: list, feed_r: int, out_fd: int) -> None:
    """A forked worker: run the task of each index read from `feed_r`, send
    index, length and `marshal.dumps(result)` to `out_fd`, and leave through
    `os._exit`, with 1 and the traceback on stderr if a task raised.  A
    Ctrl-C reaches the whole process group; the worker ignores it, and the
    parent alone reports it and kills the workers."""
    import signal  # already loaded by fan_out

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    code = 1
    try:
        with open(out_fd, "wb") as out:
            # Each index is one 4-byte write, atomic in POSIX, and a 4-byte
            # read of a pipe of such writes returns one whole write (as on
            # Linux and the BSDs): each worker's read takes its own index.
            while index := os.read(feed_r, 4):
                data = marshal.dumps(fn(tasks[int.from_bytes(index, "little")]))
                out.write(index + len(data).to_bytes(8, "little") + data)
                out.flush()
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())  # line-buffered: out before _exit
    finally:
        os._exit(code)


def _merge(n: int, feed_w: int, pids: dict[int, int]):
    """The n results, in task order, of the workers whose result pipes key
    `pids`.  The feed gets two indices per worker, then one per result back:
    its few unread bytes fit any pipe buffer, so no write to it blocks.  A
    worker that exits raises ChildProcessError."""
    import select

    sent = min(2 * len(pids), n)
    for i in range(sent):
        os.write(feed_w, i.to_bytes(4, "little"))
    buffers, done, head = {fd: bytearray() for fd in pids}, {}, 0
    while head < n:
        for fd in select.select(list(buffers), [], [])[0]:
            if not (chunk := os.read(fd, 1 << 16)):
                status = os.waitstatus_to_exitcode(os.waitpid(pids[fd], 0)[1])
                raise ChildProcessError(f"scan worker {pids.pop(fd)} exited with status {status}")
            buf = buffers[fd]
            buf += chunk
            while len(buf) >= 12 and len(buf) >= (end := 12 + int.from_bytes(buf[4:12], "little")):
                done[int.from_bytes(buf[:4], "little")] = marshal.loads(buf[12:end])
                del buf[:end]
                if sent < n:
                    os.write(feed_w, sent.to_bytes(4, "little"))
                    sent += 1
        while head in done:
            yield done.pop(head)
            head += 1


@contextlib.contextmanager
def fan_out(fn, tasks: list, jobs: int):
    """Yield fn(task) for each task, lazily and in task order: in this process
    when w = min(jobs, tasks, CPUs) <= 1 or the platform cannot fork, else
    from w forked workers, each taking the next unstarted task whenever it
    finishes one; their results must be values `marshal` carries.  On every
    exit path every descriptor is closed and every worker killed and reaped.

    CPUs counts the CPUs this process may run on (its affinity mask), or
    all of the machine's where the platform has no affinity call."""
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(jobs, len(tasks), len(affinity(0)) if affinity else os.cpu_count() or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        yield map(fn, tasks)
        return
    import signal

    feed_r, feed_w = os.pipe()
    fds = [feed_r, feed_w]  # the descriptors this process has yet to close
    pids: dict[int, int] = {}  # result pipe -> worker not yet reaped
    try:
        for _ in range(workers):
            r, w = os.pipe()
            fds += (r, w)
            if (pid := os.fork()) == 0:
                os.close(feed_w)  # so the feed ends, and the worker, if this process dies
                _work(fn, tasks, feed_r, w)
            pids[r] = pid
            fds.remove(w)
            os.close(w)
        yield _merge(len(tasks), feed_w, pids)
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_scan(N: int, write, jobs: int = 1, explain: bool = False, csv_format: bool = False) -> int:
    """Classify every well-formed sorted triple a <= b <= c <= N, hand each
    output line to `write` and return the record count.

    There is one task per value of a; its lines reach `write` in triple
    order, whatever the worker count, as soon as the task is back.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if csv_format:
        write(_csv_line(RECORD_CSV_HEADER))
    count = 0
    tasks = [(N, a, explain, csv_format) for a in range(1, N + 1)]
    with fan_out(_scan_slice, tasks, jobs) as chunks:
        for lines in chunks:
            for line in lines:
                write(line)
            count += len(lines)
    return count


# One CSV row without its CRLF terminator, from one writer per process:
# `writerow` returns what its file's `write` returns, and `str` returns the row.
_csv_line = csv.writer(SimpleNamespace(write=str), lineterminator="").writerow


@contextlib.contextmanager
def _atomic_line_writer(path: str):
    """Yield a line writer into a temporary file in the directory of `path`
    and rename it to `path` on success, so a failed run leaves any previous
    file at `path` untouched and no partial file behind."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise _naming(exc, path) from None
    try:
        with fh:
            yield lambda line: fh.write(line + "\n")
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise _naming(exc, path) from None
    except BaseException:
        os.unlink(tmp)
        raise


def _naming(exc: OSError, path: str) -> OSError:
    """`exc` naming the file the user asked for, not the temporary one."""
    return OSError(exc.errno, exc.strerror, path)


# ---------------------------------------------------------------------------
# command handlers


def _cmd_cqs(args) -> dict:
    germ = cqs.CqsGerm(args.m, args.w1, args.w2)
    record = wps.germ_record(germ)
    payload: dict[str, Any] = {
        "germ": germ._asdict(),
        "smooth": record.smooth,
        **_classification_fields(record),
    }
    if args.bound is not None:
        payload["mld_bound_T"] = args.bound
        payload.update(frac_fields("mld_bound", cqs.mld_upper_bound(record.normalized, args.bound)))
    else:
        payload.update(frac_fields("mld", cqs.mld_brute(germ)))
    return payload


def _cmd_wps(args) -> dict:
    report = wps.analyze(WpsTriple(args.a, args.b, args.c))
    return wps_payload(report, args.explain)


def _cmd_markov(args) -> dict:
    if args.subcommand == "classic":
        triples = markov.classic_markov_enumerate(args.bound)
        return {"bound": args.bound, "triples": [list(t) for t in triples]}
    if args.subcommand == "gen":
        sols = markov.gen_solutions(args.n, args.bound)
        return {"n": args.n, "bound": args.bound, "solutions": [[s.x, s.y] for s in sols]}
    if args.subcommand == "degenerations":
        planes = markov.toric_degenerations_of_p11n(args.n, args.bound)
        return {
            "n": args.n,
            "bound": args.bound,
            "planes": [
                {"weights": list(p), "wps": wps_payload(wps.analyze(p), args.explain)}
                for p in planes
            ],
        }
    # candidates: argparse accepts no other subcommand.
    cands = markov.partial_smoothing_candidates(args.n, args.x, args.y)
    return {
        "n": args.n,
        "x": args.x,
        "y": args.y,
        "candidates": [candidate_payload(c) for c in cands],
    }


def _bound_check_warnings(censuses: list[density.DensityCensus]) -> list[str]:
    return [
        f"bound check {b.name} failed at N={c.N}: {b.lhs} vs {b.rhs}"
        for c in censuses
        for b in c.bound_checks
        if not b.holds
    ]


def _cmd_density(args) -> tuple[list[density.DensityCensus], list[str]]:
    censuses = [density.census(N) for N in args.sizes]
    return censuses, _bound_check_warnings(censuses)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        return _dispatch(args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE


def run(argv: list[str] | None = None) -> NoReturn:
    """End the process with `main(argv)`'s exit code: the entry point of
    every launcher (`python -m degenscope`, `python -m degenscope.cli`, the
    `degenscope` script).

    It flushes stdout, and a failed flush (a full disk, a closed pipe) is
    an I/O failure: exit 4, with one `error:` line on stderr unless `main`
    has already reported one.  argparse's own exits (`--help`, a usage
    error) take the same path with their code.  Then it leaves through
    `os._exit`, which skips interpreter teardown: no output waits for it,
    and it costs about 8-10 ms per run.  An exception that escapes `main`
    (Ctrl-C, a bug) leaves through the normal exit with its traceback, and
    so does every run under a profiler, tracer or coverage tool, which
    writes its report at that exit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        code = exc.code  # argparse's `--help` (0) or usage error (2)
    try:
        if sys.stdout is not None:  # None when descriptor 1 was closed
            sys.stdout.flush()
    except OSError as exc:
        if code != EXIT_IO_FAILURE:
            print(f"error: {exc}", file=sys.stderr)
        code = EXIT_IO_FAILURE
    if sys.stderr is not None:
        sys.stderr.flush()
    if _hooked():
        sys.exit(code)
    os._exit(code)


def _hooked() -> bool:
    """Whether a profiler, tracer or coverage tool watches this process:
    through `sys.setprofile`/`sys.settrace`, or from Python 3.12 on through
    `sys.monitoring` (PEP 669), which cProfile uses there."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))


def _dispatch(args, out) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.json and args.csv:
        raise ValueError("--json and --csv are mutually exclusive")
    if args.csv and args.command not in ("density", "scan"):
        raise ValueError(f"--csv is not supported for the {args.command} command")

    if args.command == "scan":
        return _run_scan_command(args, out)

    # Only density can warn (a failed bound check).
    warnings: list[str] = []
    if args.command == "cqs":
        inputs = {"m": args.m, "w1": args.w1, "w2": args.w2, "bound": args.bound}
        payload = _cmd_cqs(args)
    elif args.command == "wps":
        inputs = {"a": args.a, "b": args.b, "c": args.c}
        payload = _cmd_wps(args)
    elif args.command == "markov":
        inputs = {"subcommand": args.subcommand}
        for key in ("n", "bound", "x", "y"):
            if hasattr(args, key):
                inputs[key] = getattr(args, key)
        payload = _cmd_markov(args)
    else:  # density: argparse accepts no other command.
        inputs = {"sizes": args.sizes, "jobs": args.jobs}
        censuses, warnings = _cmd_density(args)
        if args.csv:
            if not args.quiet:
                print(_csv_line(CENSUS_CSV_HEADER), file=out)
                for c in censuses:
                    row = [c.N, c.count_A, c.count_B1, c.count_B2, c.count_B3, c.count_S]
                    ratio = cqs.ratio_decimal(c.ratio.numerator, c.ratio.denominator)
                    print(_csv_line([*row, ratio]), file=out)
            return EXIT_OK
        payload = {"censuses": [census_payload(c) for c in censuses]}

    if not args.quiet:
        env = make_envelope(args.command, inputs, payload, warnings)
        print(dumps_envelope(env), file=out)
    return EXIT_OK


def _run_scan_command(args, out) -> int:
    # The census validates N, so invalid input exits 2 before --out is opened.
    cen = density.census(args.N)
    write = (lambda line: None) if args.quiet else functools.partial(print, file=out)
    writer = contextlib.nullcontext(write) if args.out is None else _atomic_line_writer(args.out)
    with writer as write:
        count = run_scan(args.N, write, args.jobs, args.explain, args.csv)
    summary = make_envelope(
        "scan",
        {"N": args.N, "jobs": args.jobs, "out": args.out},
        {"well_formed_records": count, "census": census_payload(cen)},
        _bound_check_warnings([cen]),
    )
    if not args.quiet:
        print(dumps_envelope(summary), file=out)
    return EXIT_OK


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # Flags are valid both before and after the subcommand; the suppressed
    # copies on subparsers avoid clobbering values parsed by the main parser.
    flag_default = argparse.SUPPRESS if suppress else False
    jobs_default = argparse.SUPPRESS if suppress else 1
    parser.add_argument(
        "--json", action="store_true", default=flag_default, help="JSON envelopes (default)"
    )
    parser.add_argument(
        "--csv", action="store_true", default=flag_default, help="CSV output (density and scan)"
    )
    parser.add_argument(
        "--quiet", action="store_true", default=flag_default, help="suppress stdout payloads"
    )
    parser.add_argument(
        "--jobs", type=int, default=jobs_default, metavar="J", help="worker processes for scan"
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        default=flag_default,
        help="attach a prose explanation to each verdict reason",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenscope",
        description=(
            "Exact invariants of cyclic quotient surface singularities and "
            "Q-Gorenstein degeneration verdicts for weighted projective planes."
        ),
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cqs = sub.add_parser("cqs", help="classify one cyclic quotient germ 1/m(w1,w2)")
    _add_global_flags(p_cqs, suppress=True)
    p_cqs.add_argument("m", type=int)
    p_cqs.add_argument("w1", type=int)
    p_cqs.add_argument("w2", type=int)
    p_cqs.add_argument(
        "--bound",
        type=int,
        default=None,
        metavar="T",
        help="report the pigeonhole bound 1/T + T/m instead of the exact mld",
    )

    p_wps = sub.add_parser("wps", help="full report and verdict for P(a,b,c)")
    _add_global_flags(p_wps, suppress=True)
    p_wps.add_argument("a", type=int)
    p_wps.add_argument("b", type=int)
    p_wps.add_argument("c", type=int)

    p_markov = sub.add_parser("markov", help="mutation censuses")
    msub = p_markov.add_subparsers(dest="subcommand", required=True)
    m_classic = msub.add_parser("classic", help="Markov triples up to a bound")
    m_classic.add_argument("--bound", type=int, required=True)
    m_gen = msub.add_parser("gen", help="solutions of n + x^2 + y^2 = (n+2)xy")
    m_gen.add_argument("--n", type=int, required=True)
    m_gen.add_argument("--bound", type=int, required=True)
    m_deg = msub.add_parser("degenerations", help="toric degenerations of P(1,1,n)")
    m_deg.add_argument("--n", type=int, required=True)
    m_deg.add_argument("--bound", type=int, required=True)
    m_cand = msub.add_parser("candidates", help="central-fiber descriptors for one solution")
    m_cand.add_argument("--n", type=int, required=True)
    m_cand.add_argument("--x", type=int, required=True)
    m_cand.add_argument("--y", type=int, required=True)
    for sp in (m_classic, m_gen, m_deg, m_cand):
        _add_global_flags(sp, suppress=True)

    p_density = sub.add_parser("density", help="exceptional-set census at one or more N")
    _add_global_flags(p_density, suppress=True)
    p_density.add_argument("sizes", type=int, nargs="+", metavar="N")

    p_scan = sub.add_parser("scan", help="classify every well-formed triple in [1,N]^3")
    _add_global_flags(p_scan, suppress=True)
    p_scan.add_argument("N", type=int)
    p_scan.add_argument("--out", type=str, default=None, metavar="FILE")

    return parser


if __name__ == "__main__":
    run()
