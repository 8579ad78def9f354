"""Command-line front end: singularity reports, plane verdicts, mutation
censuses, density counts, and a parallel box scan.

Output is deterministic: identical inputs give byte-identical output, and
the scan result never depends on the worker count.  Rational values are
serialized as exact "p/q" strings with an advisory decimal field; floats
never appear in payloads.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import islice
from math import gcd
from types import SimpleNamespace

# `json`'s C accelerator, imported directly: the `json` package would also
# load and compile its decoder and scanner, which the CLI never uses.
try:
    from _json import encode_basestring, make_encoder
except ImportError:  # no `_json`: json's pure-Python string encoder
    from json.encoder import encode_basestring

    make_encoder = None

from . import cqs, density, markov, wps
# `normalize` is unused here; kept bound because bench/test_bench.py checks
# that the benchmark's trace patches cli.normalize.
from .cqs import _tuple_new, normalize  # noqa: F401
from .wps import WpsTriple

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_IO_FAILURE = 4

# A CSV row is its fields joined by ",".  None needs quoting: each is a header name,
# an integer, a rational's text, an Outcome value, or reason kinds joined by ";".
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


def make_envelope(command: str, inputs: dict[str, object], result: object, warnings: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": inputs,
        "result": result,
        "warnings": warnings,
    }


class ChainRuns:
    """A Hirzebruch-Jung chain in a payload, held as its runs ((a, count),
    ...) from `cqs.hj_runs`: the pretty writer writes it as the JSON array
    of its entries and renders each run from one shared block of entries,
    so an A_{m-1} chain costs one block plus its bytes in the final join."""

    __slots__ = ("runs",)

    def __init__(self, runs: tuple[tuple[int, int], ...]) -> None:
        self.runs = runs


def _not_serializable(obj: object):
    """`json.JSONEncoder.default`: every object it is handed is an error."""
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


# The C encoder `json.dumps(obj, ensure_ascii=False, separators=(",", ":"))`
# builds on every call, made once with the nine arguments
# `JSONEncoder.iterencode` passes (the same call in Python 3.10 to 3.13).
# Payloads are fresh trees, so it has no markers and skips the cycle check
# (a cycle raises RecursionError).  None where the interpreter has no `_json`.
_C_COMPACT = None if make_encoder is None else make_encoder(
    None, _not_serializable, encode_basestring, None, ":", ",", False, False, True,
)  # fmt: skip


def dumps_envelope(env: object, compact: bool = False) -> str:
    """The envelope or other payload `env` as the exact bytes of
    `json.dumps(env, ensure_ascii=False, indent=2)`, or as compact JSON (the
    scan writes each record's reasons array so, see `record_envelope`).  The
    pretty writer writes a `ChainRuns` as the array of its entries; compact
    mode takes JSON types only, and raises TypeError on a `ChainRuns`.

    `json` pretty-prints only through its pure-Python encoder, which costs a
    call per array entry; `_pretty_pieces` writes the same bytes and renders
    a chain run by run, so the join of an m-1 entry Du Val chain is the one
    full-size copy of its text.
    """
    if compact:
        if _C_COMPACT is None:
            import json

            return json.dumps(env, ensure_ascii=False, separators=(",", ":"), check_circular=False)
        return "".join(_C_COMPACT(env, 0))
    pieces: list[str] = []
    _pretty_pieces(env, "\n", pieces)
    return "".join(pieces)


_CHAIN_BLOCK = 4096  # entries in the one block a long chain run repeats by reference


def _pretty_pieces(obj: object, newline: str, pieces: list[str]) -> None:
    """Append the indent-2 JSON pieces of `obj`, nested at the indent that
    `newline` carries, to `pieces`: one list joined once at the top, so a
    long chain is copied once, not once per nesting level.  Containers share
    one item loop, where a `ChainRuns` run (a, k) is its lead, a shared
    block repeated by reference, and the rest."""
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
                entry = text + sep
                q, r = divmod(item[1] - 1, _CHAIN_BLOCK)
                pieces.append(lead)
                if q:
                    pieces += [entry * _CHAIN_BLOCK] * q
                pieces.append(entry * r + text)
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


def _classification_fields(record: wps.GermRecord) -> dict[str, object]:
    """The fields a point's germ record shares with the cqs command, in order.

    The chains go in as `ChainRuns` of the record's O(log m) runs, the dual
    chain as the same runs reversed: a chain can hold m-1 entries, and
    neither is copied or reversed entry by entry.
    """
    runs, t_data, r = record.runs, record.t_data, record.gorenstein_index
    return {
        "normalized": record.normalized._asdict(),
        "chain": ChainRuns(runs),
        "dual_chain": ChainRuns(runs[::-1]),
        "t_data": None if t_data is None else t_data._asdict(),
        "wahl": t_data is not None and t_data.is_wahl,
        "mu": None if t_data is None else t_data.d - 1,
        "rigid": None
        if record.smooth
        else {"rigid": record.rigid, "k": record.normalized.m // r, "r": r},
        "gorenstein_index": r,
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
    out: dict[str, object] = {"kind": kind}
    if kind == "in_family_a":
        witness = verdict.family_a
        out.update(zip(witness._fields, witness))
    elif kind == "in_family_b":
        witness = verdict.family_b
        out.update(zip(witness._fields, witness))
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
    out: dict[str, object] = {
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


# The head of a scan record's envelope.  Past it, every text `record_envelope`
# writes but the reasons array is an Outcome value or a rational's digits,
# "-", "/" and ".", never JSON-escaped.
_RECORD_HEAD = '{"schema_version":"' + SCHEMA_VERSION + '","command":"scan-record","input":{"triple":'


def record_envelope(p: WpsTriple, outcome: str, reasons: list, mld: dict, k2: dict) -> str:
    """The compact bytes `json.dumps` writes for the `scan-record` envelope of
    the triple `p`, its `outcome` value, its `reason_payload` dicts `reasons`
    and its mld and k2 fields, written without building that dict."""
    a, b, c = p
    triple = f"[{a},{b},{c}]"
    return (
        f'{_RECORD_HEAD}{triple}}},"result":{{"triple":{triple},"verdict":"{outcome}",'
        f'"reasons":{dumps_envelope(reasons, compact=True)},"mld":"{mld["mld"]}",'
        f'"mld_decimal":"{mld["mld_decimal"]}","k2":"{k2["k2"]}","k2_decimal":"{k2["k2_decimal"]}"}},"warnings":[]}}'
    )


def _scan_line(p: WpsTriple, explain: bool, csv_format: bool) -> str:
    """The output line of the well-formed plane `p`, its CSV row or its
    compact JSON record, both from one set of values per plane.  A CSV row
    reads no reason payload, but they are built on both paths: the
    benchmark's trace (bench/run.py) expects `reason_payload` calls on each."""
    verdict = wps.degeneration_verdict(p)
    low = wps.lowest_germ(verdict.points)
    mld = {"mld": low.mld_text, "mld_decimal": low.mld_decimal}
    reasons = []
    for kind in verdict.reasons:
        reasons.append(reason_payload(kind, verdict, mld, explain))
    k2 = frac_fields("k2", wps.k2(p))
    # `_value_` is the plain attribute behind the Enum's `value` property.
    outcome = verdict.outcome._value_
    if csv_format:
        a, b, c = p
        return f"{a},{b},{c},{outcome},{';'.join(verdict.reasons)},{low.mld_text},{k2['k2']}"
    return record_envelope(p, outcome, reasons, mld, k2)


def _scan_slice(args: tuple[int, int, bool, bool]) -> str:
    """The output block of one value of a: the compact JSON envelope or CSV
    row, and a newline, of each well-formed triple a <= b <= c <= N."""
    N, a, explain, csv_format = args
    lines = []
    append, scan_line = lines.append, _scan_line
    coprime = [c for c in range(a, N + 1) if gcd(a, c) == 1]  # the b and c to try
    for i, b in enumerate(coprime):
        for c in coprime[i:]:
            if gcd(b, c) == 1:
                # 1 <= a <= b <= c: valid weights, built without checking again.
                append(scan_line(_tuple_new(WpsTriple, (a, b, c)), explain, csv_format))
    append("")  # the join then ends each line, and gives "" for no triple
    return "\n".join(lines)


def _box_germs(N: int, limit: int):
    """The first `limit` of the singular germs a scan of a <= b <= c <= N
    meets, as normal forms (m, q) in order: every 1/m(1,q) with 2 <= m <= N
    and gcd(m, q) = 1, the fixed point of weight m of the plane (1, q, m)."""
    return islice(((m, q) for m in range(2, N + 1) for q in range(1, m) if gcd(m, q) == 1), limit)


def run_scan(N: int, write, jobs: int = 1, explain: bool = False, csv_format: bool = False) -> int:
    """Classify every well-formed sorted triple a <= b <= c <= N, hand
    `write` the CSV header line (CSV only), then each task's block from
    `_scan_slice`, and return the record count: the blocks' newlines.

    Each germ of the box is classified once per run, here, before any
    worker is forked; the workers inherit the cached records.  Each block
    reaches `write` in task order, whatever the worker count, once its
    task is back.  No record holds a raw newline: JSON escapes one, and no
    CSV field can hold one."""
    from .pool import fan_out  # only a scan compiles the pool

    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if csv_format:
        write(",".join(RECORD_CSV_HEADER) + "\n")
    # The task a = 1 meets every one of these germs, so at --jobs 1 this
    # classifies nothing the scan would not, and forked workers inherit
    # the records instead of each classifying them again.  It stops at the
    # cache's bound, so it evicts none of its own records.
    point_core = wps._point_core
    for m, q in _box_germs(N, point_core.cache_parameters()["maxsize"]):
        point_core(m, q)
    count = 0
    tasks = [(N, a, explain, csv_format) for a in range(1, N + 1)]
    with fan_out(_scan_slice, tasks, jobs) as blocks:
        for block in blocks:
            write(block)
            count += block.count("\n")
    return count


# ---------------------------------------------------------------------------
# command handlers


def _cmd_cqs(args) -> dict:
    germ = cqs.CqsGerm(args.m, args.w1, args.w2)
    record = wps.germ_record(germ)
    payload: dict[str, object] = {
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
    # candidates: the grammar has no other subcommand.
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


# ---------------------------------------------------------------------------
# command-line grammar


Arg = namedtuple("Arg", "name type nargs metavar required help", defaults=(int, None, None, False, None))
Arg.__doc__ = """One argument of the grammar: an option when `name` starts with "--",
else a positional.  An option whose `type` is None is a switch
(argparse's store_true); a positional whose `nargs` is "+" takes one or
more values, and is its command's last positional.

Fields: name (str), type (a callable from str, default int, or None),
nargs (str or None), metavar (str or None), required (bool, default
False), help (str or None)."""


# Valid before the command and after it (after a markov subcommand).
GLOBAL_FLAGS = (
    Arg("--json", None, help="JSON envelopes (default)"),
    Arg("--csv", None, help="CSV output (density and scan)"),
    Arg("--quiet", None, help="suppress stdout payloads"),
    Arg("--jobs", metavar="J", help="worker processes for scan"),
    Arg("--explain", None, help="attach a prose explanation to each verdict reason"),
)
GLOBAL_DEFAULTS = {"json": False, "csv": False, "quiet": False, "jobs": 1, "explain": False}

# Each command's help and its arguments in declaration order (the order of
# `--help`), global flags included; markov has subcommands in their place.
COMMANDS: dict[str, tuple[str, object]] = {
    "cqs": (
        "classify one cyclic quotient germ 1/m(w1,w2)",
        (
            *GLOBAL_FLAGS,
            Arg("m"),
            Arg("w1"),
            Arg("w2"),
            Arg("--bound", metavar="T", help="report the pigeonhole bound 1/T + T/m instead of the exact mld"),
        ),
    ),
    "wps": ("full report and verdict for P(a,b,c)", (*GLOBAL_FLAGS, Arg("a"), Arg("b"), Arg("c"))),
    "markov": (
        "mutation censuses",
        {
            "classic": ("Markov triples up to a bound", (Arg("--bound", required=True), *GLOBAL_FLAGS)),
            "gen": (
                "solutions of n + x^2 + y^2 = (n+2)xy",
                (Arg("--n", required=True), Arg("--bound", required=True), *GLOBAL_FLAGS),
            ),
            "degenerations": (
                "toric degenerations of P(1,1,n)",
                (Arg("--n", required=True), Arg("--bound", required=True), *GLOBAL_FLAGS),
            ),
            "candidates": (
                "central-fiber descriptors for one solution",
                (Arg("--n", required=True), Arg("--x", required=True), Arg("--y", required=True), *GLOBAL_FLAGS),
            ),
        },
    ),
    "density": ("exceptional-set census at one or more N", (*GLOBAL_FLAGS, Arg("sizes", nargs="+", metavar="N"))),
    "scan": (
        "classify every well-formed triple in [1,N]^3",
        (*GLOBAL_FLAGS, Arg("N"), Arg("--out", str, metavar="FILE")),
    ),
}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` returns, read from the grammar
    table without argparse, or None for any argv argparse might read
    otherwise or rejects: a token that starts with "-" and is not an
    option of its parser by its exact spelling (`-h`, `--`, `--opt=value`,
    an abbreviation, a negative number), an option given twice, at one
    level or at two, a value that starts with "-", positionals split by
    an option, a failed `int()`, a missing or unknown argument."""
    values: dict[str, object] = {}
    args, names, level = GLOBAL_FLAGS, COMMANDS, "command"
    read_positionals = False
    i, n = 0, len(argv)
    while i < n:
        token = argv[i]
        i += 1
        if token[:1] == "-":
            arg = next((a for a in args if a.name == token), None)
            if arg is None or token[2:] in values:
                return None
            if arg.type is None:
                values[token[2:]] = True
                continue
            if i == n or argv[i][:1] == "-":
                return None
            try:
                values[token[2:]] = arg.type(argv[i])
            except ValueError:
                return None
            i += 1
        elif names is not None:  # the command or the markov subcommand
            if token not in names:
                return None
            values[level] = token
            body = names[token][1]
            args, names, level = ((), body, "subcommand") if isinstance(body, dict) else (body, None, None)
        elif read_positionals:
            return None
        else:
            read_positionals = True
            block = [token]
            while i < n and argv[i][:1] != "-":
                block.append(argv[i])
                i += 1
            for arg in args:
                if arg.name[0] == "-":
                    continue
                if not block:
                    return None
                take = len(block) if arg.nargs == "+" else 1
                try:
                    read = [arg.type(t) for t in block[:take]]
                except ValueError:
                    return None
                values[arg.name] = read if arg.nargs == "+" else read[0]
                del block[:take]
            if block:
                return None
    if names is not None:
        return None
    for arg in args:
        dest = arg.name.lstrip("-")
        if dest not in values:
            if arg.required or arg.name[0] != "-":
                return None
            if dest not in GLOBAL_DEFAULTS:
                values[dest] = None
    return SimpleNamespace(**{**GLOBAL_DEFAULTS, **values})


def main(argv: list[str] | None = None) -> int:
    """Run one command line (by default `sys.argv[1:]`) and return its exit
    code.  The grammar table reads it; argparse, imported only then, takes
    `--help`, usage errors and every argv the table's reader declines."""
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        return _dispatch(args, out)
    except ValueError as exc:
        _report(f"error: {exc}")
        return EXIT_INVALID_INPUT
    except OSError as exc:
        _report(f"error: {exc}")
        return EXIT_IO_FAILURE


def _report(line: str) -> None:
    """Write an `error:` or `warning:` line to stderr.  A stderr that cannot
    take it (a closed pipe, a full disk, a closed descriptor) loses the
    line, not the output or the exit code."""
    try:
        if sys.stderr is not None:  # else print would write to stdout
            print(line, file=sys.stderr)
    except OSError:
        pass


def run(argv: list[str] | None = None):
    """End the process with `main(argv)`'s exit code: the entry point of
    every launcher (`python -m degenscope`, `python -m degenscope.cli`, the
    `degenscope` script).

    It flushes stdout, and a failed flush (a full disk, a closed pipe) is
    an I/O failure: exit 4, with one `error:` line on stderr unless `main`
    has already reported one.  A stderr that cannot be written changes no
    exit code.  argparse's own exits (`--help`, a usage error) take the
    same path with their code.  Then it leaves through `os._exit`, which
    skips interpreter teardown: no output waits for it, and it costs about
    8-10 ms per run.  An exception that escapes `main` (Ctrl-C, a bug)
    leaves through the normal exit with its traceback, and so does every
    run under a profiler, tracer or coverage tool, which writes its report
    at that exit."""
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
            _report(f"error: {exc}")
        code = EXIT_IO_FAILURE
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # as in `_report`: the code stands
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
    else:  # density: the grammar has no other command.
        inputs = {"sizes": args.sizes, "jobs": args.jobs}
        censuses = [density.census(N) for N in args.sizes]
        warnings = _bound_check_warnings(censuses)
        if args.csv:
            # A CSV table has no envelope to carry the warnings.
            for warning in warnings:
                _report(f"warning: {warning}")
            if not args.quiet:
                print(",".join(CENSUS_CSV_HEADER), file=out)
                for c in censuses:
                    row = [c.N, c.count_A, c.count_B1, c.count_B2, c.count_B3, c.count_S]
                    ratio = cqs.ratio_decimal(c.ratio.numerator, c.ratio.denominator)
                    print(",".join(map(str, [*row, ratio])), file=out)
            return EXIT_OK
        payload = {"censuses": [census_payload(c) for c in censuses]}

    if not args.quiet:
        env = make_envelope(args.command, inputs, payload, warnings)
        print(dumps_envelope(env), file=out)
    return EXIT_OK


def _run_scan_command(args, out) -> int:
    import contextlib

    from .pool import atomic_writer

    # The census validates N, so invalid input exits 2 before --out is opened.
    cen = density.census(args.N)
    write = (lambda block: None) if args.quiet or out is None else out.write  # None: stdout closed
    writer = contextlib.nullcontext(write) if args.out is None else atomic_writer(args.out)
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


def build_parser():
    """The argparse parser of the grammar table, one `add_argument` per
    `Arg`.  A global flag's copies in the subparsers default to SUPPRESS,
    so only a flag given after the command sets a value there; the
    defaults are set once, on the top parser."""
    import argparse

    def add(parser, args) -> None:
        for arg in args:
            if arg.name[0] != "-":
                parser.add_argument(arg.name, type=arg.type, nargs=arg.nargs, metavar=arg.metavar, help=arg.help)
                continue
            default = argparse.SUPPRESS if arg.name[2:] in GLOBAL_DEFAULTS else None
            if arg.type is None:
                parser.add_argument(arg.name, action="store_true", default=default, help=arg.help)
            else:
                parser.add_argument(
                    arg.name,
                    type=arg.type,
                    required=arg.required,
                    default=default,
                    metavar=arg.metavar,
                    help=arg.help,
                )

    parser = argparse.ArgumentParser(
        prog="degenscope",
        description=(
            "Exact invariants of cyclic quotient surface singularities and "
            "Q-Gorenstein degeneration verdicts for weighted projective planes."
        ),
    )
    add(parser, GLOBAL_FLAGS)
    parser.set_defaults(**GLOBAL_DEFAULTS)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (summary, body) in COMMANDS.items():
        command = commands.add_parser(name, help=summary)
        if isinstance(body, dict):
            subcommands = command.add_subparsers(dest="subcommand", required=True)
            for sub, (sub_summary, sub_args) in body.items():
                add(subcommands.add_parser(sub, help=sub_summary), sub_args)
        else:
            add(command, body)
    return parser


if __name__ == "__main__":
    run()
