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
import io
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring
from math import gcd
from typing import Any

from . import cqs, density, markov, wps
# Unused here; kept bound because bench/test_bench.py checks that the
# benchmark's trace patches cli.normalize.
from .cqs import normalize  # noqa: F401
from .markov import NotASolution
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


def frac_str(f: Fraction) -> str:
    return cqs.ratio_str(f.numerator, f.denominator)


def frac_decimal(f: Fraction, digits: int = 12) -> str:
    """Deterministic decimal rendering with integer arithmetic only."""
    return cqs.ratio_decimal(f.numerator, f.denominator, digits)


def frac_fields(name: str, f: Fraction) -> dict[str, str]:
    n, d = f.numerator, f.denominator
    return {name: cqs.ratio_str(n, d), f"{name}_decimal": cqs.ratio_decimal(n, d)}


def make_envelope(command: str, inputs: dict[str, Any], result: Any, warnings: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": inputs,
        "result": result,
        "warnings": warnings,
    }


# The encoder `json.dumps(obj, ensure_ascii=False, separators=(",", ":"))`
# builds for every call, built once.
_COMPACT = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def dumps_envelope(env: dict, compact: bool = False) -> str:
    """The envelope as compact JSON, or as the exact bytes of
    `json.dumps(env, ensure_ascii=False, indent=2)`.

    `json` pretty-prints only through its pure-Python encoder, which costs a
    call per chain entry; `_pretty_pieces` writes the same bytes and joins a
    list of plain ints, such as an m-1 entry Du Val chain, in one call.
    """
    if compact:
        return _COMPACT.encode(env)
    pieces: list[str] = []
    _pretty_pieces(env, "\n", pieces)
    return "".join(pieces)


def _pretty_pieces(obj: Any, newline: str, pieces: list[str]) -> None:
    """Append the indent-2 JSON pieces of `obj`, nested at the indent that
    `newline` carries, to `pieces`: one list joined once at the top, so a
    long chain is copied once, not once per nesting level."""
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
    # Exact types: the value objects are tuple subclasses, and one that
    # leaks into a payload must raise, not print as an array.
    elif type(obj) in (list, tuple):
        if not obj:
            pieces.append("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        pieces.append("[" + inner)
        # Types over the whole sequence, not set(obj): that would merge True
        # with 1, and a bool must print as true.
        if set(map(type, obj)) == {int}:
            texts = {v: int.__repr__(v) for v in set(obj)}
            pieces.append(sep.join(map(texts.__getitem__, obj)))
        else:
            for i, item in enumerate(obj):
                if i:
                    pieces.append(sep)
                _pretty_pieces(item, inner, pieces)
        pieces.append(newline + "]")
    elif type(obj) is dict:
        if not obj:
            pieces.append("{}")
            return
        inner = newline + "  "
        sep = "," + inner
        pieces.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            pieces.append((sep if i else inner) + encode_basestring(key) + ": ")
            _pretty_pieces(value, inner, pieces)
        pieces.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _basket_payload(tags) -> list[dict]:
    ordered = sorted(tags, key=lambda t: (t.family, t.pattern, t.param))
    return [{"family": t.family, "pattern": t.pattern, "param": t.param} for t in ordered]


def _t_payload(t) -> dict | None:
    if t is None:
        return None
    return {"d": t.d, "n": t.n, "a": t.a}


def _classification_fields(pt: wps.PointReport) -> dict[str, Any]:
    """The fields a point report shares with the cqs command, in order.

    The chains stay tuples, which serialize as JSON arrays: a chain can hold
    m-1 entries, and the point cache already holds this one.  The pretty
    writer joins a chain of plain ints in one call (its int fast path).
    """
    return {
        "normalized": {"m": pt.normalized.m, "q": pt.normalized.q},
        "chain": pt.chain,
        "dual_chain": pt.chain[::-1],
        "t_data": _t_payload(pt.t_data),
        "wahl": pt.t_data is not None and pt.t_data.is_wahl,
        "mu": pt.mu,
        "rigid": None
        if pt.smooth
        else {"rigid": pt.rigid, "k": pt.rigid_k, "r": pt.rigid_r},
        "gorenstein_index": pt.gorenstein_index,
        "baskets": _basket_payload(pt.baskets),
    }


def _germ_payload(germ: cqs.CqsGerm) -> dict[str, int]:
    return {"m": germ.m, "w1": germ.w1, "w2": germ.w2}


def point_payload(pt: wps.PointReport) -> dict:
    return {
        "weight": pt.weight,
        "smooth": pt.smooth,
        "germ": _germ_payload(pt.germ),
        **_classification_fields(pt),
        **frac_fields("mld", pt.mld),
    }


def _family_a_payload(w: wps.FamilyAWitness) -> dict[str, Any]:
    return {"permutation": list(w.permutation), "indices": list(w.indices)}


def _family_b_payload(w: wps.FamilyBWitness) -> dict[str, Any]:
    return {
        "family": w.family,
        "n": w.n,
        "l": w.l,
        "k": w.k,
        "permutation": list(w.permutation),
        "indices": list(w.indices),
    }


def reason_payload(reason: wps.Reason, explain: bool = False, mld: dict | None = None) -> dict:
    """The reason's fields; `mld`, the plane's mld fields when the caller has
    them rendered already, stands in for rendering `reason.mld` again."""
    out: dict[str, Any] = {"kind": reason.kind}
    if reason.mld is not None:
        out.update(mld or frac_fields("mld", reason.mld))
    if reason.family_a is not None:
        out.update(_family_a_payload(reason.family_a))
    if reason.family_b is not None:
        out.update(_family_b_payload(reason.family_b))
    if explain:
        out["explain"] = REASON_EXPLANATIONS[reason.kind]
    return out


def verdict_payload(verdict: wps.Verdict, explain: bool = False) -> dict:
    return {
        "outcome": verdict.outcome.value,
        "reasons": [reason_payload(r, explain) for r in verdict.reasons],
        "one_complement_hypotheses": None
        if verdict.hypotheses is None
        else {
            "toric_picard_rank_one_assumed": verdict.hypotheses.toric_picard_rank_one_assumed,
            "mld_below_one_sixth": verdict.hypotheses.mld_below_one_sixth,
            "no_basket_points": verdict.hypotheses.no_basket_points,
        },
    }


def wps_payload(report: wps.WpsReport, explain: bool = False) -> dict:
    out: dict[str, Any] = {
        "weights": list(report.triple.weights),
        "well_formed": report.well_formed,
    }
    out.update(frac_fields("k2", report.k2))
    out["points"] = None if report.points is None else [point_payload(pt) for pt in report.points]
    if report.mld is not None:
        out.update(frac_fields("mld", report.mld))
    if report.noether is None:
        out["noether"] = None
    else:
        lhs, holds = report.noether
        out["noether"] = {**frac_fields("lhs", lhs), "holds": holds}
    out["family_a"] = None if report.family_a is None else _family_a_payload(report.family_a)
    out["family_b"] = None if report.family_b is None else _family_b_payload(report.family_b)
    out["verdict"] = verdict_payload(report.verdict, explain)
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
        "bound_checks": [
            {"name": b.name, "holds": b.holds, "lhs": b.lhs, "rhs": b.rhs}
            for b in c.bound_checks
        ],
    }


def candidate_payload(cand: markov.CentralFiberCandidate) -> dict:
    return {
        "kind": cand.kind,
        "general_fiber": cand.is_general_fiber,
        "toric_model": list(cand.toric_model.weights),
        "basket": [{"m": s.m, "q": s.q} for s in cand.basket],
        **frac_fields("k2", cand.k2),
        "rho": cand.rho,
        "note": cand.note,
    }


# ---------------------------------------------------------------------------
# box scan


def _record_payload(p: WpsTriple, explain: bool) -> dict:
    """One scan record.  The plane's mld fields are the lowest point's germ
    record's, rendered once per germ; a `mld_at_least_one_sixth` reason
    carries the same value and reuses them."""
    verdict = wps.degeneration_verdict(p)
    low = wps.lowest_germ(verdict.points)
    mld = {"mld": low.mld_text, "mld_decimal": low.mld_decimal}
    return {
        "triple": list(p.weights),
        "verdict": verdict.outcome.value,
        "reasons": [reason_payload(r, explain, mld) for r in verdict.reasons],
        **mld,
        **frac_fields("k2", wps.k2(p)),
    }


def _scan_slice(args: tuple[int, int, bool, bool]) -> list[str]:
    """The finished output lines, compact JSON envelopes or CSV rows, of the
    well-formed triples a <= b <= c <= N for one value of a."""
    N, a, explain, csv_format = args
    lines = []
    for b in range(a, N + 1):
        if gcd(a, b) != 1:
            continue
        for c in range(b, N + 1):
            if gcd(a, c) == 1 and gcd(b, c) == 1:
                rec = _record_payload(WpsTriple(a, b, c), explain)
                if csv_format:
                    kinds = ";".join(r["kind"] for r in rec["reasons"])
                    lines.append(_csv_line([a, b, c, rec["verdict"], kinds, rec["mld"], rec["k2"]]))
                else:
                    lines.append(dumps_envelope(record_envelope(rec), compact=True))
    return lines


def get_context(method: str):
    """`multiprocessing.get_context`, imported on first use: only a scan
    with a pool of two or more workers needs `multiprocessing`, and every
    other command starts without loading it."""
    import multiprocessing

    return multiprocessing.get_context(method)


@contextlib.contextmanager
def fan_out(fn, tasks: list, jobs: int):
    """Yield fn(task) for each task, lazily and in task order: in this process
    when w = min(jobs, tasks, CPUs) <= 1, else through the ordered `imap` of
    a fork pool of w workers, torn down on every exit path.  `multiprocessing`
    is imported only when that pool is forked."""
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        yield map(fn, tasks)
        return
    with get_context("fork").Pool(processes=workers) as pool:
        yield pool.imap(fn, tasks)


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


def record_envelope(record: dict) -> dict:
    return make_envelope("scan-record", {"triple": record["triple"]}, record, [])


def _csv_line(row) -> str:
    """One CSV row without its CRLF terminator."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(row)
    return buf.getvalue()


@contextlib.contextmanager
def _atomic_line_writer(path: str):
    """Yield a line writer into a temporary file in the directory of `path`
    and rename it to `path` on success, so a failed run leaves any previous
    file at `path` untouched and no partial file behind."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield lambda line: fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# command handlers


def _cmd_cqs(args) -> tuple[dict, list[str]]:
    pt = wps.point_report(args.m, args.w1, args.w2)
    payload: dict[str, Any] = {
        "germ": _germ_payload(pt.germ),
        "smooth": pt.smooth,
        **_classification_fields(pt),
    }
    if args.bound is not None:
        payload["mld_bound_T"] = args.bound
        payload.update(frac_fields("mld_bound", cqs.mld_upper_bound(pt.normalized, args.bound)))
    else:
        payload.update(frac_fields("mld", cqs.mld_brute(pt.germ)))
    return payload, []


def _cmd_wps(args) -> tuple[dict, list[str]]:
    report = wps.analyze(WpsTriple(args.a, args.b, args.c))
    return wps_payload(report, args.explain), []


def _cmd_markov(args) -> tuple[dict, list[str]]:
    if args.subcommand == "classic":
        triples = markov.classic_markov_enumerate(args.bound)
        return {"bound": args.bound, "triples": [list(t.entries) for t in triples]}, []
    if args.subcommand == "gen":
        sols = markov.gen_solutions(args.n, args.bound)
        return {"n": args.n, "bound": args.bound, "solutions": [[s.x, s.y] for s in sols]}, []
    if args.subcommand == "degenerations":
        planes = markov.toric_degenerations_of_p11n(args.n, args.bound)
        return (
            {
                "n": args.n,
                "bound": args.bound,
                "planes": [
                    {
                        "weights": list(p.weights),
                        "wps": wps_payload(wps.analyze(p), args.explain),
                    }
                    for p in planes
                ],
            },
            [],
        )
    if args.subcommand == "candidates":
        cands = markov.partial_smoothing_candidates(args.n, args.x, args.y)
        return (
            {
                "n": args.n,
                "x": args.x,
                "y": args.y,
                "candidates": [candidate_payload(c) for c in cands],
            },
            [],
        )
    raise ValueError(f"unknown markov subcommand {args.subcommand!r}")


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
    except (NotASolution, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE


def _dispatch(args, out) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.json and args.csv:
        raise ValueError("--json and --csv are mutually exclusive")
    if args.csv and args.command not in ("density", "scan"):
        raise ValueError(f"--csv is not supported for the {args.command} command")

    if args.command == "scan":
        return _run_scan_command(args, out)

    if args.command == "cqs":
        inputs = {"m": args.m, "w1": args.w1, "w2": args.w2, "bound": args.bound}
        payload, warnings = _cmd_cqs(args)
    elif args.command == "wps":
        inputs = {"a": args.a, "b": args.b, "c": args.c}
        payload, warnings = _cmd_wps(args)
    elif args.command == "markov":
        inputs = {"subcommand": args.subcommand}
        for key in ("n", "bound", "x", "y"):
            if hasattr(args, key):
                inputs[key] = getattr(args, key)
        payload, warnings = _cmd_markov(args)
    elif args.command == "density":
        inputs = {"sizes": args.sizes, "jobs": args.jobs}
        censuses, warnings = _cmd_density(args)
        if args.csv:
            if not args.quiet:
                print(_csv_line(CENSUS_CSV_HEADER), file=out)
                for c in censuses:
                    row = [c.N, c.count_A, c.count_B1, c.count_B2, c.count_B3, c.count_S]
                    print(_csv_line([*row, frac_decimal(c.ratio)]), file=out)
            return EXIT_OK
        payload = {"censuses": [census_payload(c) for c in censuses]}
    else:
        raise ValueError(f"unknown command {args.command!r}")

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
    sys.exit(main())
