"""Command-line front end: singularity reports, plane verdicts, mutation
censuses, density counts, and a parallel box scan.

Output is deterministic: identical inputs give byte-identical output, and
the scan result never depends on the worker count.  Rational values are
serialized as exact "p/q" strings with an advisory decimal field; floats
never appear in payloads.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from math import gcd
from multiprocessing import get_context
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
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def frac_decimal(f: Fraction, digits: int = 12) -> str:
    """Deterministic decimal rendering with integer arithmetic only."""
    sign = "-" if f < 0 else ""
    n, d = abs(f.numerator), f.denominator
    whole, rem = divmod(n, d)
    if rem == 0:
        return f"{sign}{whole}"
    scaled = rem * 10**digits // d
    tail = str(scaled).rjust(digits, "0").rstrip("0")
    return f"{sign}{whole}.{tail}"


def frac_fields(name: str, f: Fraction) -> dict[str, str]:
    return {name: frac_str(f), f"{name}_decimal": frac_decimal(f)}


def make_envelope(command: str, inputs: dict[str, Any], result: Any, warnings: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": inputs,
        "result": result,
        "warnings": warnings,
    }


def dumps_envelope(env: dict, compact: bool = False) -> str:
    if compact:
        return json.dumps(env, ensure_ascii=False, separators=(",", ":"))
    return json.dumps(env, ensure_ascii=False, indent=2)


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
    m-1 entries, and the point cache already holds this one.
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
    out: dict[str, Any] = {
        "weight": pt.weight,
        "smooth": pt.smooth,
        "germ": _germ_payload(pt.germ),
        **_classification_fields(pt),
    }
    if pt.mld is not None:
        out.update(frac_fields("mld", pt.mld))
    return out


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


def reason_payload(reason: wps.Reason, explain: bool = False) -> dict:
    out: dict[str, Any] = {"kind": reason.kind}
    if reason.mld is not None:
        out.update(frac_fields("mld", reason.mld))
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
    verdict = wps.degeneration_verdict(p)
    return {
        "triple": list(p.weights),
        "verdict": verdict.outcome.value,
        "reasons": [reason_payload(r, explain) for r in verdict.reasons],
        **frac_fields("mld", wps.wps_mld(p)),
        **frac_fields("k2", wps.k2(p)),
    }


def _scan_slice(args: tuple[int, int, int, bool]) -> list[dict]:
    N, lo, hi, explain = args
    records = []
    for a in range(lo, hi):
        for b in range(a, N + 1):
            if gcd(a, b) != 1:
                continue
            for c in range(b, N + 1):
                if gcd(a, c) == 1 and gcd(b, c) == 1:
                    records.append(_record_payload(WpsTriple(a, b, c), explain))
    return records


def run_scan(N: int, jobs: int = 1, explain: bool = False) -> list[dict]:
    """Classify every well-formed sorted triple a <= b <= c <= N.

    Records come back in lexicographic triple order whatever the worker
    count: the a-axis is split into per-value tasks and merged in order.
    The pool never holds more workers than tasks or CPUs.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = [(N, a, a + 1, explain) for a in range(1, N + 1)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        return _scan_slice((N, 1, N + 1, explain))
    with get_context("fork").Pool(processes=workers) as pool:
        chunks = pool.map(_scan_slice, tasks)
    return [rec for chunk in chunks for rec in chunk]


def record_envelope(record: dict) -> dict:
    return make_envelope("scan-record", {"triple": record["triple"]}, record, [])


def _csv_lines(header: list[str], rows) -> list[str]:
    """One CSV table as lines without their CRLF terminators."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().splitlines()


def _write_lines_atomic(path: str, lines: list[str]) -> None:
    """Write `lines` to `path` through a temporary file in the same
    directory and one rename, so a failed write leaves any previous file
    at `path` untouched and no partial file behind."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# command handlers


def _cmd_cqs(args) -> tuple[dict, list[str]]:
    pt = wps.point_report(args.m, args.w1, args.w2, with_mld=False)
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


def _cmd_density(args) -> tuple[list[density.DensityCensus], list[str]]:
    censuses = [density.census(N, args.jobs) for N in args.sizes]
    warnings = [
        f"bound check {b.name} failed at N={c.N}: {b.lhs} vs {b.rhs} "
        "(ordered-vs-unordered permutation convention; reported, not rescaled)"
        for c in censuses
        for b in c.bound_checks
        if not b.holds
    ]
    return censuses, warnings


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
                rows = (
                    [
                        *(c.N, c.count_A, c.count_B1, c.count_B2, c.count_B3, c.count_S),
                        frac_decimal(c.ratio),
                    ]
                    for c in censuses
                )
                for line in _csv_lines(CENSUS_CSV_HEADER, rows):
                    print(line, file=out)
            return EXIT_OK
        payload = {"censuses": [census_payload(c) for c in censuses]}
    else:
        raise ValueError(f"unknown command {args.command!r}")

    if not args.quiet:
        env = make_envelope(args.command, inputs, payload, warnings)
        print(dumps_envelope(env), file=out)
    return EXIT_OK


def _run_scan_command(args, out) -> int:
    records = run_scan(args.N, jobs=args.jobs, explain=args.explain)
    cen = density.census(args.N, args.jobs)
    warnings = [
        f"bound check {b.name} failed at N={cen.N}: {b.lhs} vs {b.rhs}"
        for b in cen.bound_checks
        if not b.holds
    ]
    if args.csv:
        rows = (
            [
                *rec["triple"],
                rec["verdict"],
                ";".join(r["kind"] for r in rec["reasons"]),
                rec["mld"],
                rec["k2"],
            ]
            for rec in records
        )
        lines = _csv_lines(RECORD_CSV_HEADER, rows)
    else:
        lines = [dumps_envelope(record_envelope(rec), compact=True) for rec in records]

    if args.out is not None:
        _write_lines_atomic(args.out, lines)
    elif not args.quiet:
        for line in lines:
            print(line, file=out)

    summary = make_envelope(
        "scan",
        {"N": args.N, "jobs": args.jobs, "out": args.out},
        {"well_formed_records": len(records), "census": census_payload(cen)},
        warnings,
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
        "--jobs", type=int, default=jobs_default, metavar="J", help="worker processes"
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
