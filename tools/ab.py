"""Alternating A/B runs of the benchmark in two checkouts.

    python3 tools/ab.py --parent DIR --change DIR --workload scan_box \
        --pairs 10 --seed 1 --seconds 30

Each pair runs `python3 bench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, one after the other and never at once;
the side that runs first alternates from pair to pair, so a slow spell of
the host does not always fall on the same side.  The end-to-end metrics
(and whether each is better lower or higher) come from the change's
`BENCHMARK.json`.  For each metric the summary gives each side's median
and quartiles, how many pairs each side won, and whether the claim rule
holds for the change: it won at least 9 of every 10 pairs, and its median
beats the parent's by more than the parent's interquartile range.  Last
comes each side's median of `cpu_ref_s / wall_ref_s`: about 1.0 when a
run had one CPU's worth of time, up to 2.0 when two scan workers ran at
once, so it tells whether a pool had its second CPU free.

Nothing in either checkout is edited; `bench/run.py` writes its results
under `.bench_out/` there as usual.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# The claim rule's least share of pairs won: 9 in 10.
CLAIM_WINS, CLAIM_OF = 9, 10


def run_bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict[str, float]:
    """The end-to-end metric values of one `--trace 0` run in `checkout`."""
    argv = ["bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run([sys.executable, *argv], cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: bench/run.py printed nothing (exit {proc.returncode}): {proc.stderr.strip()}")
    report = json.loads(lines[-1])
    if not report["correct"]:
        raise RuntimeError(f"{checkout}: {report['failed']} of {report['attempted']} commands failed")
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' quartiles, the pairs each side won (a tie is nobody's), and
    whether the change's gain meets the claim rule.  `parent[i]` and
    `change[i]` are the two runs of pair i; `better` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of samples on each side")
    sign = 1 if better == "lower" else -1
    change_wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    parent_wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    gain = sign * (p_q[1] - c_q[1])
    return {
        "parent": p_q,
        "change": c_q,
        "change_wins": change_wins,
        "parent_wins": parent_wins,
        "pairs": len(parent),
        "gain": gain,
        "claim_holds": CLAIM_OF * change_wins >= CLAIM_WINS * len(parent) and gain > p_q[2] - p_q[0],
    }


def cpu_per_wall(cpu: list[float], wall: list[float]) -> float:
    """The median over runs of each run's CPU time over its wall time."""
    return statistics.median(c / w for c, w in zip(cpu, wall, strict=True))


def report_lines(metric: str, unit: str, s: dict) -> list[str]:
    p, c = s["parent"], s["change"]
    return [
        f"{metric} ({unit})",
        f"  parent median {p[1]:.6g}  quartiles {p[0]:.6g} .. {p[2]:.6g}",
        f"  change median {c[1]:.6g}  quartiles {c[0]:.6g} .. {c[2]:.6g}",
        f"  pairs won: change {s['change_wins']}, parent {s['parent_wins']} of {s['pairs']}; "
        f"median gain {s['gain']:.6g} against parent IQR {p[2] - p[0]:.6g}; "
        f"claim {'holds' if s['claim_holds'] else 'does not hold'}",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    samples: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values = run_bench(getattr(args, side), args.workload, args.seed, args.seconds)
            for m in metrics:
                samples[side].setdefault(m["name"], []).append(values[m["name"]])
        names = [m["name"] for m in metrics]
        pair = "  ".join(f"{n} {samples['parent'][n][-1]:.4g} -> {samples['change'][n][-1]:.4g}" for n in names)
        print(f"pair {i + 1} ({order[0]} first): {pair}", flush=True)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds}, {args.pairs} pairs")
    for m in metrics:
        name = m["name"]
        s = summarize(samples["parent"][name], samples["change"][name], m["better"])
        print("\n".join(report_lines(name, m["unit"], s)))
    if {"cpu_ref_s", "wall_ref_s"} <= samples["parent"].keys():
        ratios = {side: cpu_per_wall(s["cpu_ref_s"], s["wall_ref_s"]) for side, s in samples.items()}
        print(
            f"cpu_ref_s / wall_ref_s median: parent {ratios['parent']:.3f}, change {ratios['change']:.3f} "
            "(1.0: one CPU's worth of time)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
