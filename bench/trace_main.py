"""Run one degenscope CLI command in this interpreter with timed spans
around the public functions of each module.

    python3 bench/trace_main.py --spans all --stats STATS.json -- scan 20 --out f.jsonl

The program's source is not changed: every traced function is replaced by
a wrapper in each `degenscope` module namespace that bound it (`normalize`
is imported by name into `wps` and `cli`, for example), so calls through
any of those names are seen.  Spans are aggregated in memory per
(caller, callee) edge and written to the stats file when `cli.main`
returns; the command's own stdout is left untouched.

`--spans light` wraps only `cli.main` and the two pool entry points, which
gives the untraced reference for the tracing overhead and the pool
speed-up at a cost of a handful of wrapper calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The public functions whose spans make up the per-layer metrics, by module.
TRACED: dict[str, tuple[str, ...]] = {
    "cqs": (
        "normalize",
        "hj_expand",
        "classify_t",
        "is_qg_rigid",
        "gorenstein_index",
        "basket_membership",
        "mld_brute",
        "mld_normalized",
        "mld_less_than",
    ),
    "wps": (
        "singular_points",
        "k2",
        "noether_check",
        "wps_mld",
        "wps_mld_below",
        "family_A_member",
        "family_B_member",
        "degeneration_verdict",
        "analyze",
    ),
    "density": (
        "census",
        "family_b_ordered",
        "family_b_param_instances",
        "family_a_contains",
    ),
    "markov": ("toric_degenerations_of_p11n", "gen_solutions"),
    "cli": (
        "main",
        "run_scan",
        "dumps_envelope",
        "record_envelope",
        "wps_payload",
        "point_payload",
        "reason_payload",
        "census_payload",
        "frac_fields",
    ),
}
ALL_SPANS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
LIGHT_SPANS = ("cli.main", "cli.run_scan", "density.census")

# lru caches whose hit ratios are reported; a cache the program no longer
# has is reported as absent rather than failing the run.
CACHES = {
    "wps.point_cache": ("wps", "_point_core"),
    "cqs.mld_cache": ("cqs", "_mld_normalized"),
    "cqs.basket_cache": ("cqs", "_basket_tags"),
}

ROOT_SPAN = "<root>"


class Tracer:
    """Aggregates nested spans: calls and self time per (caller, callee)."""

    def __init__(self) -> None:
        self.stack: list[list] = [[ROOT_SPAN, 0]]
        self.edges: dict[tuple[str, str], list[int]] = {}

    def wrap(self, name: str, fn):
        stack = self.stack
        edges = self.edges
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                key = (parent[0], name)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, dt - frame[1]]
                else:
                    edge[0] += 1
                    edge[1] += dt - frame[1]

        return span

    def install(self, names) -> dict[str, list[str]]:
        """Wrap each `module.function` in every degenscope namespace that
        holds it; returns the namespaces patched per name.  A name the
        program no longer defines raises, so a rename cannot silently
        zero a layer."""
        import degenscope.cli  # noqa: F401  (imports every other submodule)

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "degenscope" or name.startswith("degenscope."))
        }
        sites: dict[str, list[str]] = {}
        for qualname in names:
            mod_name, fn_name = qualname.split(".")
            home = modules.get(f"degenscope.{mod_name}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                raise LookupError(f"degenscope.{qualname} is not a function")
            wrapper = self.wrap(qualname, original)
            sites[qualname] = []
            for ns_name, ns in sorted(modules.items()):
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        sites[qualname].append(f"{ns_name}.{attr}")
        return sites

    def main_ns(self) -> int:
        return self.stack[0][1]

    def functions(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for (_, name), (calls, self_ns) in self.edges.items():
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += calls
            agg["self_s"] += self_ns / 1e9
        return out


def cache_counts() -> dict[str, list[int]]:
    import degenscope

    out = {}
    for label, (mod_name, attr) in CACHES.items():
        fn = getattr(getattr(degenscope, mod_name), attr, None)
        if fn is not None and hasattr(fn, "cache_info"):
            info = fn.cache_info()
            out[label] = [info.hits, info.misses]
    return out


def run(argv: list[str], spans) -> dict:
    """Trace one `cli.main(argv)` call and return its stats."""
    tracer = Tracer()
    tracer.install(spans)
    from degenscope import cli

    code = cli.main(argv)
    sys.stdout.flush()
    return {
        "argv": argv,
        "exit_code": code,
        "main_s": tracer.main_ns() / 1e9,
        "functions": tracer.functions(),
        "edges": [
            {"caller": caller, "callee": callee, "calls": calls, "self_s": self_ns / 1e9}
            for (caller, callee), (calls, self_ns) in sorted(tracer.edges.items())
        ],
        "caches": cache_counts(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", choices=("all", "light"), required=True)
    parser.add_argument("--stats", required=True, help="file that receives the span stats")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- followed by the CLI arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    sys.path.insert(0, str(SRC))
    stats = run(argv, ALL_SPANS if args.spans == "all" else LIGHT_SPANS)
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return stats["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
