"""The benchmark's trace contract on the scan and large_germs paths.

`python3 bench/run.py --trace 1` counts a workload as failed when a span it
expects records no calls, so a fast path that stops calling one of the
traced public functions would break the benchmark while every other test
passes.  This runs the same tracer on a small scan and checks that each
span the scan_box workload expects was called; on its CSV twin, which must
call each span scan_parallel expects, and each plane span as often as the
JSON scan does; on small twins of the large_germs commands, whose chains
reach the writer through the spans below and which together must call
every span large_germs expects; and on a small density run, which must
call every span density_census expects.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_run():
    """bench/run.py, imported under a name of its own."""
    if "bench_run" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["bench_run"] = module  # its dataclasses look the module up
        spec.loader.exec_module(module)
    return sys.modules["bench_run"]


def _traced_functions(tmp_path: Path, cli_argv: list[str]) -> dict:
    """The per-span stats of one CLI command run under the benchmark's tracer."""
    stats_path = tmp_path / "stats.json"
    argv = [sys.executable, str(BENCH / "trace_main.py"), "--spans", "all", "--stats", str(stats_path)]
    subprocess.run([*argv, "--", *cli_argv], check=True, cwd=tmp_path, capture_output=True)
    return json.loads(stats_path.read_text(encoding="utf-8"))["functions"]


def _silent(functions: dict, expected) -> list[str]:
    return [span for span in expected if functions.get(span, {}).get("calls", 0) == 0]


# The calls `scan 14 --out F` (152 records) makes through each span: one
# per plane for every plane layer and the record envelope, one per fixed
# point for `normalize`, and one more `frac_fields` and `dumps_envelope`
# for the census summary.
SCAN_14_CALLS = {
    **dict.fromkeys(
        (
            "wps.degeneration_verdict",
            "wps.singular_points",
            "wps.family_A_member",
            "wps.family_B_member",
            "wps.wps_mld",
            "wps.wps_mld_below",
            "cqs.mld_less_than",
            "wps.k2",
            "cli.record_envelope",
        ),
        152,
    ),
    "cqs.normalize": 3 * 152,
    "cli.frac_fields": 153,
    "cli.dumps_envelope": 153,
}


@pytest.fixture(scope="module")
def scan_14_functions(tmp_path_factory) -> dict[str, dict]:
    """The per-span stats of `scan 14 --out F`, JSON and CSV, traced once for
    this module, each checked to write its 152 records."""
    stats = {}
    for name, flags, lines in (("json", [], 152), ("csv", ["--csv"], 153)):
        tmp_path = tmp_path_factory.mktemp(name)
        out_path = tmp_path / "scan.out"
        stats[name] = _traced_functions(tmp_path, [*flags, "scan", "14", "--out", str(out_path)])
        assert out_path.read_text(encoding="utf-8").count("\n") == lines
    return stats


def test_scan_calls_every_span_the_benchmark_expects(scan_14_functions):
    expected = _bench_run().SCAN_SPANS + ("cli.record_envelope",)
    functions = scan_14_functions["json"]
    assert _silent(functions, expected) == []
    # A faster path may not hide a layer from the trace: each plane span is
    # still called through its module attribute, once per plane.
    calls = {span: functions.get(span, {}).get("calls", 0) for span in SCAN_14_CALLS}
    assert calls == SCAN_14_CALLS


# The spans each plane of a scan calls whatever its output format; the
# record envelope, and the `dumps_envelope` call that writes its reasons,
# belong to the JSON line alone.
PLANE_SPANS = (
    *(span for span in SCAN_14_CALLS if span not in ("cli.record_envelope", "cli.dumps_envelope")),
    "cli.reason_payload",
)


def test_csv_scan_calls_every_span_the_benchmark_expects(scan_14_functions):
    # The CSV twin of the test above: the scan_parallel workload writes CSV.
    functions = scan_14_functions["csv"]
    assert _silent(functions, _bench_run().WORKLOADS["scan_parallel"].expected) == []
    calls = {span: functions.get(span, {}).get("calls", 0) for span in PLANE_SPANS}
    json_calls = {span: scan_14_functions["json"][span]["calls"] for span in PLANE_SPANS}
    assert calls == json_calls
    assert "cli.record_envelope" not in functions
    assert functions["cli.dumps_envelope"]["calls"] == 1  # the census summary


CHAIN_SPANS = ("cqs.hj_expand", "cqs.basket_membership", "cli.dumps_envelope")

# Small twins of the large_germs commands, by id.
TWINS = {
    "cqs": ["cqs", "60", "1", "59"],
    "wps": ["wps", "4", "25", "841"],
    "markov_degenerations": ["markov", "degenerations", "--n", "3", "--bound", "20"],
}


@pytest.fixture(scope="module")
def twin_functions(tmp_path_factory) -> dict[str, dict]:
    """The per-span stats of each twin, traced once for this module."""
    return {name: _traced_functions(tmp_path_factory.mktemp(name), argv) for name, argv in TWINS.items()}


@pytest.mark.parametrize(
    "twin,expected",
    [
        ("cqs", CHAIN_SPANS),
        ("wps", CHAIN_SPANS + ("cli.point_payload",)),
        ("markov_degenerations", CHAIN_SPANS + ("cli.point_payload",)),
    ],
    ids=["cqs", "wps", "markov_degenerations"],
)
def test_chain_commands_call_the_large_germs_spans(twin, expected, twin_functions):
    assert _silent(twin_functions[twin], expected) == []
    assert set(expected) <= set(_bench_run().WORKLOADS["large_germs"].expected)


def test_twins_together_call_every_large_germs_span(twin_functions):
    expected = _bench_run().WORKLOADS["large_germs"].expected
    silent = [span for span in expected if all(_silent(f, (span,)) for f in twin_functions.values())]
    assert silent == []


def test_density_calls_every_span_the_benchmark_expects(tmp_path):
    functions = _traced_functions(tmp_path, ["density", "30", "40"])
    assert _silent(functions, _bench_run().WORKLOADS["density_census"].expected) == []
