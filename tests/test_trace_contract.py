"""The benchmark's trace contract on the scan path.

`python3 bench/run.py --trace 1` counts a scan workload as failed when a
span it expects records no calls, so a fast path that stops calling one of
the traced public functions would break the benchmark while every other
test passes.  This runs the same tracer on a small scan and checks that
each span the scan_box workload expects was called.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_run():
    """bench/run.py, imported under a name of its own."""
    if "bench_run" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["bench_run"] = module  # its dataclasses look the module up
        spec.loader.exec_module(module)
    return sys.modules["bench_run"]


def test_scan_calls_every_span_the_benchmark_expects(tmp_path):
    expected = _bench_run().SCAN_SPANS + ("cli.record_envelope",)
    stats_path, out_path = tmp_path / "stats.json", tmp_path / "scan.out"
    argv = [sys.executable, str(BENCH / "trace_main.py"), "--spans", "all", "--stats", str(stats_path)]
    argv += ["--", "scan", "14", "--out", str(out_path)]
    subprocess.run(argv, check=True, cwd=tmp_path, capture_output=True)
    functions = json.loads(stats_path.read_text(encoding="utf-8"))["functions"]
    silent = [span for span in expected if functions.get(span, {}).get("calls", 0) == 0]
    assert silent == []
    assert out_path.read_text(encoding="utf-8").count("\n") > 0
