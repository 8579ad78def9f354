"""Self-tests of the benchmark's tracer, input generator and metric names.

    python3 -m pytest -q bench/test_bench.py

The traced workloads run at reduced sizes, so recorded digests do not
apply here; these tests look only at the trace's own accounting.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from trace_main import ALL_SPANS, SRC, TRACED  # noqa: E402


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink every workload so a traced pass takes a second or two."""
    monkeypatch.setattr(run, "SCAN_N", 14)
    monkeypatch.setattr(run, "DENSITY_SIZES", (30, 40))
    monkeypatch.setattr(run, "WAHL_N", 30)
    monkeypatch.setattr(run, "WAHL_A", 7)
    monkeypatch.setattr(run, "DU_VAL_M", 60)
    monkeypatch.setattr(run, "MARKOV_PLANES", ((1, 4, 25), (4, 25, 841)))
    monkeypatch.setattr(run, "DEGENERATIONS", ((3, 20),))
    tmp = run.OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return tmp


def test_every_binding_of_a_traced_function_is_patched():
    code = f"""
import json, sys
sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]
import trace_main
import degenscope.cli
originals = [getattr(sys.modules["degenscope." + q.split(".")[0]], q.split(".")[1]) for q in trace_main.ALL_SPANS]
sites = trace_main.Tracer().install(trace_main.ALL_SPANS)
left = [f"{{n}}.{{a}}" for n, m in list(sys.modules.items()) if n.startswith("degenscope")
        for a, v in vars(m).items() if any(v is o for o in originals)]
print(json.dumps({{"sites": sites, "left": left}}))
"""
    out = json.loads(subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True).stdout)
    assert out["left"] == []
    assert set(out["sites"]) == set(ALL_SPANS)
    for qualname in ALL_SPANS:
        assert f"degenscope.{qualname}" in out["sites"][qualname]
    # normalize is imported by name into wps and cli; both bindings are traced.
    assert {"degenscope.wps.normalize", "degenscope.cli.normalize"} <= set(out["sites"]["cqs.normalize"])


def test_missing_function_fails_loudly():
    from trace_main import Tracer

    sys.path.insert(0, str(SRC))
    with pytest.raises(LookupError):
        Tracer().install(["cqs.no_such_function"])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_workload_accounting(name, small):
    tally = run.Tally()
    result = run.trace(run.WORKLOADS[name], 7, small, tally)
    metrics = {k: v for k, (v, _) in result["metrics"].items()}
    # Every span expected on the workload recorded at least one call.
    assert [p for p in tally.problems if p.startswith("span ")] == []
    for span in run.WORKLOADS[name].expected:
        assert metrics[f"{span}.calls"] >= 1, span
    # Self times are never negative, and the layers plus the time outside
    # cli.main add up to the traced wall time.
    assert all(metrics[f"{s}.self_s"] >= 0 for s in ALL_SPANS)
    layers = sum(metrics[f"layer.{layer}.self_s"] for layer in TRACED)
    assert metrics["layer.outside_main_s"] > 0
    assert layers + metrics["layer.outside_main_s"] == pytest.approx(result["samples"]["traced_wall_s"], abs=1e-6)
    assert layers == pytest.approx(result["samples"]["main_s"], rel=1e-3, abs=1e-3)


def test_seeded_inputs_are_reproducible_and_valid():
    first = [c.argv for c in run.large_germ_commands(11)]
    assert first == [c.argv for c in run.large_germ_commands(11)]
    assert first != [c.argv for c in run.large_germ_commands(12)]
    for cmd in run.large_germ_commands(11):
        if cmd.argv[0] == "cqs":
            m, w1, w2 = map(int, cmd.argv[1:])
            assert m <= run.MLD_CAP and pow(w1, -1, m) * w2 % m == cmd.expect["q"]


def test_echo_check_rejects_other_units():
    canon = run.echo_canon(5, 7)
    good = b'{\n  "input": {\n    "w1": 5,\n    "w2": 7\n  },\n  "germ": {\n    "w1": 5,\n    "w2": 7\n  }\n}\n'
    body, problems = canon(good)
    assert problems == [] and b"5" not in body and b"7" not in body
    assert canon(good.replace(b'"w2": 7\n  }\n}', b'"w2": 8\n  }\n}'))[1] != []


def test_metric_names_match_benchmark_json(small):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tally = run.Tally()
    e2e = run.measure(run.WORKLOADS["density_census"], 1, 1, small, tally)
    assert list(e2e["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert {n: u for n, (_, u) in e2e["metrics"].items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = run.trace(run.WORKLOADS["density_census"], 1, small, run.Tally())
    assert {n: u for n, (_, u) in layer["metrics"].items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_reference_probe_does_not_import_the_program():
    code = f"""
import sys
sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]
import reference
print(reference.job())
print(any(name.startswith("degenscope") for name in sys.modules))
"""
    lines = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True).stdout.splitlines()
    assert lines == [run.reference_checksum(), "False"]
