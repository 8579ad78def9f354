"""`dumps_envelope(x, compact=True)` writes the bytes of
`json.dumps(x, ensure_ascii=False, separators=(",", ":"))`.

The compact writer calls a C encoder built once at import
(`cli._C_COMPACT`), or, where the interpreter has no `_json`, the
`JSONEncoder` it was built from.  Each case runs on both: the fallback is
forced by setting `cli._C_COMPACT` to None.  The cases are every reasons
array `scan 60` writes, with and without `--explain`, and payloads with
non-ASCII text, nested lists and tuples, None and booleans.  Last, a
process that has no `_json` at all prints every JSON golden case of
`cqs`, `wps` and `scan` byte for byte.
"""

from __future__ import annotations

import json
import subprocess
import sys
from json.encoder import c_make_encoder
from pathlib import Path

import pytest
from golden_cases import CASES

from degenscope import cli


def compact_oracle(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


@pytest.fixture(params=["prebuilt", "fallback"])
def encoder(request, monkeypatch) -> str:
    """Which compact encoder `dumps_envelope` uses in the test."""
    if request.param == "fallback":
        monkeypatch.setattr(cli, "_C_COMPACT", None)
    return request.param


def test_the_prebuilt_encoder_is_used_where_json_has_one():
    assert (cli._C_COMPACT is None) == (c_make_encoder is None)


def scan_reasons(monkeypatch, explain: bool) -> list:
    """Every reasons array `run_scan(60)` hands to the compact writer."""
    arrays = []
    original = cli.dumps_envelope

    def spy(env, compact=False):
        if compact:
            arrays.append(env)
        return original(env, compact)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "dumps_envelope", spy)
        count = cli.run_scan(60, lambda line: None, explain=explain)
    assert len(arrays) == count
    return arrays


@pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
def test_every_scan_60_reasons_array(explain, encoder, monkeypatch):
    arrays = scan_reasons(monkeypatch, explain)
    kinds = {reason["kind"] for reasons in arrays for reason in reasons}
    assert kinds == {"in_family_a", "in_family_b", "mld_at_least_one_sixth"}
    assert [] in arrays
    assert all(("explain" in reason) == explain for reasons in arrays for reason in reasons)
    assert [r for r in arrays if cli.dumps_envelope(r, compact=True) != compact_oracle(r)] == []


@pytest.mark.parametrize(
    "obj",
    [
        None,
        True,
        False,
        0,
        -(2**70),
        "",
        "plain",
        "non-ASCII: é, ß, Ω, 数学, \U0001f600",
        'escapes: " \\ / \b \f \n \r \t \x00 \x1f \x7f  ',
        [],
        {},
        (),
        [None, True, False, 0, "x"],
        (1, (2, (3, ())), [4, (5,)]),
        [[[]], [{}], {"a": []}, {"b": ({},)}],
        {"kind": "in_family_b", "family": "B1", "permutation": (5, 9, 4), "indices": [0, 1, 2]},
        {"é": {"ß": [None, {"数": (True, False)}]}, "": ""},
        [{"kind": "mld_at_least_one_sixth", "mld": "1/5", "mld_decimal": "0.2", "explain": "≥ 1/6"}],
    ],
)
def test_explicit_payloads(obj, encoder):
    assert cli.dumps_envelope(obj, compact=True) == compact_oracle(obj)


TESTS = Path(__file__).resolve().parent

# The golden cases whose output the JSON writers print: every `cqs`, `wps`
# and non-CSV `scan` case, `--explain` ones included.
JSON_CASES = [
    (name, argv) for name, argv in CASES if name.split("_")[0] in ("cqs", "wps", "scan") and "--csv" not in argv
]

# Hides `_json` before anything imports it, then runs each case named on
# the command line in-process in its own directory under argv[1] and
# prints "ok NAME", or "differs NAME", per case.
NO_C_ACCELERATOR = """
import sys
sys.modules["_json"] = None
import contextlib, io, os
from pathlib import Path
tests = Path(sys.argv[2])
sys.path[:0] = [str(tests.parent / "src"), str(tests)]
from degenscope import cli
from golden_cases import CASES, OUT
assert cli._C_COMPACT is None
for name, argv in CASES:
    if name not in sys.argv[3:]:
        continue
    workdir = Path(sys.argv[1]) / name
    workdir.mkdir()
    os.chdir(workdir)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    same = code == 0 and buf.getvalue().encode() == (tests / "golden" / f"{name}.stdout").read_bytes()
    if OUT in argv:
        same = same and (workdir / OUT).read_bytes() == (tests / "golden" / f"{name}.outfile").read_bytes()
    print("ok" if same else "differs", name, flush=True)
"""


def test_golden_json_cases_without_the_c_accelerator(tmp_path):
    names = [name for name, _ in JSON_CASES]
    assert {"wps_explain_1_5_8", "scan_12_explain_out_jobs2", "scan_12", "cqs_2000_1_1999"} <= set(names)
    proc = subprocess.run(
        [sys.executable, "-c", NO_C_ACCELERATOR, str(tmp_path), str(TESTS), *names],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"ok {name}" for name in names]
