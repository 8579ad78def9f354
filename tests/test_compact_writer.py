"""`dumps_envelope(x, compact=True)` writes the bytes of
`json.dumps(x, ensure_ascii=False, separators=(",", ":"))`.

The compact writer calls a C encoder built once at import
(`cli._C_COMPACT`), or, where the interpreter has no `_json`, the
`JSONEncoder` it was built from.  Each case runs on both: the fallback is
forced by setting `cli._C_COMPACT` to None.  The cases are every reasons
array `scan 60` writes, with and without `--explain`, and payloads with
non-ASCII text, nested lists and tuples, None and booleans.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder

import pytest

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
