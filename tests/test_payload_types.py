"""Every payload the CLI builds holds only JSON node types.

Payload pieces come from the value types' own `_asdict()`, so a field
that is itself a value type (a NamedTuple), a `Fraction` or an `Enum`
could reach a payload.  The pretty writer raises on such a node, but the
compact C encoder, which writes every scan record's reasons array, writes
any tuple subclass as an array without consulting its `default`: only a
walk of the payloads themselves catches the leak.
"""

from __future__ import annotations

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest
from oracles import scan_envelope, scan_planes, scan_record

from degenscope import cli, density, markov, wps
from degenscope.cqs import CqsGerm
from degenscope.wps import WpsTriple

NODE_TYPES = (dict, list, tuple, str, int, bool, type(None), cli.ChainRuns)

# The planes and germs of the `wps` and `cqs` cases in tests/test_golden.py.
GOLDEN_PLANES = [(1, 1000, 1001), (4, 25, 841), (1, 5, 8), (2, 4, 5), (2, 4, 6), (1, 5, 7), (1, 4, 5)]
GOLDEN_GERMS = [
    (12, 1, 7, None),
    (841, 1, 637, 12),
    (9, 1, 2, None),
    (17, 3, 11, None),
    (1, 0, 0, None),
    (2000, 1, 1999, None),
]


def foreign_nodes(obj, path: str = "$") -> list[str]:
    """The paths in `obj` of every node whose exact type is not a JSON node
    type, or of every dict key that is not a str."""
    kind = type(obj)
    if kind not in NODE_TYPES:
        return [f"{path}: {kind.__name__}"]
    if kind is cli.ChainRuns:
        return foreign_nodes(obj.runs, f"{path}.runs")
    found = []
    if kind is dict:
        for key, value in obj.items():
            if type(key) is not str:
                found.append(f"{path} key {key!r}: {type(key).__name__}")
            found += foreign_nodes(value, f"{path}.{key}")
    elif kind in (list, tuple):
        for i, item in enumerate(obj):
            found += foreign_nodes(item, f"{path}[{i}]")
    return found


def test_walker_finds_value_objects_fractions_and_enums():
    leaks = {
        "germ": CqsGerm(5, 1, 2),
        "point": wps.germ_record(CqsGerm(5, 1, 2)),
        "n": [wps.degeneration_verdict(WpsTriple(1, 3, 4)).outcome],
        "k2": (wps.k2(WpsTriple(1, 1, 1)),),
        "chain": cli.ChainRuns(((2, 3), (5, Fraction(1)))),
        1: "key",
    }
    assert foreign_nodes(leaks) == [
        "$.germ: CqsGerm",
        "$.point: GermRecord",
        "$.n[0]: Outcome",
        "$.k2[0]: Fraction",
        "$.chain.runs[1][1]: Fraction",
        "$ key 1: int",
    ]


@pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
def test_scan_records(explain):
    # A scan line is a format string around its reasons array, which the
    # compact encoder writes.  The oracle envelope, whose bytes
    # tests/test_scan_records.py matches line for line, holds every value of
    # the line, and its reasons are the plane's `reason_payload` dicts.
    planes = list(scan_planes(12))
    assert len(planes) == cli.run_scan(12, lambda line: None)
    for p in planes:
        assert foreign_nodes(scan_envelope(scan_record(p, explain))) == [], p


@pytest.mark.parametrize("weights", GOLDEN_PLANES, ids=lambda w: "_".join(map(str, w)))
def test_wps_payloads(weights):
    for explain in (False, True):
        assert foreign_nodes(cli.wps_payload(wps.analyze(WpsTriple(*weights)), explain)) == []


@pytest.mark.parametrize("m,w1,w2,bound", GOLDEN_GERMS, ids=lambda v: str(v))
def test_cqs_payloads(capsys, m, w1, w2, bound):
    assert foreign_nodes(cli._cmd_cqs(SimpleNamespace(m=m, w1=w1, w2=w2, bound=bound))) == []
    argv = ["cqs", str(m), str(w1), str(w2)] + ([] if bound is None else ["--bound", str(bound)])
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["warnings"] == []


def test_census_and_candidate_payloads():
    for N in (1, 12, 50):
        assert foreign_nodes(cli.census_payload(density.census(N))) == []
    cands = markov.partial_smoothing_candidates(3, 4, 19)
    assert cands
    for cand in cands:
        assert foreign_nodes(cli.candidate_payload(cand)) == []
