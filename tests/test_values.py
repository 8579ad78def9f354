"""The value types are immutable NamedTuples: fields cannot be assigned,
six of them validate in their constructor, and all of them pickle."""

import pickle
import re

import pytest

from degenscope import cqs, density, markov, wps
from degenscope.cqs import CqsGerm, NormalizedCqs, TData
from degenscope.markov import GenSolution, MarkovTriple, NotASolution
from degenscope.wps import WpsTriple

VALUE_TYPES = {
    "CqsGerm", "NormalizedCqs", "TData", "BasketTag",
    "WpsTriple", "GermRecord", "FamilyAWitness", "FamilyBWitness",
    "Verdict", "WpsReport",
    "BoundCheck", "DensityCensus",
    "MarkovTriple", "GenSolution", "CentralFiberCandidate",
}


def value_instances():
    # P(1,3,4) lies in family A and in family B1 (n = 2), so its report
    # carries both witnesses.
    report = wps.analyze(WpsTriple(1, 3, 4))
    cen = density.census(7)
    return [
        CqsGerm(7, 9, -1),
        NormalizedCqs(7, 2),
        cqs.classify_t(NormalizedCqs(4, 1)),
        *cqs.basket_membership((3, 2)),
        report,
        report.triple,
        report.verdict,
        report.verdict.points[1],
        report.verdict.family_a,
        report.verdict.family_b,
        cen,
        cen.bound_checks[0],
        markov.classic_markov_enumerate(5)[-1],
        markov.gen_solutions(3, 10)[1],
        *markov.partial_smoothing_candidates(3, 1, 4),
    ]


def test_every_value_type_is_covered():
    assert {type(v).__name__ for v in value_instances()} == VALUE_TYPES


@pytest.mark.parametrize("value", value_instances(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1


# Bad inputs of the six validated constructors, with the exact exception
# type and message each one raises.
BAD_INPUTS = [
    (CqsGerm, (0, 1, 1), ValueError, "order must be >= 1, got 0"),
    (CqsGerm, (6, 2, 1), ValueError, "1/6(2,1): weight 2 is not a unit mod 6"),
    (CqsGerm, (6, 1, -3), ValueError, "1/6(1,3): weight 3 is not a unit mod 6"),
    (NormalizedCqs, (0, 0), ValueError, "order must be >= 1, got 0"),
    (NormalizedCqs, (1, 1), ValueError, "smooth marker must be (1, 0)"),
    (NormalizedCqs, (5, 0), ValueError, "need 0 < q < m, got (m,q)=(5,0)"),
    (NormalizedCqs, (5, 5), ValueError, "need 0 < q < m, got (m,q)=(5,5)"),
    (NormalizedCqs, (6, 2), ValueError, "(m,q)=(6,2) are not coprime"),
    (TData, (0, 1, 1), ValueError, "d and n must be positive"),
    (TData, (1, 0, 1), ValueError, "d and n must be positive"),
    (TData, (1, 2, 0), ValueError, "need 0 < a <= n coprime, got a=0, n=2"),
    (TData, (1, 3, 3), ValueError, "need 0 < a <= n coprime, got a=3, n=3"),
    (WpsTriple, (0, 1, 1), ValueError, "weights must be positive, got (0, 1, 1)"),
    (WpsTriple, (1, 2, -3), ValueError, "weights must be positive, got (1, 2, -3)"),
    (MarkovTriple, (2, 1, 1), ValueError, "need 1 <= a <= b <= c, got (2, 1, 1)"),
    (MarkovTriple, (1, 1, 3), NotASolution, "(1, 1, 3) fails a^2+b^2+c^2 = 3abc"),
    (GenSolution, (0, 1, 1), ValueError, "need n >= 1 and 1 <= x <= y, got (0, 1, 1)"),
    (GenSolution, (3, 2, 1), ValueError, "need n >= 1 and 1 <= x <= y, got (3, 2, 1)"),
    (GenSolution, (3, 1, 2), NotASolution, "(x,y)=(1, 2) fails n+x^2+y^2 = (n+2)xy at n=3"),
]


@pytest.mark.parametrize("cls, args, exc, message", BAD_INPUTS)
def test_validated_constructors_reject_bad_input(cls, args, exc, message):
    calls = (
        lambda: cls(*args),
        lambda: cls(**dict(zip(cls._fields, args))),
        lambda: cls._make(args),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            call()
        assert info.type is exc


def test_replace_goes_through_the_constructor():
    germ = CqsGerm(7, 1, 2)
    assert germ._replace(w1=9) == CqsGerm(7, 2, 2)
    with pytest.raises(ValueError, match="weight 0 is not a unit"):
        germ._replace(w1=7)
    with pytest.raises(NotASolution):
        MarkovTriple(1, 1, 2)._replace(c=3)


def test_germ_weights_are_reduced_mod_m():
    germ = CqsGerm(7, 9, -1)
    assert (germ.w1, germ.w2) == (2, 6)
    assert germ == CqsGerm(m=7, w1=9, w2=-1) == (7, 2, 6)


@pytest.mark.parametrize("triple", [(1, 3, 4), (1156, 1755625, 169), (2, 4, 6)])
def test_reports_and_verdicts_survive_pickling(triple):
    report = wps.analyze(WpsTriple(*triple))
    for value in (report, report.verdict):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)
