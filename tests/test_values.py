"""The value types are immutable named tuples: fields cannot be assigned,
six of them validate in their constructor, all of them pickle, and their
fields, defaults and reprs are the ones recorded below."""

import pickle
import re
import sys
from fractions import Fraction

import pytest

from degenscope import cli, cqs, density, markov, wps
from degenscope.cqs import CqsGerm, NormalizedCqs, TData
from degenscope.markov import CentralFiberCandidate, GenSolution, MarkovTriple, NotASolution
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


def samples():
    """One instance of each value type and of the grammar's `cli.Arg`."""
    plane = wps.analyze(WpsTriple(1, 3, 4)).verdict
    report = wps.analyze(WpsTriple(2, 4, 6))
    cen = density.census(2)
    return [
        CqsGerm(7, 9, -1),
        NormalizedCqs(7, 2),
        cqs.classify_t(NormalizedCqs(4, 1)),
        min(cqs.basket_membership((3, 2))),
        WpsTriple(1, 3, 4),
        plane.points[1],
        plane.family_a,
        plane.family_b,
        report.verdict,
        report,
        cen.bound_checks[0],
        cen,
        MarkovTriple(1, 2, 5),
        GenSolution(3, 1, 4),
        CentralFiberCandidate("Toric", True, WpsTriple(1, 1, 3), (NormalizedCqs(3, 1),), Fraction(25, 3), 1),
        cli.Arg("--jobs", metavar="J"),
    ]


# Recorded from the value types as they were declared with `typing.NamedTuple`:
# the field names and the repr of the sample above, per type.
RECORDED = {
    "CqsGerm": ("m w1 w2", "CqsGerm(m=7, w1=2, w2=6)"),
    "NormalizedCqs": ("m q", "NormalizedCqs(m=7, q=2)"),
    "TData": ("d n a", "TData(d=1, n=2, a=1)"),
    "BasketTag": ("family pattern param", "BasketTag(family='F1', pattern='[3,2^k]', param=1)"),
    "WpsTriple": ("a b c", "WpsTriple(a=1, b=3, c=4)"),
    "GermRecord": (
        "normalized runs t_data rigid gorenstein_index baskets mld mld_u mld_text mld_decimal",
        "GermRecord(normalized=NormalizedCqs(m=3, q=1), runs=((3, 1),), t_data=None, rigid=True, "
        "gorenstein_index=3, baskets=frozenset({BasketTag(family='F1', pattern='[3,2^k]', param=0)}), "
        "mld=Fraction(2, 3), mld_u=2, mld_text='2/3', mld_decimal='0.666666666666')",
    ),
    "FamilyAWitness": ("permutation indices", "FamilyAWitness(permutation=(1, 3, 4), indices=(0, 1, 2))"),
    "FamilyBWitness": (
        "family n l k permutation indices",
        "FamilyBWitness(family='B1', n=2, l=0, k=0, permutation=(1, 3, 4), indices=(0, 1, 2))",
    ),
    "Verdict": (
        "outcome reasons points family_a family_b mld",
        "Verdict(outcome=<Outcome.OUT_OF_SCOPE: 'OutOfScope'>, reasons=('not_well_formed',), points=None, "
        "family_a=FamilyAWitness(permutation=(2, 4, 6), indices=(0, 1, 2)), family_b=None, mld=None)",
    ),
    "WpsReport": (
        "triple k2 noether verdict",
        "WpsReport(triple=WpsTriple(a=2, b=4, c=6), k2=Fraction(3, 1), noether=None, "
        "verdict=Verdict(outcome=<Outcome.OUT_OF_SCOPE: 'OutOfScope'>, reasons=('not_well_formed',), "
        "points=None, family_a=FamilyAWitness(permutation=(2, 4, 6), indices=(0, 1, 2)), family_b=None, "
        "mld=None))",
    ),
    "BoundCheck": ("name holds lhs rhs", "BoundCheck(name='A_single_role_residue_sum', holds=True, lhs='6', rhs='17')"),
    "DensityCensus": (
        "N count_A count_B1 count_B2 count_B3 count_S ratio bound_checks count_A_single_role "
        "count_B1_unordered count_B2_unordered count_B3_unordered",
        "DensityCensus(N=2, count_A=8, count_B1=0, count_B2=0, count_B3=0, count_S=8, ratio=Fraction(1, 1), "
        "bound_checks=(BoundCheck(name='A_single_role_residue_sum', holds=True, lhs='6', rhs='17'), "
        "BoundCheck(name='B1_ordered_below_6N^(3/2)', holds=True, lhs='0', rhs='6*2^(3/2) ~ 12')), "
        "count_A_single_role=6, count_B1_unordered=0, count_B2_unordered=0, count_B3_unordered=0)",
    ),
    "MarkovTriple": ("a b c", "MarkovTriple(a=1, b=2, c=5)"),
    "GenSolution": ("n x y", "GenSolution(n=3, x=1, y=4)"),
    "CentralFiberCandidate": (
        "kind is_general_fiber toric_model basket k2 rho note",
        "CentralFiberCandidate(kind='Toric', is_general_fiber=True, toric_model=WpsTriple(a=1, b=1, c=3), "
        "basket=(NormalizedCqs(m=3, q=1),), k2=Fraction(25, 3), rho=1, note='')",
    ),
    "Arg": (
        "name type nargs metavar required help",
        "Arg(name='--jobs', type=<class 'int'>, nargs=None, metavar='J', required=False, help=None)",
    ),
}

# The recorded defaults; every other type has none.
RECORDED_DEFAULTS = {
    "CentralFiberCandidate": {"note": ""},
    "Arg": {"type": int, "nargs": None, "metavar": None, "required": False, "help": None},
}


def test_the_samples_cover_every_recorded_type():
    assert [type(v).__name__ for v in samples()] == list(RECORDED)
    assert set(RECORDED) == VALUE_TYPES | {"Arg"}


@pytest.mark.parametrize("value", samples(), ids=lambda v: type(v).__name__)
def test_fields_defaults_and_repr_are_the_recorded_ones(value):
    cls = type(value)
    fields, text = RECORDED[cls.__name__]
    assert cls._fields == tuple(fields.split())
    assert cls._field_defaults == RECORDED_DEFAULTS.get(cls.__name__, {})
    assert repr(value) == text
    # A tuple with no instance dict, defined where pickle looks it up.
    assert isinstance(value, tuple)
    assert not hasattr(value, "__dict__")
    assert getattr(sys.modules[cls.__module__], cls.__name__) is cls
