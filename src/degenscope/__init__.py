"""Exact-arithmetic toolkit for cyclic quotient surface singularities,
weighted projective plane invariants, Markov-type mutation censuses, and
Q-Gorenstein degeneration verdicts."""

from .cqs import (
    BasketTag,
    CqsGerm,
    Fraction,
    NormalizedCqs,
    SMOOTH,
    TData,
    basket_membership,
    classify_t,
    gorenstein_index,
    hj_eval,
    hj_expand,
    is_qg_rigid,
    milnor_mu,
    mld_brute,
    mld_less_than,
    mld_normalized,
    mld_upper_bound,
    normalize,
    reverse_type,
    same_singularity,
    wahl,
)
from .density import DensityCensus, census, count_family_A, count_family_B
from .markov import (
    CentralFiberCandidate,
    GenSolution,
    MarkovTriple,
    NotASolution,
    classic_markov_enumerate,
    gen_descend,
    gen_solutions,
    partial_smoothing_candidates,
    toric_degenerations_of_p11n,
)
from .wps import (
    FamilyAWitness,
    FamilyBWitness,
    Outcome,
    PointReport,
    Verdict,
    WpsReport,
    WpsTriple,
    analyze,
    degeneration_verdict,
    family_A_member,
    family_B_member,
    k2,
    noether_check,
    singular_points,
    wps_mld,
    wps_mld_below,
)

__version__ = "0.1.0"
