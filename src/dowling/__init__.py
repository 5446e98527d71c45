"""Exact computation of Stirling, Lah, Whitney and Dowling number families,
their r- and unified generalizations, and the Bell-type row sums, with every
family available through at least two independent routes."""

from .basis import (
    PolyBasis,
    connection_matrix,
    expand_in_monomials,
    factorial_basis,
    monomial_basis,
    power_basis,
    verify_orthogonality,
    verify_tauber_product,
)
from .classic import (
    bell,
    lah_egf_check,
    lah_explicit,
    lah_signed_triangle,
    lah_signless,
    partial_bell,
    qi_bell,
    stirling1_by_expansion,
    stirling1_triangle,
    stirling2_triangle,
)
from .exactmath import (
    DegenerateBasisError,
    IntegralityError,
    Poly,
    Series,
    binomial,
    exp_series,
    generalized_rising,
    interpolate,
)
from .oracle import PartitionSpec, count_all_partitions, count_partitions
from .rnumbers import (
    r_bell,
    r_bell_explicit,
    r_dowling,
    r_dowling_explicit,
    r_lah,
    r_stirling1,
    r_stirling2,
    r_whitney_first,
    r_whitney_first_by_solve,
    r_whitney_lah,
    r_whitney_lah_explicit,
    r_whitney_second,
    r_whitney_second_by_solve,
    r_whitney_second_recurrence,
    verify_log_concavity,
    weighted_stirling_egf_check,
)
from .triangles import Triangle, transform
from .unified import (
    HSPair,
    HSParams,
    cakic,
    cakic_bell,
    cakic_bell_explicit,
    hs_bell,
    hs_bell_explicit,
    hs_lah_matrix,
    hs_lah_matrix_by_solve,
    hs_pair,
    hs_pair_by_solve,
    verify_specializations,
)
from .whitney import (
    bell_via_dowling,
    dowling,
    dowling_explicit,
    whitney_first,
    whitney_first_by_expansion,
    whitney_lah,
    whitney_second,
)

__version__ = "0.1.0"
