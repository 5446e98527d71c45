"""Exact computation of Stirling, Lah, Whitney and Dowling number families,
their r- and unified generalizations, and the Bell-type row sums.

Every family and sum is built by one engine, `families.triangle(name,
params, nmax)` and `families.row_sum(name, params, n)`; the functions
exported beside it are the paper's explicit formulas and the other
verification routes, each an independent way to the same numbers.  The
identity registry that checks them against the engine is
`dowling.identities`, imported on demand.
"""

from . import families
from .classic import (
    lah_egf_check,
    lah_explicit,
    lah_from_stirlings_rows,
    lah_horizontal_rows,
    lah_signless,
    lah_vertical_rows,
    partial_bell,
    qi_bell,
    stirling1_by_expansion,
)
from .rnumbers import (
    r_bell_explicit,
    r_bell_explicit_sequence,
    r_dowling_explicit,
    r_dowling_explicit_sequence,
    r_inverse_pair,
    r_lah_from_stirlings_rows,
    r_whitney_first_by_solve,
    r_whitney_lah_explicit,
    r_whitney_lah_from_whitney_rows,
    r_whitney_lah_horizontal_rows,
    r_whitney_lah_vertical_rows,
    r_whitney_second_by_solve,
    verify_log_concavity,
    weighted_stirling_egf_check,
)
from .triangles import Triangle, transform
from .unified import (
    hs_bell_explicit,
    hs_bell_explicit_sequence,
    hs_lah_matrix_by_solve,
    hs_pair,
    hs_pair_by_solve,
    verify_specializations,
)
from .whitney import (
    dowling_explicit,
    dowling_explicit_sequence,
    whitney_first_by_expansion,
    whitney_lah_from_whitney_rows,
    whitney_lah_horizontal_rows,
    whitney_lah_pair,
    whitney_lah_vertical_rows,
    whitney_second_benoumhani_rows,
)

__version__ = "0.1.0"
