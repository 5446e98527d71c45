"""Exact computation of Stirling, Lah, Whitney and Dowling number families,
their r- and unified generalizations, and the Bell-type row sums.

Every family and sum is built by one engine, `families.triangle(name,
params, nmax)` and `families.row_sum(name, params, n)`; the functions
exported beside it are the paper's explicit formulas and the other
verification routes, each an independent way to the same numbers.  The
explicit formulas of the six Bell-type sums are one table,
`classic.EXPLICIT`, read by `explicit_sequence` and `explicit_sum`.  The
identity registry that checks them against the engine is
`dowling.identities`, imported on demand; the explicit, vertical, horizontal
and product routes of the four Lah-type families are built there, by
`identities.lah_route`, from one declaration of each family.  Every connection
solve is one integer routine, `basis.solve(family, params, nmax)`.
"""

from . import families
from .classic import (
    EXPLICIT,
    explicit_sequence,
    explicit_sum,
    lah_egf_check,
    partial_bell,
)
from .rnumbers import (
    r_dowling_explicit,
    r_inverse_pair,
    r_whitney_lah_explicit,
    verify_log_concavity,
    weighted_stirling_egf_check,
)
from .triangles import Triangle, transform
from .unified import (
    hs_bell_explicit,
    hs_pair_by_solve,
)
from .whitney import (
    dowling_explicit,
    whitney_second_benoumhani_rows,
)

__version__ = "0.1.0"
