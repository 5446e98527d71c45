"""Verification routes for the Whitney numbers of the second kind.  Both
kinds by connection solve and by EGF are `basis.solve` and `basis.egf_rows`
over `families.TRIPLES`, the Dowling numbers' explicit formula is declared
with the paper's other Bell-type formulas in `families.SUMS`, and the
Whitney-Lah routes with the other Lah-type families in `identities.LAH_TYPES`.

The step parameter alpha is a nonzero integer.
"""

from __future__ import annotations

import math

from . import families
from .families import check_param


def whitney_second_benoumhani_rows(nmax: int, alpha) -> tuple:
    """Second-kind Whitney rows as binomial sums over one Stirling triangle:
    W(n,k) = sum_i C(n,i) alpha^(i-k) S(i,k)."""
    alpha = check_param("alpha", alpha)
    s2 = families.triangle("stirling2", {}, nmax).rows
    return tuple(
        tuple(
            sum(math.comb(n, i) * alpha ** (i - k) * s2[i][k] for i in range(k, n + 1))
            for k in range(n + 1)
        )
        for n in range(nmax + 1)
    )


def dowling_explicit(n: int, alpha) -> int:
    """D_n by the paper's alternating Whitney-Lah sum, `families.SUMS["dowling"]`."""
    return families.explicit_sum("dowling", {"alpha": alpha}, n)
