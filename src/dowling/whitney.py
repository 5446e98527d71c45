"""Verification routes for the Whitney numbers of both kinds; the Dowling
numbers' explicit formula is declared with the paper's other Bell-type
formulas in `classic.EXPLICIT`, and the Whitney-Lah routes with the other
Lah-type families in `identities.LAH_TYPES`.

The step parameter alpha is a nonzero integer; the polynomial machinery in
`basis` handles the defining relations, the engine in `families` generates
the tables, and the two must agree.
"""

from __future__ import annotations

import math

from . import basis, classic, families
from .families import check_param
from .triangles import Triangle


def whitney_first_by_expansion(nmax: int, alpha) -> Triangle:
    """Verification route: expand the step-alpha factorial in monomials."""
    alpha = check_param("alpha", alpha)
    mat = basis.expand_in_monomials(basis.factorial_basis(1, -1, alpha, nmax))
    return mat.to_triangle("whitney1", {"alpha": alpha})


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
    """D_n by the paper's alternating Whitney-Lah sum, `classic.EXPLICIT["dowling"]`."""
    return classic.explicit_sum("dowling", {"alpha": alpha}, n)
