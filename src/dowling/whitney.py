"""Verification routes for the Whitney numbers of both kinds, the
Whitney-Lah numbers and the Dowling numbers.

The step parameter alpha is a nonzero integer; the polynomial machinery in
`basis` handles the defining relations, the engine in `families` generates
the tables, and the two must agree.
"""

from __future__ import annotations

from . import basis, families
from .exactmath import binomial
from .families import check_param
from .triangles import Triangle, horizontal_rows, product, transform, vertical_rows


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
            sum(binomial(n, i) * alpha ** (i - k) * s2[i][k] for i in range(k, n + 1))
            for k in range(n + 1)
        )
        for n in range(nmax + 1)
    )


def whitney_lah_vertical_rows(nmax: int, alpha) -> tuple:
    """Whitney-Lah rows 0..nmax assembled column-wise from the rows above,
    all from one triangle of rows 0..nmax-1:
    L(n,k) = sum_i (-1)^(i+1) prod_{j<i}((n-1+k-j)*alpha + 2) L(n-1-i, k-1).

    Holds for k >= 1 (plus the trivial corner): the expansion terminates on
    the zero entry L(k-1,k), and column 0 has no such stop because it is not
    identically zero here, so column 0 of the result is not L(n,0).
    """
    alpha = check_param("alpha", alpha)
    lah = families.triangle("whitney-lah", {"alpha": alpha}, max(nmax - 1, 0))
    return vertical_rows(lah, nmax, 2, alpha, -1)


def whitney_lah_horizontal_rows(nmax: int, alpha) -> tuple:
    """Whitney-Lah rows 0..nmax recovered row-wise from the row below, all
    from one triangle of rows 0..nmax+1:
    L(n,k) = sum_i (-1)^(i+1) prod_{j<i}((n+k+1+j)*alpha + 2) L(n+1, k+i+1)."""
    alpha = check_param("alpha", alpha)
    lah = families.triangle("whitney-lah", {"alpha": alpha}, nmax + 1)
    return horizontal_rows(lah, nmax, 2, alpha, -1)


def whitney_lah_from_whitney_rows(nmax: int, alpha) -> tuple:
    """Whitney-Lah rows as the signed product of the two Whitney kinds:
    L(n,j) = sum_k (-1)^k w(n,k) W(k,j), with w from one polynomial expansion."""
    w = whitney_first_by_expansion(nmax, alpha)
    second = families.triangle("whitney2", {"alpha": alpha}, nmax)
    return product(w.rows, second.rows, signed=True)


def whitney_lah_pair(nmax: int, alpha) -> tuple:
    """(L, L) for the Whitney-Lah matrix L, which is its own inverse."""
    tri = families.triangle("whitney-lah", {"alpha": alpha}, nmax)
    return tri, tri


def dowling_explicit_sequence(nmax: int, alpha) -> list:
    """Dowling numbers D_0..D_nmax through the alternating Whitney-Lah sum
    D_n = sum_j (-1)^(n-j) [sum_k (-1)^j L(j,k)] W(n,j), from one triangle
    of each kind."""
    lah = families.triangle("whitney-lah", {"alpha": alpha}, nmax)
    second = families.triangle("whitney2", {"alpha": alpha}, nmax)
    sums = [sum(row) for row in lah.rows]
    return [-v if n % 2 else v for n, v in enumerate(transform(second, sums))]


def dowling_explicit(n: int, alpha) -> int:
    """D_n from `dowling_explicit_sequence`."""
    return dowling_explicit_sequence(n, alpha)[n]
