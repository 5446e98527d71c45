"""Whitney numbers of both kinds, Whitney-Lah numbers, and Dowling numbers.

The step parameter alpha is a positive integer for the combinatorial
families; the polynomial machinery in `basis` handles the defining
relations, the recurrences generate the tables, and the two must agree.
"""

from __future__ import annotations

from . import basis, classic, families
from .exactmath import binomial
from .families import check_param
from .triangles import Triangle, horizontal_rows, product, transform, vertical_rows


def whitney_first(nmax: int, alpha) -> Triangle:
    """Whitney numbers of the first kind: w(n,k) is the coefficient of x^k
    in the step-alpha factorial (x-1)(x-1-alpha)...(x-1-(n-1)alpha), via
    w(n,k) = w(n-1,k-1) - (1 + (n-1)*alpha) * w(n-1,k)."""
    return families.triangle("whitney1", {"alpha": alpha}, nmax)


def whitney_first_by_expansion(nmax: int, alpha) -> Triangle:
    """Verification route: expand the step-alpha factorial in monomials."""
    alpha = check_param("alpha", alpha)
    mat = basis.expand_in_monomials(basis.factorial_basis(1, -1, alpha, nmax))
    return mat.to_triangle("whitney1", {"alpha": alpha})


def whitney_second(nmax: int, alpha) -> Triangle:
    """Whitney numbers of the second kind via
    W(n,k) = W(n-1,k-1) + (1 + alpha*k) * W(n-1,k)."""
    return families.triangle("whitney2", {"alpha": alpha}, nmax)


def whitney_second_benoumhani_rows(nmax: int, alpha) -> tuple:
    """Second-kind Whitney rows as binomial sums over one Stirling triangle:
    W(n,k) = sum_i C(n,i) alpha^(i-k) S(i,k)."""
    alpha = check_param("alpha", alpha)
    s2 = classic.stirling2_triangle(nmax).rows
    return tuple(
        tuple(
            sum(binomial(n, i) * alpha ** (i - k) * s2[i][k] for i in range(k, n + 1))
            for k in range(n + 1)
        )
        for n in range(nmax + 1)
    )


def whitney_lah(nmax: int, alpha) -> Triangle:
    """Whitney-Lah triangle via
    L(n,k) = -L(n-1,k-1) - ((k+n-1)*alpha + 2) * L(n-1,k)."""
    return families.triangle("whitney-lah", {"alpha": alpha}, nmax)


def whitney_lah_vertical_rows(nmax: int, alpha) -> tuple:
    """Whitney-Lah rows 0..nmax assembled column-wise from the rows above,
    all from one triangle of rows 0..nmax-1:
    L(n,k) = sum_i (-1)^(i+1) prod_{j<i}((n-1+k-j)*alpha + 2) L(n-1-i, k-1).

    Holds for k >= 1 (plus the trivial corner): the expansion terminates on
    the zero entry L(k-1,k), and column 0 has no such stop because it is not
    identically zero here, so column 0 of the result is not L(n,0).
    """
    alpha = check_param("alpha", alpha)
    return vertical_rows(whitney_lah(max(nmax - 1, 0), alpha), nmax, 2, alpha, -1)


def whitney_lah_horizontal_rows(nmax: int, alpha) -> tuple:
    """Whitney-Lah rows 0..nmax recovered row-wise from the row below, all
    from one triangle of rows 0..nmax+1:
    L(n,k) = sum_i (-1)^(i+1) prod_{j<i}((n+k+1+j)*alpha + 2) L(n+1, k+i+1)."""
    alpha = check_param("alpha", alpha)
    return horizontal_rows(whitney_lah(nmax + 1, alpha), nmax, 2, alpha, -1)


def whitney_lah_from_whitney_rows(nmax: int, alpha) -> tuple:
    """Whitney-Lah rows as the signed product of the two Whitney kinds:
    L(n,j) = sum_k (-1)^k w(n,k) W(k,j), with w from one polynomial expansion."""
    w = whitney_first_by_expansion(nmax, alpha)
    return product(w.rows, whitney_second(nmax, alpha).rows, signed=True)


def whitney_lah_pair(nmax: int, alpha) -> tuple:
    """(L, L) for the Whitney-Lah matrix L, which is its own inverse."""
    tri = whitney_lah(nmax, alpha)
    return tri, tri


def dowling(n: int, alpha) -> int:
    """Dowling number: row sum of the second-kind Whitney triangle."""
    return families.row_sum("whitney2", {"alpha": alpha}, n)


def dowling_explicit_sequence(nmax: int, alpha) -> list:
    """Dowling numbers D_0..D_nmax through the alternating Whitney-Lah sum
    D_n = sum_j (-1)^(n-j) [sum_k (-1)^j L(j,k)] W(n,j), from one triangle
    of each kind."""
    lah = whitney_lah(nmax, alpha)
    sums = [sum(row) for row in lah.rows]
    return [-v if n % 2 else v for n, v in enumerate(transform(whitney_second(nmax, alpha), sums))]


def dowling_explicit(n: int, alpha) -> int:
    """D_n from `dowling_explicit_sequence`."""
    return dowling_explicit_sequence(n, alpha)[n]


def bell_via_dowling(n: int) -> int:
    """Bell number shifted through the unit-step Dowling chain: D_n(1) = B_{n+1}."""
    return dowling(n, 1)
