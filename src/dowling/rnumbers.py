"""r-Stirling, r-Lah, r-Bell, r-Whitney, r-Whitney-Lah and r-Dowling numbers.

Indexing follows the shifted convention: the (n, k) entry of an r-family
refers to a ground set of n+r elements split into k+r blocks, with the r
distinguished elements pairwise separated.  Row 0 is always [1].
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import basis, families
from .exactmath import (
    Poly,
    Series,
    as_integer,
    binomial,
    exp_series,
    generalized_rising,
)
from .families import check_param
from .triangles import Triangle, checkerboard, horizontal_rows, product, transform, vertical_rows


def r_stirling2(nmax: int, r) -> Triangle:
    """r-Stirling numbers of the second kind via
    T(n,k) = T(n-1,k-1) + (k+r) * T(n-1,k)."""
    return families.triangle("r-stirling2", {"r": r}, nmax)


def r_stirling1(nmax: int, r) -> Triangle:
    """Unsigned r-Stirling numbers of the first kind via
    T(n,k) = T(n-1,k-1) + (n-1+r) * T(n-1,k)."""
    return families.triangle("r-stirling1", {"r": r}, nmax)


def weighted_stirling_egf_check(nmax: int, r, order: int) -> bool:
    """True iff n! [t^n] (e^t - 1)^k / k! * e^(rt) matches the r-Stirling
    second-kind entries for all k <= nmax and n <= nmax."""
    r = check_param("r", r)
    if order < nmax:
        raise ValueError("order must be at least nmax")
    tri = r_stirling2(nmax, r)
    e_minus_1 = exp_series(order) - Series((1,), order)
    e_rt = exp_series(order, r)
    for k in range(nmax + 1):
        series = (e_minus_1 ** k) * Fraction(1, math.factorial(k)) * e_rt
        for n in range(nmax + 1):
            if series.coefficient(n) * math.factorial(n) != tri.value(n, k):
                return False
    return True


def r_lah(nmax: int, r) -> Triangle:
    """r-Lah numbers via T(n,k) = T(n-1,k-1) + (n-1+k+2r) * T(n-1,k)."""
    return families.triangle("r-lah", {"r": r}, nmax)


def r_lah_from_stirlings_rows(nmax: int, r) -> tuple:
    """r-Lah rows as the product of the two r-Stirling kinds:
    L(n,k) = sum_j A(n,j) * S(j,k)."""
    return product(r_stirling1(nmax, r).rows, r_stirling2(nmax, r).rows)


def r_lah_from_stirlings(n: int, k: int, r) -> int:
    """Entry (n, k) of `r_lah_from_stirlings_rows`."""
    r = check_param("r", r)
    return r_lah_from_stirlings_rows(n, r)[n][k] if 0 <= k <= n else 0


def r_inverse_pair(nmax: int, r) -> tuple:
    """The r-Stirling inverse pair as two tables: b_n = sum_j A(n,j) a_j is
    undone by a_n = sum_j (-1)^(n-j) S(n,j) b_j."""
    return r_stirling1(nmax, r), checkerboard(r_stirling2(nmax, r))


def verify_r_inverse(a, r) -> bool:
    """Round-trip check of the r-Stirling inverse pair."""
    r = check_param("r", r)
    a = list(a)
    if not a:
        return True
    first, second = r_inverse_pair(len(a) - 1, r)
    return transform(second, transform(first, a)) == a


def r_bell(n: int, r) -> int:
    """r-Bell number: row sum of the r-Stirling second-kind triangle."""
    return families.row_sum("r-stirling2", {"r": r}, n)


def r_bell_explicit_sequence(nmax: int, r) -> list:
    """r-Bell numbers B(0..nmax) through the alternating r-Lah sum
    B(n) = sum_k (-1)^(n-k) S(n,k) [sum_j L(k,j)], from one triangle of each."""
    r = check_param("r", r)
    sums = [-sum(row) if k % 2 else sum(row) for k, row in enumerate(r_lah(nmax, r).rows)]
    return [-v if n % 2 else v for n, v in enumerate(transform(r_stirling2(nmax, r), sums))]


def r_bell_explicit(n: int, r) -> int:
    """B(n) from `r_bell_explicit_sequence`."""
    return r_bell_explicit_sequence(n, r)[n]


def _scaled_falling_basis(m: int, nmax: int) -> basis.PolyBasis:
    """Elements m^k * x(x-1)...(x-k+1)."""
    elems = [Poly((1,))]
    for k in range(1, nmax + 1):
        elems.append(elems[-1] * Poly((-(k - 1), 1)) * m)
    return basis.PolyBasis(tuple(elems))


def r_whitney_second(nmax: int, m, r) -> Triangle:
    """r-Whitney numbers of the second kind via
    W(n,k) = W(n-1,k-1) + (k*m + r) * W(n-1,k)."""
    return families.triangle("r-whitney2", {"m": m, "r": r}, nmax)


def r_whitney_second_recurrence(nmax: int, m, r) -> Triangle:
    """Former name of the recurrence route, which is now the production path
    `r_whitney_second` itself; kept for existing callers such as
    `perfbench/pin.py`."""
    return r_whitney_second(nmax, m, r)


def r_whitney_second_by_solve(nmax: int, m, r) -> Triangle:
    """Verification route from the defining relation
    (mx+r)^n = sum_k m^k W(n,k) x(x-1)...(x-k+1), solved exactly."""
    m = check_param("m", m)
    r = check_param("r", r)
    source = basis.power_basis(Poly((r, m)), nmax)
    mat = basis.connection_matrix(source, _scaled_falling_basis(m, nmax))
    return mat.to_triangle("r-whitney2", {"m": m, "r": r})


def r_whitney_first(nmax: int, m, r) -> Triangle:
    """Unsigned r-Whitney numbers of the first kind via
    w(n,k) = w(n-1,k-1) + ((n-1)*m + r) * w(n-1,k)."""
    return families.triangle("r-whitney1", {"m": m, "r": r}, nmax)


def r_whitney_first_by_solve(nmax: int, m, r) -> Triangle:
    """Verification route: expand m^n x(x-1)...(x-n+1) in powers of (mx+r)
    and peel off the (-1)^(n-k) sign."""
    m = check_param("m", m)
    r = check_param("r", r)
    mat = basis.connection_matrix(
        _scaled_falling_basis(m, nmax), basis.power_basis(Poly((r, m)), nmax)
    )
    return checkerboard(mat).to_triangle("r-whitney1", {"m": m, "r": r})


def r_whitney_lah(nmax: int, m, r) -> Triangle:
    """r-Whitney-Lah numbers via
    L(n,k) = L(n-1,k-1) + (2r + (n+k-1)m) * L(n-1,k)."""
    return families.triangle("r-whitney-lah", {"m": m, "r": r}, nmax)


def r_whitney_lah_explicit(n: int, k: int, m, r) -> int:
    """Closed form C(n,k) * [2r|m]_n / [2r|m]_k; the quotient must divide
    exactly, anything else signals a bug."""
    m = check_param("m", m)
    r = check_param("r", r)
    if k < 0 or k > n:
        return 0
    denominator = generalized_rising(2 * r, m, k)
    if denominator == 0:
        # r = 0 with k >= 1 makes the printed quotient 0/0; the telescoped
        # product prod_{i=k}^{n-1}(2r + i*m) is its unique consistent value.
        tail = 1
        for i in range(k, n):
            tail *= 2 * r + i * m
        return binomial(n, k) * tail
    value = Fraction(binomial(n, k)) * generalized_rising(2 * r, m, n)
    return as_integer(value / denominator)


def r_whitney_lah_from_whitney_rows(nmax: int, m, r) -> tuple:
    """Product route: L(n,k) = sum_j w(n,j) W(j,k), no signs, with both
    r-Whitney kinds from one connection solve each."""
    first = r_whitney_first_by_solve(nmax, m, r)
    return product(first.rows, r_whitney_second_by_solve(nmax, m, r).rows)


def r_whitney_lah_from_whitney(n: int, k: int, m, r) -> int:
    """Entry (n, k) of `r_whitney_lah_from_whitney_rows`."""
    return r_whitney_lah_from_whitney_rows(n, m, r)[n][k] if 0 <= k <= n else 0


def r_whitney_lah_vertical_rows(nmax: int, m, r) -> tuple:
    """Column-wise route from the rows above, all from one triangle of rows
    0..nmax-1; it holds for k >= 1 (plus the trivial corner), so column 0 of
    the result is not L(n,0):
    L(n,k) = sum_{j=k-1}^{n-1} (2r + (n+k-1)m | m)_{n-1-j} L(j, k-1)."""
    m = check_param("m", m)
    r = check_param("r", r)
    return vertical_rows(r_whitney_lah(max(nmax - 1, 0), m, r), nmax, 2 * r, m, 1)


def r_whitney_lah_vertical(n: int, k: int, m, r) -> int:
    """Entry (n, k) of `r_whitney_lah_vertical_rows`, for 1 <= k <= n or n = k = 0."""
    if (n, k) != (0, 0) and not 1 <= k <= n:
        raise ValueError("the vertical route needs 1 <= k <= n")
    return r_whitney_lah_vertical_rows(n, m, r)[n][k]


def r_whitney_lah_horizontal_rows(nmax: int, m, r) -> tuple:
    """Row-wise route from the row below, all from one triangle of rows
    0..nmax+1: L(n,k) = sum_i (-1)^i [2r + (n+k+1)m | m]_i L(n+1, k+i+1)."""
    m = check_param("m", m)
    r = check_param("r", r)
    return horizontal_rows(r_whitney_lah(nmax + 1, m, r), nmax, 2 * r, m, 1)


def r_whitney_lah_horizontal(n: int, k: int, m, r) -> int:
    """Entry (n, k) of `r_whitney_lah_horizontal_rows`."""
    return r_whitney_lah_horizontal_rows(n, m, r)[n][k] if 0 <= k <= n else 0


def log_concavity_report(n: int, m, r) -> dict:
    """Check row n of the r-Whitney-Lah triangle for strict log-concavity.

    Returns both the product form L(n,k-1)*L(n,k+1) < L(n,k)^2 and the
    looser sum form L(n,k-1)+L(n,k+1) < L(n,k)^2, plus unimodality.
    """
    if n < 2:
        raise ValueError("log-concavity needs a row with interior entries")
    row = r_whitney_lah(n, m, r).row(n)
    product_form = all(row[k - 1] * row[k + 1] < row[k] ** 2 for k in range(1, n))
    sum_form = all(row[k - 1] + row[k + 1] < row[k] ** 2 for k in range(1, n))
    peak = max(range(n + 1), key=lambda k: row[k])
    unimodal = all(row[k] <= row[k + 1] for k in range(peak)) and all(
        row[k] >= row[k + 1] for k in range(peak, n)
    )
    return {"product": product_form, "sum": sum_form, "unimodal": unimodal}


def verify_log_concavity(n: int, m, r) -> bool:
    """True iff row n is strictly log-concave (product form) and unimodal."""
    report = log_concavity_report(n, m, r)
    return report["product"] and report["unimodal"]


def r_dowling(n: int, m, r) -> int:
    """r-Dowling number: row sum of the r-Whitney second-kind triangle."""
    return families.row_sum("r-whitney2", {"m": m, "r": r}, n)


def r_dowling_explicit_sequence(nmax: int, m, r) -> list:
    """r-Dowling numbers D(0..nmax) through the alternating r-Whitney-Lah sum
    D(n) = sum_j (-1)^(n-j) [sum_k L(j,k)] W(n,j), with W from one
    connection solve."""
    lah = r_whitney_lah(nmax, m, r)
    sums = [-sum(row) if j % 2 else sum(row) for j, row in enumerate(lah.rows)]
    second = r_whitney_second_by_solve(nmax, m, r)
    return [-v if n % 2 else v for n, v in enumerate(transform(second, sums))]


def r_dowling_explicit(n: int, m, r) -> int:
    """D(n) from `r_dowling_explicit_sequence`."""
    return r_dowling_explicit_sequence(n, m, r)[n]
