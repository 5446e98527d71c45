"""Verification routes for the r-Stirling, r-Lah, r-Bell, r-Whitney,
r-Whitney-Lah and r-Dowling numbers.

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


def weighted_stirling_egf_check(nmax: int, r, order: int) -> bool:
    """True iff n! [t^n] (e^t - 1)^k / k! * e^(rt) matches the r-Stirling
    second-kind entries for all k <= nmax and n <= nmax."""
    r = check_param("r", r)
    if order < nmax:
        raise ValueError("order must be at least nmax")
    tri = families.triangle("r-stirling2", {"r": r}, nmax)
    e_minus_1 = exp_series(order) - Series((1,), order)
    e_rt = exp_series(order, r)
    for k in range(nmax + 1):
        series = (e_minus_1 ** k) * Fraction(1, math.factorial(k)) * e_rt
        for n in range(nmax + 1):
            if series.coefficient(n) * math.factorial(n) != tri.value(n, k):
                return False
    return True


def r_lah_from_stirlings_rows(nmax: int, r) -> tuple:
    """r-Lah rows as the product of the two r-Stirling kinds:
    L(n,k) = sum_j A(n,j) * S(j,k)."""
    first = families.triangle("r-stirling1", {"r": r}, nmax)
    second = families.triangle("r-stirling2", {"r": r}, nmax)
    return product(first.rows, second.rows)


def r_inverse_pair(nmax: int, r) -> tuple:
    """The r-Stirling inverse pair as two tables: b_n = sum_j A(n,j) a_j is
    undone by a_n = sum_j (-1)^(n-j) S(n,j) b_j."""
    first = families.triangle("r-stirling1", {"r": r}, nmax)
    second = families.triangle("r-stirling2", {"r": r}, nmax)
    return first, checkerboard(second)


def r_bell_explicit_sequence(nmax: int, r) -> list:
    """r-Bell numbers B(0..nmax) through the alternating r-Lah sum
    B(n) = sum_k (-1)^(n-k) S(n,k) [sum_j L(k,j)], from one triangle of each."""
    r = check_param("r", r)
    lah = families.triangle("r-lah", {"r": r}, nmax)
    second = families.triangle("r-stirling2", {"r": r}, nmax)
    sums = [-sum(row) if k % 2 else sum(row) for k, row in enumerate(lah.rows)]
    return [-v if n % 2 else v for n, v in enumerate(transform(second, sums))]


def r_bell_explicit(n: int, r) -> int:
    """B(n) from `r_bell_explicit_sequence`."""
    return r_bell_explicit_sequence(n, r)[n]


def _scaled_falling_basis(m: int, nmax: int) -> basis.PolyBasis:
    """Elements m^k * x(x-1)...(x-k+1)."""
    elems = [Poly((1,))]
    for k in range(1, nmax + 1):
        elems.append(elems[-1] * Poly((-(k - 1), 1)) * m)
    return basis.PolyBasis(tuple(elems))


def r_whitney_second_recurrence(nmax: int, m, r) -> Triangle:
    """The engine's r-Whitney second-kind triangle, by the name `perfbench/pin.py` calls."""
    return families.triangle("r-whitney2", {"m": m, "r": r}, nmax)


def r_whitney_second_by_solve(nmax: int, m, r) -> Triangle:
    """Verification route from the defining relation
    (mx+r)^n = sum_k m^k W(n,k) x(x-1)...(x-k+1), solved exactly."""
    m = check_param("m", m)
    r = check_param("r", r)
    source = basis.power_basis(Poly((r, m)), nmax)
    mat = basis.connection_matrix(source, _scaled_falling_basis(m, nmax))
    return mat.to_triangle("r-whitney2", {"m": m, "r": r})


def r_whitney_first_by_solve(nmax: int, m, r) -> Triangle:
    """Verification route: expand m^n x(x-1)...(x-n+1) in powers of (mx+r)
    and peel off the (-1)^(n-k) sign."""
    m = check_param("m", m)
    r = check_param("r", r)
    mat = basis.connection_matrix(
        _scaled_falling_basis(m, nmax), basis.power_basis(Poly((r, m)), nmax)
    )
    return checkerboard(mat).to_triangle("r-whitney1", {"m": m, "r": r})


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


def r_whitney_lah_vertical_rows(nmax: int, m, r) -> tuple:
    """Column-wise route from the rows above, all from one triangle of rows
    0..nmax-1; it holds for k >= 1 (plus the trivial corner), so column 0 of
    the result is not L(n,0):
    L(n,k) = sum_{j=k-1}^{n-1} (2r + (n+k-1)m | m)_{n-1-j} L(j, k-1)."""
    m = check_param("m", m)
    r = check_param("r", r)
    lah = families.triangle("r-whitney-lah", {"m": m, "r": r}, max(nmax - 1, 0))
    return vertical_rows(lah, nmax, 2 * r, m, 1)


def r_whitney_lah_horizontal_rows(nmax: int, m, r) -> tuple:
    """Row-wise route from the row below, all from one triangle of rows
    0..nmax+1: L(n,k) = sum_i (-1)^i [2r + (n+k+1)m | m]_i L(n+1, k+i+1)."""
    m = check_param("m", m)
    r = check_param("r", r)
    lah = families.triangle("r-whitney-lah", {"m": m, "r": r}, nmax + 1)
    return horizontal_rows(lah, nmax, 2 * r, m, 1)


def verify_log_concavity(n: int, m, r) -> bool:
    """True iff row n of the r-Whitney-Lah triangle is strictly log-concave,
    L(n,k-1)*L(n,k+1) < L(n,k)^2, and unimodal."""
    if n < 2:
        raise ValueError("log-concavity needs a row with interior entries")
    row = families.triangle("r-whitney-lah", {"m": m, "r": r}, n).row(n)
    peak = max(range(n + 1), key=lambda k: row[k])
    return (
        all(row[k - 1] * row[k + 1] < row[k] ** 2 for k in range(1, n))
        and all(row[k] <= row[k + 1] for k in range(peak))
        and all(row[k] >= row[k + 1] for k in range(peak, n))
    )


def r_dowling_explicit_sequence(nmax: int, m, r) -> list:
    """r-Dowling numbers D(0..nmax) through the alternating r-Whitney-Lah sum
    D(n) = sum_j (-1)^(n-j) [sum_k L(j,k)] W(n,j), with W from one
    connection solve."""
    lah = families.triangle("r-whitney-lah", {"m": m, "r": r}, nmax)
    sums = [-sum(row) if j % 2 else sum(row) for j, row in enumerate(lah.rows)]
    second = r_whitney_second_by_solve(nmax, m, r)
    return [-v if n % 2 else v for n, v in enumerate(transform(second, sums))]


def r_dowling_explicit(n: int, m, r) -> int:
    """D(n) from `r_dowling_explicit_sequence`."""
    return r_dowling_explicit_sequence(n, m, r)[n]
