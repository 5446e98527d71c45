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
    generalized_falling,
    generalized_rising,
)
from .families import check_m, check_r
from .triangles import Triangle


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
    r = check_r(r)
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


def r_lah_from_stirlings(n: int, k: int, r) -> int:
    """r-Lah number as the product of the two r-Stirling kinds:
    L(n,k) = sum_j A(n,j) * S(j,k)."""
    r = check_r(r)
    if k < 0 or k > n:
        return 0
    first = r_stirling1(n, r)
    second = r_stirling2(n, r)
    return sum(first.value(n, j) * second.value(j, k) for j in range(k, n + 1))


def verify_r_inverse(a, r) -> bool:
    """Round-trip check of the r-Stirling inverse pair:
    b_n = sum_j A(n,j) a_j followed by a_n = sum_j (-1)^(n-j) S(n,j) b_j."""
    r = check_r(r)
    a = list(a)
    if not a:
        return True
    top = len(a) - 1
    first = r_stirling1(top, r)
    second = r_stirling2(top, r)
    b = [sum(first.value(n, j) * a[j] for j in range(n + 1)) for n in range(len(a))]
    recovered = [
        sum((-1) ** (n - j) * second.value(n, j) * b[j] for j in range(n + 1))
        for n in range(len(a))
    ]
    return recovered == a


def r_bell(n: int, r) -> int:
    """r-Bell number: row sum of the r-Stirling second-kind triangle."""
    return families.row_sum("r-stirling2", {"r": r}, n)


def r_bell_explicit(n: int, r) -> int:
    """r-Bell number through the alternating r-Lah sum:
    B(n) = sum_k (-1)^(n-k) S(n,k) [sum_j L(k,j)]."""
    r = check_r(r)
    second = r_stirling2(n, r)
    lah = r_lah(n, r)
    total = 0
    for k in range(n + 1):
        term = second.value(n, k) * lah.row_sum(k)
        total += term if (n - k) % 2 == 0 else -term
    return total


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
    m = check_m(m)
    r = check_r(r)
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
    m = check_m(m)
    r = check_r(r)
    mat = basis.connection_matrix(
        _scaled_falling_basis(m, nmax), basis.power_basis(Poly((r, m)), nmax)
    )
    rows = []
    for n in range(nmax + 1):
        rows.append(
            tuple(as_integer((-1) ** (n - k) * mat.entry(n, k)) for k in range(n + 1))
        )
    return Triangle("r-whitney1", {"m": m, "r": r}, nmax, tuple(rows))


def r_whitney_lah(nmax: int, m, r) -> Triangle:
    """r-Whitney-Lah numbers via
    L(n,k) = L(n-1,k-1) + (2r + (n+k-1)m) * L(n-1,k)."""
    return families.triangle("r-whitney-lah", {"m": m, "r": r}, nmax)


def r_whitney_lah_explicit(n: int, k: int, m, r) -> int:
    """Closed form C(n,k) * [2r|m]_n / [2r|m]_k; the quotient must divide
    exactly, anything else signals a bug."""
    m = check_m(m)
    r = check_r(r)
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


def r_whitney_lah_from_whitney(n: int, k: int, m, r) -> int:
    """Product route: L(n,k) = sum_j w(n,j) W(j,k), no signs, with both
    r-Whitney kinds from the connection solve."""
    if k < 0 or k > n:
        return 0
    first = r_whitney_first_by_solve(n, m, r)
    second = r_whitney_second_by_solve(n, m, r)
    return sum(first.value(n, j) * second.value(j, k) for j in range(k, n + 1))


def r_whitney_lah_vertical(n: int, k: int, m, r) -> int:
    """Column-wise route, defined for k >= 1 (plus the trivial corner):
    L(n,k) = sum_{j=k-1}^{n-1} (2r + (n+k-1)m | m)_{n-1-j} L(j, k-1)."""
    m = check_m(m)
    r = check_r(r)
    if n == 0 and k == 0:
        return 1
    if k < 1 or k > n:
        raise ValueError("the vertical route needs 1 <= k <= n")
    tri = r_whitney_lah(n - 1, m, r)
    x = 2 * r + (n + k - 1) * m
    return sum(
        generalized_falling(x, m, n - 1 - j) * tri.value(j, k - 1) for j in range(k - 1, n)
    )


def r_whitney_lah_horizontal(n: int, k: int, m, r) -> int:
    """Row-wise route from row n+1:
    L(n,k) = sum_i (-1)^i [2r + (n+k+1)m | m]_i L(n+1, k+i+1)."""
    m = check_m(m)
    r = check_r(r)
    if k < 0 or k > n:
        return 0
    tri = r_whitney_lah(n + 1, m, r)
    x = 2 * r + (n + k + 1) * m
    total = 0
    for i in range(n - k + 1):
        term = generalized_rising(x, m, i) * tri.value(n + 1, k + i + 1)
        total += -term if i % 2 else term
    return total


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


def r_dowling_explicit(n: int, m, r) -> int:
    """r-Dowling number through the alternating r-Whitney-Lah sum:
    D(n) = sum_j (-1)^(n-j) [sum_k L(j,k)] W(n,j), with W from the
    connection solve."""
    lah = r_whitney_lah(n, m, r)
    second = r_whitney_second_by_solve(n, m, r)
    total = 0
    for j in range(n + 1):
        term = lah.row_sum(j) * second.value(n, j)
        total += term if (n - j) % 2 == 0 else -term
    return total
