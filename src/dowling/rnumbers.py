"""Verification routes for the r-Stirling, r-Whitney and r-Whitney-Lah
numbers: the weighted EGF of the r-Stirling numbers of the second kind, on
ints, and the log-concavity of an r-Whitney-Lah row.  The r-Whitney
numbers of both kinds by connection solve are `basis.solve`'s, the explicit
formulas of the r-Bell and r-Dowling numbers are declared with the paper's
other Bell-type formulas in `classic.EXPLICIT`, and the r-Whitney-Lah closed
form, of which `r_whitney_lah_explicit` reads one entry, is
`triangles.explicit_row`.

Indexing follows the shifted convention: the (n, k) entry of an r-family
refers to a ground set of n+r elements split into k+r blocks, with the r
distinguished elements pairwise separated.  Row 0 is always [1].
"""

from __future__ import annotations

from . import classic, families
from .exactmath import egf_product
from .families import check_param
from .triangles import Triangle, explicit_row


def weighted_stirling_egf_rows(nmax: int, r, order: int) -> list:
    """Rows n = 0..nmax of n! [t^n] e^(rt) (e^t - 1)^k, k = 0..nmax, the
    coefficients that k! S_r(n,k), the r-Stirling second-kind entries, must
    match: the EGF (r^n) times (0, 1, 1, ...) once per k, through t^order by
    `egf_product`."""
    r = check_param("r", r)
    if order < nmax:
        raise ValueError("order must be at least nmax")
    ones = [0] + [1] * order
    powers = [[r**n for n in range(order + 1)]]
    for _ in range(nmax):
        powers.append(egf_product(powers[-1], ones))
    return list(zip(*powers))[: nmax + 1]


def r_whitney_second_recurrence(nmax: int, m, r) -> Triangle:
    """The engine's r-Whitney second-kind triangle, by the name `perfbench/pin.py` calls."""
    return families.triangle("r-whitney2", {"m": m, "r": r}, nmax)


def r_whitney_lah_explicit(n: int, k: int, m, r) -> int:
    """Closed form C(n,k) * [2r|m]_n / [2r|m]_k, entry k of
    `triangles.explicit_row(n, 2r, m)`."""
    m = check_param("m", m)
    r = check_param("r", r)
    if k < 0 or k > n:
        return 0
    return explicit_row(n, 2 * r, m)[k]


def verify_log_concavity(row) -> bool:
    """True iff a row of the r-Whitney-Lah triangle is strictly log-concave,
    L(n,k-1)*L(n,k+1) < L(n,k)^2, and unimodal."""
    n = len(row) - 1
    if n < 2:
        raise ValueError("log-concavity needs a row with interior entries")
    peak = max(range(n + 1), key=row.__getitem__)
    return (
        all(row[k - 1] * row[k + 1] < row[k] ** 2 for k in range(1, n))
        and all(row[k] <= row[k + 1] for k in range(peak))
        and all(row[k] >= row[k + 1] for k in range(peak, n))
    )


def r_dowling_explicit(n: int, m, r) -> int:
    """D(n) by the paper's alternating r-Whitney-Lah sum, `classic.EXPLICIT["r-dowling"]`."""
    return classic.explicit_sum("r-dowling", {"m": m, "r": r}, n)
