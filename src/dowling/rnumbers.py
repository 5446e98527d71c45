"""Verification routes for the r-Stirling, r-Whitney and r-Whitney-Lah
numbers: the log-concavity of an r-Whitney-Lah row, and one entry of its
closed form `triangles.explicit_row`.  The weighted EGF of the r-Stirling
numbers of the second kind and the r-Whitney numbers by connection solve
are `basis.egf_rows` and `basis.solve`'s, and the explicit formulas of the
r-Bell and r-Dowling numbers are declared with the paper's other Bell-type
formulas in `families.SUMS`.

Indexing follows the shifted convention: the (n, k) entry of an r-family
refers to a ground set of n+r elements split into k+r blocks, with the r
distinguished elements pairwise separated.  Row 0 is always [1].
"""

from __future__ import annotations

from . import families
from .families import check_param
from .triangles import Triangle, explicit_row


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
    """D(n) by the paper's alternating r-Whitney-Lah sum, `families.SUMS["r-dowling"]`."""
    return families.explicit_sum("r-dowling", {"m": m, "r": r}, n)
