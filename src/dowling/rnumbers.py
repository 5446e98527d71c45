"""The three names of the r-Whitney and r-Dowling numbers that `perfbench/pin.py` calls."""

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


def r_dowling_explicit(n: int, m, r) -> int:
    """D(n) by the paper's alternating r-Whitney-Lah sum, `families.SUMS["r-dowling"]`."""
    return families.explicit_sum("r-dowling", {"m": m, "r": r}, n)
