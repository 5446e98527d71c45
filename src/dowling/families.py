"""The family table: every triangle family as the weights (d, a, b, c) of the
recurrence engine in `triangles`,

    T(n,k) = d*T(n-1,k-1) + (a*n + b*k + c)*T(n-1,k),

with its parameters and their validation.  The production path of every
family and every Bell-type row sum runs through this table; connection
solves, polynomial expansions and closed forms stay in the family modules
as verification routes.

Rational parameters never put a Fraction inside the recurrence.  With D the
lcm of the denominators of the weights, the scaled weights D*(a*n + b*k + c)
are integers, the integer recurrence gives U(n,k), and
S(n,k) = U(n,k) / D^(n-k) is read off at the end.

`hs-lah` is the one family without a two-term linear recurrence (at
(1, 0, 0) the weights fitted to row 4 are 13/3, 5, 6), so it is built as the
signed product sum_k (-1)^k s2(n,k) s1(k,j) of two engine triangles.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import triangles
from .exactmath import IntegralityError, as_integer
from .triangles import Triangle

# ---------------------------------------------------------------------------
# parameter validation


# Integer parameters: the bound each must satisfy and what the bound says.
# alpha is a factorial step, so it may not be zero.
_BOUNDS = {
    "alpha": (lambda v: v != 0, "a nonzero integer"),
    "m": (lambda v: v >= 1, "a positive integer"),
    "r": (lambda v: v >= 0, "a nonnegative integer"),
}


def check_param(name: str, value) -> int:
    """An integer parameter (`alpha`, `m` or `r`) as an int within its bound.
    A value that is not an integer raises IntegralityError, one outside the
    bound ValueError."""
    holds, kind = _BOUNDS[name]
    if isinstance(value, Fraction) and value.denominator == 1:
        value = value.numerator
    if not isinstance(value, int):
        raise IntegralityError(f"{name} must be {kind}, got {value}")
    if not holds(value):
        raise ValueError(f"{name} must be {kind}, got {value}")
    return value


# ---------------------------------------------------------------------------
# the table


# Parameter names (in validation order), the engine weights (d, a, b, c) as a
# function of the validated parameters, and whether parameters may be
# rational.  Integer families validate each parameter with `check_param`;
# the entries of a rational family are exact rationals, read off the scaled
# integer recurrence.  `weights` is None for the product family `hs-lah`.
# (A named tuple rather than a dataclass: it is cheaper to create at import,
# which every CLI call pays.)
Family = namedtuple("Family", ("needs", "weights", "rational"), defaults=(False,))


_HS = ("alpha", "beta", "gamma")

FAMILIES = {
    # s(n,k) = s(n-1,k-1) - (n-1) s(n-1,k)
    "stirling1": Family((), lambda p: (1, -1, 0, 1)),
    # S(n,k) = S(n-1,k-1) + k S(n-1,k)
    "stirling2": Family((), lambda p: (1, 0, 1, 0)),
    # L(n,k) = -L(n-1,k-1) - (n-1+k) L(n-1,k)
    "lah": Family((), lambda p: (-1, -1, -1, 1)),
    # w(n,k) = w(n-1,k-1) + (-1 - (n-1) alpha) w(n-1,k)
    "whitney1": Family(("alpha",), lambda p: (1, -p["alpha"], 0, p["alpha"] - 1)),
    # W(n,k) = W(n-1,k-1) + (1 + alpha k) W(n-1,k)
    "whitney2": Family(("alpha",), lambda p: (1, 0, p["alpha"], 1)),
    # L(n,k) = -L(n-1,k-1) - ((n-1+k) alpha + 2) L(n-1,k)
    "whitney-lah": Family(("alpha",), lambda p: (-1, -p["alpha"], -p["alpha"], p["alpha"] - 2)),
    # unsigned: weight n-1+r
    "r-stirling1": Family(("r",), lambda p: (1, 1, 0, p["r"] - 1)),
    # weight k+r
    "r-stirling2": Family(("r",), lambda p: (1, 0, 1, p["r"])),
    # weight n-1+k+2r
    "r-lah": Family(("r",), lambda p: (1, 1, 1, 2 * p["r"] - 1)),
    # unsigned: weight (n-1) m + r
    "r-whitney1": Family(("m", "r"), lambda p: (1, p["m"], 0, p["r"] - p["m"])),
    # weight k m + r
    "r-whitney2": Family(("m", "r"), lambda p: (1, 0, p["m"], p["r"])),
    # weight 2r + (n+k-1) m
    "r-whitney-lah": Family(("m", "r"), lambda p: (1, p["m"], p["m"], 2 * p["r"] - p["m"])),
    # s1: weight k beta - (n-1) alpha + gamma
    "hs1": Family(_HS, lambda p: (1, -p["alpha"], p["beta"], p["alpha"] + p["gamma"]), True),
    # s2: weight k alpha - (n-1) beta - gamma
    "hs2": Family(_HS, lambda p: (1, -p["beta"], p["alpha"], p["beta"] - p["gamma"]), True),
    "hs-lah": Family(_HS, None, True),
    # s1 at (alpha, 1, 0): weight k - (n-1) alpha
    "cakic": Family(("alpha",), lambda p: (1, -p["alpha"], 1, p["alpha"]), True),
}

# Bell-type sums: each is the row sum of one family.
SUMS = {
    "bell": "stirling2",
    "dowling": "whitney2",
    "r-bell": "r-stirling2",
    "r-dowling": "r-whitney2",
    "hs-bell": "hs1",
    "cakic-bell": "cakic",
}

# ---------------------------------------------------------------------------
# building


def _validate(name: str, params: dict) -> dict:
    family = FAMILIES[name]
    if family.rational:
        return {key: Fraction(params[key]) for key in family.needs}
    return {key: check_param(key, params[key]) for key in family.needs}


def _denominator(values) -> int:
    return math.lcm(*(Fraction(v).denominator for v in values))


def _scaled(weights, scale: int) -> tuple:
    """Engine weights multiplied by `scale`, which clears their denominators."""
    d, *linear = weights
    return (d, *(as_integer(Fraction(v) * scale) for v in linear))


def read_off(scaled_rows, scale: int) -> tuple:
    """Rows of S(n,k) = U(n,k) / scale^(n-k) from the scaled integer rows U."""
    if scale == 1:
        return tuple(scaled_rows)
    powers = [scale**i for i in range(len(scaled_rows))]
    return tuple(
        tuple(Fraction(u, powers[n - k]) for k, u in enumerate(row))
        for n, row in enumerate(scaled_rows)
    )


def _engine(name: str, params: dict, scale: int | None = None) -> tuple:
    """(validated params, scale, integer weights) of an engine family."""
    params = _validate(name, params)
    weights = FAMILIES[name].weights(params)
    if scale is None:
        scale = _denominator(weights[1:])
    return params, scale, _scaled(weights, scale)


def integer_rows(name: str, params: dict, nmax: int):
    """Yield the rows 0..nmax of an integer family, one at a time."""
    if FAMILIES[name].rational:
        raise ValueError(f"{name} has rational entries")
    _, _, weights = _engine(name, params)
    return triangles.recurrence_rows(nmax, *weights)


def triangle(name: str, params: dict, nmax: int) -> Triangle:
    """Rows 0..nmax of a family: ints, or exact rationals for a rational
    family whose weights have denominators."""
    if name == "hs-lah":
        return _hs_lah(params, nmax)
    params, scale, weights = _engine(name, params)
    built = triangles.recurrence_triangle(name, params, nmax, *weights)
    if scale == 1:
        return built
    return Triangle(read_off(built.rows, scale), name, params)


def row_sum(name: str, params: dict, n: int):
    """Sum of row n of an engine family, in O(n) memory: an int, or an exact
    rational for a rational family."""
    _, scale, weights = _engine(name, params)
    row = triangles.recurrence_row(n, *weights)
    if not FAMILIES[name].rational:
        return sum(row)
    # sum_k U(n,k) / D^(n-k) = (sum_k U(n,k) D^k) / D^n, by Horner's rule.
    total = 0
    for u in reversed(row):
        total = total * scale + u
    return Fraction(total, scale**n)


def hs_scaled_pair(params: dict, nmax: int) -> tuple:
    """(D, U1, U2): integer rows with s1(n,k) = U1(n,k)/D^(n-k) and
    s2(n,k) = U2(n,k)/D^(n-k) for one Hsu-Shiue triple, D the lcm of the
    denominators of alpha, beta, gamma.

    The pair is asserted mutually inverse, its defining invariant.  The
    powers of D cancel in the product, so s1 s2 = I reads
    sum_j U1(n,j) U2(j,m) = [n = m] on the scaled integers.
    """
    params = _validate("hs1", params)
    scale = _denominator(params.values())
    _, _, w1 = _engine("hs1", params, scale)
    _, _, w2 = _engine("hs2", params, scale)
    u1 = triangles.recurrence_triangle("hs1", params, nmax, *w1).rows
    u2 = triangles.recurrence_triangle("hs2", params, nmax, *w2).rows
    for n in range(nmax + 1):
        row = u1[n]
        for m in range(n):
            if sum(row[j] * u2[j][m] for j in range(m, n + 1)):
                raise AssertionError("connection pair failed to be mutually inverse")
    return scale, u1, u2


def _hs_lah(params: dict, nmax: int) -> Triangle:
    """L(n,j) = sum_k (-1)^k s2(n,k) s1(k,j) = [sum_k (-1)^k U2(n,k) U1(k,j)] / D^(n-j)."""
    params = _validate("hs-lah", params)
    scale, u1, u2 = hs_scaled_pair(params, nmax)
    return Triangle(read_off(triangles.product(u2, u1, signed=True), scale), "hs-lah", params)
