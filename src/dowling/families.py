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
from .basis import CoeffMatrix
from .exactmath import IntegralityError, as_integer

# ---------------------------------------------------------------------------
# parameter validation


def _int_param(value, name: str) -> int:
    if isinstance(value, Fraction):
        value = as_integer(value)
    if not isinstance(value, int):
        raise IntegralityError(f"{name} must be an integer, got {value!r}")
    return value


def check_alpha(alpha) -> int:
    """Whitney step: a nonzero integer."""
    alpha = _int_param(alpha, "alpha")
    if alpha == 0:
        raise ValueError("alpha must be nonzero (it is a factorial step)")
    return alpha


def check_r(r) -> int:
    """Number of distinguished elements: a nonnegative integer."""
    r = as_integer(Fraction(r)) if isinstance(r, Fraction) else r
    if not isinstance(r, int) or r < 0:
        raise ValueError(f"r must be a nonnegative integer, got {r!r}")
    return r


def check_m(m) -> int:
    """r-Whitney step: a positive integer."""
    m = as_integer(Fraction(m)) if isinstance(m, Fraction) else m
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    return m


_CHECKS = {"alpha": check_alpha, "m": check_m, "r": check_r}

# ---------------------------------------------------------------------------
# the table


# Parameter names (in validation order), the engine weights (d, a, b, c) as a
# function of the validated parameters, and whether parameters may be
# rational.  Integer families validate each parameter with its checker above;
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
    return {key: _CHECKS[key](params[key]) for key in family.needs}


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


def triangle(name: str, params: dict, nmax: int):
    """Rows 0..nmax of a family: a `Triangle` of ints, or a `CoeffMatrix` of
    exact rationals for a rational family."""
    if name == "hs-lah":
        return _hs_lah(params, nmax)
    params, scale, weights = _engine(name, params)
    built = triangles.recurrence_triangle(name, params, nmax, *weights)
    if not FAMILIES[name].rational:
        return built
    return CoeffMatrix(read_off(built.rows, scale), name, params)


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


def _hs_lah(params: dict, nmax: int) -> CoeffMatrix:
    """L(n,j) = sum_k (-1)^k s2(n,k) s1(k,j) = [sum_k (-1)^k U2(n,k) U1(k,j)] / D^(n-j)."""
    params = _validate("hs-lah", params)
    scale, u1, u2 = hs_scaled_pair(params, nmax)
    out = []
    for n in range(nmax + 1):
        signed = [-u if k % 2 else u for k, u in enumerate(u2[n])]
        out.append(tuple(sum(signed[k] * u1[k][j] for k in range(j, n + 1)) for j in range(n + 1)))
    return CoeffMatrix(read_off(out, scale), "hs-lah", params)
