"""The family table: every triangle family as the weights (d, a, b, c) of the
recurrence engine in `triangles`,

    T(n,k) = d*T(n-1,k-1) + (a*n + b*k + c)*T(n-1,k),

with its parameters and their validation.  The production path of every
family and every Bell-type row sum runs through this table.  The row sums
do not roll the engine: each sum family has weights (1, a, b, c), and
`row_sum` takes the explicit formula of `_explicit_sum` where b != 0 and a
product of n factors where b = 0, integer or rational alike.  `SUMS` also
declares the paper's explicit formula for each sum, over the rows of its
family and of a Lah-type family; `explicit_sequence` and `explicit_sum`
compute it, the one verification route kept here.  The connection solve is
`basis.scaled_solve`; the Lah types' closed form is `triangles.explicit_row`
and their polynomial expansions `identities.vertical_rows` and
`horizontal_rows`, all read through `identities.lah_route`.

Rational parameters never put a Fraction inside the recurrence.  `resolve`
validates a point and fixes its scale D, the lcm of the parameters'
denominators, once for every reader: each weight and each entry of a
family's triple is an integer combination of the parameters, so D clears
them all.  The scaled weights D*(a*n + b*k + c) are integers, the integer
recurrence gives U(n,k), and S(n,k) = U(n,k) / D^(n-k) is read off one row
at a time; `scaled_rows` yields U itself, for the checks that multiply two
scaled tables.

`hs-lah` is the one family without a two-term linear recurrence (at
(1, 0, 0) the weights fitted to row 4 are 13/3, 5, 6), so its rows stream as
the signed product sum_k (-1)^k U2(n,k) U1(k,j) of the scaled hs2 and hs1
rows, both at the triple's one D, whose powers then read off the same way.
`triangle` gathers the rows of every family into a `Triangle`.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from fractions import Fraction

from . import triangles
from .exactmath import as_integer
from .triangles import Triangle

# ---------------------------------------------------------------------------
# parameter validation


class UsageError(ValueError):
    """Refused input, raised here, by `identities.report` and by the CLI
    (also for an output it cannot write); `cli.main` exits 2 on it."""


# Integer parameters: the bound each must satisfy and what the bound says.
# alpha is a factorial step, so it may not be zero.
_BOUNDS = {
    "alpha": (lambda v: v != 0, "a nonzero integer"),
    "m": (lambda v: v >= 1, "a positive integer"),
    "r": (lambda v: v >= 0, "a nonnegative integer"),
}


def check_param(name: str, value) -> int:
    """An integer parameter (`alpha`, `m` or `r`) as an int within its bound.
    A value that is not an integer, or one outside the bound, raises
    UsageError."""
    holds, kind = _BOUNDS[name]
    if isinstance(value, Fraction) and value.denominator == 1:
        value = value.numerator
    if not isinstance(value, int) or not holds(value):
        raise UsageError(f"{name} must be {kind}, got {value}")
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

# Every engine family but `hs-lah` as the Hsu-Shiue numbers S(n,k; alpha,
# beta, gamma) of (t|alpha)_n = sum_k S(n,k) (t - gamma|beta)_k, declared apart
# from the weights for the routes of `basis`: the triple as a function of the
# validated parameters, and whether the family is (-1)^k S(n,k).
Triple = namedtuple("Triple", ("triple", "signed"), defaults=(False,))

TRIPLES = {
    "stirling1": Triple(lambda p: (1, 0, 0)),
    "stirling2": Triple(lambda p: (0, 1, 0)),
    "lah": Triple(lambda p: (1, -1, 0), True),
    "whitney1": Triple(lambda p: (p["alpha"], 0, -1)),
    "whitney2": Triple(lambda p: (0, p["alpha"], 1)),
    "whitney-lah": Triple(lambda p: (p["alpha"], -p["alpha"], -2), True),
    "r-stirling1": Triple(lambda p: (-1, 0, p["r"])),
    "r-stirling2": Triple(lambda p: (0, 1, p["r"])),
    "r-lah": Triple(lambda p: (-1, 1, 2 * p["r"])),
    "r-whitney1": Triple(lambda p: (-p["m"], 0, p["r"])),
    "r-whitney2": Triple(lambda p: (0, p["m"], p["r"])),
    "r-whitney-lah": Triple(lambda p: (-p["m"], p["m"], 2 * p["r"])),
    "hs1": Triple(lambda p: (p["alpha"], p["beta"], p["gamma"])),
    "hs2": Triple(lambda p: (p["beta"], p["alpha"], -p["gamma"])),
    "cakic": Triple(lambda p: (p["alpha"], 1, 0)),
}

# The Bell-type sums, each the row sum of its second-kind family W and the
# paper's explicit formula
#
#     (-1)^n sum_k W(n,k) sign^k [sum_j L(k,j)]
#
# over a Lah-type family L: (W, L, L's parameters as a function of the sum's,
# sign).  At `bell` it is Qi's formula over the signless Lah numbers, the
# r-Lah numbers at r = 0; at `hs-bell` it is the paper's theorem for the
# generalized Bell numbers, over the Lah-type numbers of the Hsu-Shiue
# triple, and `cakic-bell` is its triple (alpha, 1, 0).
Sum = namedtuple("Sum", ("family", "lah", "lah_params", "sign"))

SUMS = {
    "bell": Sum("stirling2", "r-lah", lambda p: {"r": 0}, -1),
    "dowling": Sum("whitney2", "whitney-lah", dict, 1),
    "r-bell": Sum("r-stirling2", "r-lah", dict, -1),
    "r-dowling": Sum("r-whitney2", "r-whitney-lah", dict, -1),
    "hs-bell": Sum("hs1", "hs-lah", dict, 1),
    "cakic-bell": Sum("cakic", "hs-lah", lambda p: {"alpha": p["alpha"], "beta": 1, "gamma": 0}, 1),
}

# ---------------------------------------------------------------------------
# building


def resolve(name: str, params: dict) -> tuple:
    """(the validated parameters of a family, D): its `needs` taken from
    `params`, exact rationals for a rational family, ints within their
    bounds by `check_param` otherwise, and D the lcm of their denominators,
    1 for an integer family.  A missing key, a key the family does not take
    and a bad value are each refused with a UsageError that names the key."""
    family = FAMILIES[name]
    for key in family.needs:
        if key not in params:
            raise UsageError(f"missing required parameter --{key}")
    for key in params:
        if key not in family.needs:
            raise UsageError(f"family {name!r} does not take --{key}")
    if not family.rational:
        return {key: check_param(key, params[key]) for key in family.needs}, 1
    params = {key: Fraction(params[key]) for key in family.needs}
    return params, math.lcm(*(v.denominator for v in params.values()))


def _scaled(weights, scale: int) -> tuple:
    """Engine weights multiplied by `scale`, which clears their denominators."""
    d, *linear = weights
    return (d, *(as_integer(v * scale) for v in linear))


def _read_off(scaled_rows, scale: int):
    """Yield the rows of S(n,k) = U(n,k) / scale^(n-k) from the scaled
    integer rows U, one at a time; at scale 1 they are U itself."""
    if scale == 1:
        yield from scaled_rows
        return
    powers = []
    for n, row in enumerate(scaled_rows):
        powers.append(scale**n)
        yield tuple(Fraction(u, powers[n - k]) for k, u in enumerate(row))


def _engine(name: str, params: dict) -> tuple:
    """(validated params, D, integer weights) of an engine family."""
    params, scale = resolve(name, params)
    return params, scale, _scaled(FAMILIES[name].weights(params), scale)


def scaled_rows(name: str, params: dict, nmax: int, one=1) -> tuple:
    """(D, the rows 0..nmax of a family's scaled ints U(n,k) = D^(n-k) T(n,k),
    one at a time), D that of `resolve`.  Entries are of the type of `one`
    (see `triangles.recurrence_rows`) at D = 1, ints otherwise and for
    `hs-lah`, the signed product of the hs2 and hs1 rows, both at the
    triple's one D.  The parameters are validated at the call, before the
    first row is asked for."""
    if name == "hs-lah":
        (scale, s2), (_, s1) = (scaled_rows(kind, params, nmax) for kind in ("hs2", "hs1"))
        return scale, triangles.product(s2, s1, signed=True)
    _, scale, weights = _engine(name, params)
    return scale, triangles.recurrence_rows(nmax, *weights, one if scale == 1 else 1)


def rows(name: str, params: dict, nmax: int, one=1):
    """Yield the rows 0..nmax of a family, one at a time: those of
    `scaled_rows`, or exact rationals read off them where D > 1."""
    scale, scaled = scaled_rows(name, params, nmax, one)
    return _read_off(scaled, scale)


def triangle(name: str, params: dict, nmax: int) -> Triangle:
    """Rows 0..nmax of a family gathered from `rows`: ints, or exact
    rationals for a rational family whose parameters have denominators."""
    return Triangle(rows(name, params, nmax), name, resolve(name, params)[0])


def _span(x: int, a: int, lo: int, hi: int) -> int:
    """prod_{i=lo}^{hi} (x + a*i), a != 0; 1 where lo > hi."""
    return math.prod(range(x + a * lo, x + a * (hi + 1), a))


def _step_products(n: int, a: int, b: int, c: int):
    """Yield F(j) = prod_{i=1}^n (b*j + c + a*i) for j = 0..n, b != 0.

    At a = 0 each F(j) is the power (b*j + c)^n, whose power of two is
    applied as a shift.  Otherwise, with b/a = p/q in lowest terms and
    q > 0, b*(j+q) = b*j + a*p shifts the factors by p:

        F(j+q) = F(j) prod_{i=n+1}^{n+p} (.) / prod_{i=1}^{p} (.)

    at x = b*j + c, mirrored for p < 0, so each chain j, j+q, ... costs
    2|p| small factors and one exact division a step instead of a product
    of n.  The walk runs only where |p| < n: there the divisor's factors
    are among F(j)'s, so a chain whose F(j) is 0 restarts with a fresh
    product, and a fresh F(j) with a vanishing factor is 0 without
    multiplying.  At most q values are held."""
    if not a:
        for j in range(n + 1):
            x = b * j + c
            twos = (x & -x).bit_length() - 1 if x else 0
            yield (x >> twos) ** n << n * twos
        return
    g = math.gcd(a, b)
    p, q = (b // g, a // g) if a > 0 else (-b // g, -a // g)
    gained, lost = ((n + 1, n + p), (1, p)) if p > 0 else ((p + 1, 0), (n + p + 1, n))
    ahead = {}
    for j in range(n + 1):
        x = b * j + c
        f = ahead.pop(j, None)
        if f is None:
            i, rest = divmod(-x, a)
            f = 0 if not rest and 1 <= i <= n else _span(x, a, 1, n)
        if f and abs(p) < n and j + q <= n:
            ahead[j + q], remainder = divmod(f * _span(x, a, *gained), _span(x, a, *lost))
            if remainder:
                raise AssertionError("a step of F(j) failed to divide exactly")
        yield f


def _explicit_sum(n: int, a: int, b: int, c: int, scale: int) -> int:
    """sum_k U(n,k) scale^k over row n of the integer family
    U(n,k) = U(n-1,k-1) + (a*n + b*k + c)*U(n-1,k), b != 0.  Row n is the
    connection matrix from prod_{i=1}^n (u + c + a*i) to the step-b factorials
    of u, so U(n,k) = sum_j (-1)^(k-j) C(k,j) F(j) / (b^k k!), with

        F(j) = prod_{i=1}^n (b*j + c + a*i),

    the power (b*j + c)^n at a = 0.  Weighted by D^k (D = scale) and summed
    over k, it reads

        n! b^n sum_k U(n,k) D^k = sum_t C(n,t) D^(n-t) F(n-t) e(t),
        e(0) = 1,  e(t) = b*t*e(t-1) + (-D)^t

    (at b = D = 1, e(t) is the derangement number).  Unrolling e and
    swapping the sums gives the same total as sum_s (-D)^s G(s), with
    G(n+1) = 0 and

        G(s) = b*(s+1)*G(s+1) + C(n,s) D^(n-s) F(n-s),

    so that s walks from n down to 0, one more Horner step per term
    carrying the scale, and C(n,s) D^(n-s) kept as one running product.
    F(n-s) comes from `_step_products`.  The division by n! b^n is asserted
    exact, the formula's invariant."""
    total, g, weight = 0, 0, 1
    for s, f in zip(range(n, -1, -1), _step_products(n, a, b, c)):
        g = b * (s + 1) * g + weight * f
        total = g - scale * total
        weight = weight * (s * scale) // (n - s + 1)
    quotient, remainder = divmod(total, math.factorial(n) * b**n)
    if remainder:
        raise AssertionError("explicit row sum failed to divide by n! b^n")
    return quotient


def row_sum(name: str, params: dict, n: int):
    """Sum of row n of a family of diagonal weight 1 (every family of
    `SUMS`): an int, or an exact rational for a rational family.  With the
    weights (1, a, b, c) scaled by D, the sum is sum_k U(n,k) D^k / D^n: by
    the explicit formula of `_explicit_sum` where b != 0, and as the product
    prod_{i=1}^n (D + a*i + c) of the row's generating polynomial at D where
    b = 0.  Neither rolls the engine's row."""
    _, scale, (d, a, b, c) = _engine(name, params)
    if d != 1:
        raise ValueError(f"{name} has diagonal weight {d}; row sums need weight 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if b:
        total = _explicit_sum(n, a, b, c, scale)
    else:
        total = _span(scale + c, a, 1, n) if a else (scale + c) ** n
    return Fraction(total, scale**n) if FAMILIES[name].rational else total


def explicit_sequence(name: str, params: dict, nmax: int) -> list:
    """The sum `name` of `SUMS` at n = 0..nmax by the paper's explicit
    formula, over the streamed rows of both kinds."""
    family, lah, lah_params, sign = SUMS[name]
    return list(triangles.alternating_sums(rows(family, params, nmax), rows(lah, lah_params(params), nmax), sign))


def explicit_sum(name: str, params: dict, n: int):
    """The sum `name` of `SUMS` at n by the same formula over row n of W
    alone: an int, or an exact rational where the rows have denominators."""
    family, lah, lah_params, sign = SUMS[name]
    second = deque(rows(family, params, n), maxlen=1)
    return next(triangles.alternating_sums(second, rows(lah, lah_params(params), n), sign))
