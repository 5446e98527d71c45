"""Verification routes for the Stirling numbers of both kinds, the Lah
numbers and the Bell numbers, plus partial Bell polynomials and Qi's
alternating Lah/Stirling expression for the Bell numbers.

The engine in `families` builds every family; the routes here compute it
another way, and the test suite pins them against each other and against
brute-force partition counts.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

from . import basis, families
from .exactmath import Poly, Series, as_integer, binomial
from .triangles import Triangle, horizontal_rows, product, vertical_rows


def stirling1_triangle(nmax: int) -> Triangle:
    """The engine's signed Stirling triangle, by the name `perfbench/pin.py` calls."""
    return families.triangle("stirling1", {}, nmax)


def stirling1_by_expansion(nmax: int) -> Triangle:
    """Verification route: expand x(x-1)...(x-n+1) in monomials."""
    mat = basis.expand_in_monomials(basis.factorial_basis(1, 0, 1, nmax))
    return mat.to_triangle("stirling1", {})


def lah_explicit(n: int, k: int) -> int:
    """Signed Lah number in closed form: (-1)^n C(n-1,k-1) n!/k!."""
    if n == 0 and k == 0:
        return 1
    if k <= 0 or k > n:
        return 0
    value = binomial(n - 1, k - 1) * (math.factorial(n) // math.factorial(k))
    return -value if n % 2 else value


def lah_signless(n: int, k: int) -> int:
    """Signless Lah number (-1)^n L(n,k): counts partitions of an n-set
    into k nonempty linearly ordered blocks."""
    value = lah_explicit(n, k)
    return -value if n % 2 else value


def lah_vertical_rows(nmax: int) -> tuple:
    """Signed Lah rows 0..nmax assembled column-wise from the rows above,
    all from one triangle of rows 0..nmax-1:
    L(n,k) = sum_i (-1)^(i+1) (n-1+k)_i L(n-1-i, k-1)."""
    return vertical_rows(families.triangle("lah", {}, max(nmax - 1, 0)), nmax, 0, 1, -1)



def lah_horizontal_rows(nmax: int) -> tuple:
    """Signed Lah rows 0..nmax recovered row-wise from the row below, all
    from one triangle of rows 0..nmax+1:
    L(n,k) = sum_i (-1)^(i+1) <n+k+1>_i L(n+1, k+i+1), where <x>_i is the
    ascending product x(x+1)...(x+i-1).  (The descending reading fails the
    cross-checks; see the verification suite.)"""
    return horizontal_rows(families.triangle("lah", {}, nmax + 1), nmax, 0, 1, -1)



def lah_egf_check(k: int, order: int) -> bool:
    """True iff n! [t^n] (1/k!)((-t)/(1+t))^k equals L(n,k) for n <= order."""
    if order < k:
        raise ValueError("order must be at least k")
    one_plus_t = Series.from_poly(Poly((1, 1)), order)
    base = Series.from_poly(Poly((0, -1)), order) * one_plus_t.inverse()
    series = (base ** k) * Fraction(1, math.factorial(k))
    tri = families.triangle("lah", {}, order)
    return all(
        series.coefficient(n) * math.factorial(n) == tri.value(n, k) for n in range(order + 1)
    )


def lah_from_stirlings_rows(nmax: int) -> tuple:
    """Signed Lah rows from both Stirling kinds: L(n,k) = sum_j (-1)^j s(n,j) S(j,k),
    with s from one polynomial expansion."""
    s1 = stirling1_by_expansion(nmax)
    return product(s1.rows, families.triangle("stirling2", {}, nmax).rows, signed=True)


def qi_bell(n: int) -> int:
    """Bell number through the alternating double sum
    B_n = sum_k (-1)^(n-k) [sum_j L(k,j)] S(n,k) over signless Lah numbers
    (the r-Lah numbers at r = 0); only row n of S and the Lah row sums are
    kept."""
    lah_sums = [sum(row) for row in families.integer_rows("r-lah", {"r": 0}, n)]
    s2_row = deque(families.integer_rows("stirling2", {}, n), maxlen=1)[0]
    total = 0
    for k, value in enumerate(s2_row):
        term = lah_sums[k] * value
        total += term if (n - k) % 2 == 0 else -term
    return total


def partial_bell(n: int, k: int, xs) -> int:
    """Partial Bell polynomial B_{n,k}(x_1, ..., x_{n-k+1}) by direct
    enumeration of multiplicity vectors (l_i) with sum l_i = k and
    sum i*l_i = n."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k > n:
        return 0
    if n == 0:
        return 1
    width = n - k + 1
    xs = list(xs)
    if len(xs) < width:
        raise ValueError(f"need at least {width} arguments, got {len(xs)}")
    factors = [Fraction(xs[i - 1], math.factorial(i)) for i in range(1, width + 1)]
    total = Fraction(0)

    def assign(i, blocks_left, weight_left, acc):
        nonlocal total
        if i == width:
            if blocks_left == 0 and weight_left == 0:
                total += acc
            return
        step = i + 1
        limit = min(blocks_left, weight_left // step)
        for l in range(limit + 1):
            assign(
                i + 1,
                blocks_left - l,
                weight_left - l * step,
                acc * factors[i] ** l / math.factorial(l),
            )

    assign(0, k, n, Fraction(1))
    return as_integer(total * math.factorial(n))
