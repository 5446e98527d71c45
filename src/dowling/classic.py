"""The rows of the partial Bell polynomials, a name for the engine's Stirling
numbers of the first kind, and `EXPLICIT`, the paper's alternating
Lah/Stirling formula for each Bell-type sum: Qi's formula for the Bell
numbers, its Dowling, r-Bell and r-Dowling generalizations, and the theorem
for the Hsu-Shiue generalized Bell numbers and the Cakic-Bell numbers,
declared once as data.

The engine in `families` builds every family; the routes here compute it
another way, and the test suite pins them against each other and against
brute-force partition counts.  The Lah numbers' closed form is the one of
all four Lah-type families, `triangles.explicit_row`, read through
`identities.lah_route`; their EGF and the signed Stirling numbers of the
first kind by connection solve are `basis.egf_rows` and `basis.solve`'s.
"""

from __future__ import annotations

import math
from collections import deque

from . import families
from .triangles import Triangle, alternating_sums


def stirling1_triangle(nmax: int) -> Triangle:
    """The engine's signed Stirling triangle, by the name `perfbench/pin.py` calls."""
    return families.triangle("stirling1", {}, nmax)


# The paper's explicit formula for each sum of `families.SUMS`,
#
#     (-1)^n sum_k W(n,k) sign^k [sum_j L(k,j)],
#
# over the sum's second-kind family W and a Lah-type family L: (L, its
# parameters as a function of the sum's, sign).  At `bell` it is Qi's formula
# over the signless Lah numbers, the r-Lah numbers at r = 0; at `hs-bell` it
# is the paper's theorem for the generalized Bell numbers, over the Lah-type
# numbers of the Hsu-Shiue triple, and `cakic-bell` is its triple (alpha, 1, 0).
EXPLICIT = {
    "bell": ("r-lah", lambda p: {"r": 0}, -1),
    "dowling": ("whitney-lah", dict, 1),
    "r-bell": ("r-lah", dict, -1),
    "r-dowling": ("r-whitney-lah", dict, -1),
    "hs-bell": ("hs-lah", dict, 1),
    "cakic-bell": ("hs-lah", lambda p: {"alpha": p["alpha"], "beta": 1, "gamma": 0}, 1),
}


def explicit_sequence(name: str, params: dict, nmax: int) -> list:
    """The sum `name` of `EXPLICIT` at n = 0..nmax by its explicit formula,
    over the streamed rows of both kinds."""
    lah, lah_params, sign = EXPLICIT[name]
    second = families.rows(families.SUMS[name], params, nmax)
    return list(alternating_sums(second, families.rows(lah, lah_params(params), nmax), sign))


def explicit_sum(name: str, params: dict, n: int):
    """The sum `name` of `EXPLICIT` at n by the same formula over row n of W
    alone: an int, or an exact rational where the rows have denominators."""
    lah, lah_params, sign = EXPLICIT[name]
    second = deque(families.rows(families.SUMS[name], params, n), maxlen=1)
    return next(alternating_sums(second, families.rows(lah, lah_params(params), n), sign))


def partial_bell_rows(nmax: int, xs) -> tuple:
    """Rows 0..nmax of the partial Bell polynomials B(n,k) at x_1, x_2, ...
    (the first nmax of `xs`), by the size i of the block that holds the
    first element: B(0,0) = 1, B(n,0) = 0 for n >= 1, and

        B(n,k) = sum_{i=1}^{n-k+1} C(n-1,i-1) x_i B(n-i,k-1),

    in O(nmax^3) operations on ints."""
    rows = [(1,)]
    for n in range(1, nmax + 1):
        weights = [math.comb(n - 1, i) * xs[i] for i in range(n)]
        rows.append(
            (0, *(sum(weights[i] * rows[n - 1 - i][k - 1] for i in range(n - k + 1)) for k in range(1, n + 1)))
        )
    return tuple(rows)
