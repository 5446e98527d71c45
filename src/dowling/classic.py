"""The rows of the partial Bell polynomials, and a name for the engine's
Stirling numbers of the first kind.

The engine in `families` builds every family; the routes here compute it
another way, and the test suite pins them against each other and against
brute-force partition counts.  The paper's explicit formulas for the
Bell-type sums are declared with the sums in `families.SUMS`.  The Lah
numbers' closed form is the one of all four Lah-type families,
`triangles.explicit_row`, read through `identities.lah_route`; their EGF and
the signed Stirling numbers of the first kind by connection solve are
`basis.egf_rows` and `basis.solve`'s.
"""

from __future__ import annotations

import math

from . import families
from .triangles import Triangle


def stirling1_triangle(nmax: int) -> Triangle:
    """The engine's signed Stirling triangle, by the name `perfbench/pin.py` calls."""
    return families.triangle("stirling1", {}, nmax)


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
