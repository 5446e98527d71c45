"""Whitney numbers of both kinds, Whitney-Lah numbers, and Dowling numbers.

The step parameter alpha is a positive integer for the combinatorial
families; the polynomial machinery in `basis` handles the defining
relations, the recurrences generate the tables, and the two must agree.
"""

from __future__ import annotations

from . import basis, classic, families
from .exactmath import binomial
from .families import check_alpha
from .triangles import Triangle, transform


def whitney_first(nmax: int, alpha) -> Triangle:
    """Whitney numbers of the first kind: w(n,k) is the coefficient of x^k
    in the step-alpha factorial (x-1)(x-1-alpha)...(x-1-(n-1)alpha), via
    w(n,k) = w(n-1,k-1) - (1 + (n-1)*alpha) * w(n-1,k)."""
    return families.triangle("whitney1", {"alpha": alpha}, nmax)


def whitney_first_by_expansion(nmax: int, alpha) -> Triangle:
    """Verification route: expand the step-alpha factorial in monomials."""
    alpha = check_alpha(alpha)
    mat = basis.expand_in_monomials(basis.factorial_basis(1, -1, alpha, nmax))
    return mat.to_triangle("whitney1", {"alpha": alpha})


def whitney_second(nmax: int, alpha) -> Triangle:
    """Whitney numbers of the second kind via
    W(n,k) = W(n-1,k-1) + (1 + alpha*k) * W(n-1,k)."""
    return families.triangle("whitney2", {"alpha": alpha}, nmax)


def whitney_second_benoumhani(n: int, k: int, alpha) -> int:
    """Second-kind Whitney number as a binomial sum over Stirling numbers:
    W(n,k) = sum_i C(n,i) alpha^(i-k) S(i,k)."""
    alpha = check_alpha(alpha)
    if k < 0 or k > n:
        return 0
    s2 = classic.stirling2_triangle(n)
    return sum(binomial(n, i) * alpha ** (i - k) * s2.value(i, k) for i in range(k, n + 1))


def whitney_lah(nmax: int, alpha) -> Triangle:
    """Whitney-Lah triangle via
    L(n,k) = -L(n-1,k-1) - ((k+n-1)*alpha + 2) * L(n-1,k)."""
    return families.triangle("whitney-lah", {"alpha": alpha}, nmax)


def _descending_step_product(x: int, i: int, alpha: int) -> int:
    """prod_{j=0}^{i-1} ((x - j)*alpha + 2)."""
    result = 1
    for j in range(i):
        result *= (x - j) * alpha + 2
    return result


def _ascending_step_product(x: int, i: int, alpha: int) -> int:
    """prod_{j=0}^{i-1} ((x + j)*alpha + 2)."""
    result = 1
    for j in range(i):
        result *= (x + j) * alpha + 2
    return result


def whitney_lah_vertical(n: int, k: int, alpha) -> int:
    """Whitney-Lah number assembled column-wise from lower rows:
    L(n,k) = sum_i (-1)^(i+1) prod_{j<i}((n-1+k-j)*alpha + 2) L(n-1-i, k-1).

    Defined for k >= 1 (plus the trivial corner): the expansion terminates on
    the zero entry L(k-1,k), and column 0 has no such stop because it is not
    identically zero here.
    """
    alpha = check_alpha(alpha)
    if n == 0 and k == 0:
        return 1
    if k < 1 or k > n:
        raise ValueError("the vertical route needs 1 <= k <= n")
    top = n - 1
    tri = whitney_lah(top, alpha)
    total = 0
    for i in range(top - k + 2):
        term = _descending_step_product(top + k, i, alpha) * tri.value(top - i, k - 1)
        total += term if i % 2 else -term
    return total


def whitney_lah_horizontal(n: int, k: int, alpha) -> int:
    """Whitney-Lah number recovered row-wise from row n+1:
    L(n,k) = sum_i (-1)^(i+1) prod_{j<i}((n+k+1+j)*alpha + 2) L(n+1, k+i+1)."""
    alpha = check_alpha(alpha)
    if k < 0 or k > n:
        return 0
    tri = whitney_lah(n + 1, alpha)
    total = 0
    for i in range(n - k + 1):
        term = _ascending_step_product(n + k + 1, i, alpha) * tri.value(n + 1, k + i + 1)
        total += term if i % 2 else -term
    return total


def whitney_lah_from_whitney(n: int, j: int, alpha) -> int:
    """Whitney-Lah number as the signed product of the two Whitney kinds:
    L(n,j) = sum_k (-1)^k w(n,k) W(k,j), with w from the polynomial expansion."""
    alpha = check_alpha(alpha)
    if j < 0 or j > n:
        return 0
    w = whitney_first_by_expansion(n, alpha)
    second = whitney_second(n, alpha)
    total = 0
    for k in range(j, n + 1):
        term = w.value(n, k) * second.value(k, j)
        total += -term if k % 2 else term
    return total


def verify_whitney_lah_orthogonality(nmax: int, alpha) -> bool:
    """True iff the Whitney-Lah matrix is its own inverse up to nmax."""
    mat = basis.CoeffMatrix.from_triangle(whitney_lah(nmax, alpha))
    return mat.mul(mat).is_identity()


def verify_whitney_lah_inverse(g, alpha) -> bool:
    """True iff applying the Whitney-Lah transform twice returns the input."""
    g = list(g)
    if not g:
        return True
    tri = whitney_lah(len(g) - 1, alpha)
    return transform(tri, transform(tri, g)) == g


def dowling(n: int, alpha) -> int:
    """Dowling number: row sum of the second-kind Whitney triangle."""
    return families.row_sum("whitney2", {"alpha": alpha}, n)


def dowling_explicit(n: int, alpha) -> int:
    """Dowling number through the alternating Whitney-Lah sum:
    D_n = sum_j (-1)^(n-j) [sum_k (-1)^j L(j,k)] W(n,j)."""
    alpha = check_alpha(alpha)
    lah = whitney_lah(n, alpha)
    second = whitney_second(n, alpha)
    total = 0
    for j in range(n + 1):
        inner = lah.row_sum(j)
        if j % 2:
            inner = -inner
        term = inner * second.value(n, j)
        total += term if (n - j) % 2 == 0 else -term
    return total


def bell_via_dowling(n: int) -> int:
    """Bell number shifted through the unit-step Dowling chain: D_n(1) = B_{n+1}."""
    return dowling(n, 1)
