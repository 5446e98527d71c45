"""Two verification routes over a family's Hsu-Shiue triple (alpha, beta,
gamma) in `families.TRIPLES`, each giving the engine's scaled ints
U(n,k) = D^(n-k) T(n,k) at the one D of `families.resolve`, the lcm of the
parameters' denominators, with odd columns negated where the triple is
signed: `scaled_solve`, the connection solve prod_{i<n} (x - i alpha) =
sum_j T(n,j) prod_{i<j} (x - gamma - i beta), whose rows the inverse-pair
checks of `identities` multiply as they come; and `egf_rows`, the
exponential Riordan array [g, f], column k of k! U(n,k) being
n! [t^n] g f^k.  The `Fraction` bases, expansions and back-substitution
below are reached only by their own tests and by the per-layer tracer in
`perfbench`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import families
from .exactmath import DegenerateBasisError, Poly, as_integer, egf_product
from .triangles import Triangle


def _scaled_triple(family: str, params: dict) -> tuple:
    """(D, the family's triple times D as ints, whether it is signed)."""
    if family not in families.TRIPLES:
        raise ValueError(f"family {family!r} has no Hsu-Shiue triple")
    triple, signed = families.TRIPLES[family]
    params, scale = families.resolve(family, params)
    return scale, tuple(as_integer(scale * v) for v in triple(params)), signed


def scaled_solve(family: str, params: dict, nmax: int) -> tuple:
    """(D, rows 0..nmax of U(n,k) = D^(n-k) T(n,k)) of a family of
    `families.TRIPLES` by the connection solve, D = 1 for an integer family.
    Over y = D x, each source element is the last times y - D (n-1) alpha,
    and a copy is divided by y - D (gamma + j beta) in place, j = 0..n-1:
    division j leaves its remainder at index j and its quotient above, so
    the copy ends as the row."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    scale, (alpha, beta, gamma), signed = _scaled_triple(family, params)
    rows, poly = [(1,)], [1]
    for n in range(1, nmax + 1):
        poly = [u - (n - 1) * alpha * v for u, v in zip((0, *poly), (*poly, 0))]
        row = list(poly)
        for j in range(n):
            b = gamma + j * beta
            for i in range(n - 1, j - 1, -1):
                row[i] += b * row[i + 1]
        rows.append(tuple(-v if signed and k % 2 else v for k, v in enumerate(row)))
    return scale, tuple(rows)


def egf_rows(family: str, params: dict, nmax: int, kmax: int | None = None) -> list:
    """Rows 0..nmax of k! U(n,k), k <= min(kmax, nmax), 0 where k > n, of a
    family of `families.TRIPLES`: column k is g f^k by `egf_product`, where
    n! [t^n] g = prod_{i<n} (D gamma - i D alpha) and n! [t^n] f =
    prod_{i=1}^{n-1} (D beta - i D alpha), f_0 = 0, negated if signed."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    if kmax is not None and kmax < 0:
        raise ValueError("kmax must be nonnegative")
    _, (alpha, beta, gamma), signed = _scaled_triple(family, params)
    g, f = [1], [0, -1 if signed else 1]
    for n in range(1, nmax + 1):
        g.append(g[-1] * (gamma - (n - 1) * alpha))
        f.append(f[-1] * (beta - n * alpha))
    columns = [g]
    for _ in range(nmax if kmax is None else min(kmax, nmax)):
        columns.append(egf_product(columns[-1], f))
    return list(zip(*columns))


# ---------------------------------------------------------------------------
# the Fraction reference


class PolyBasis(namedtuple("PolyBasis", ("elements",))):
    """A tuple of polynomials, validated so element n has degree exactly n."""

    __slots__ = ()

    def __new__(cls, elements):
        elems = tuple(elements)
        if not elems:
            raise DegenerateBasisError("a basis needs at least one element")
        for n, p in enumerate(elems):
            if p.degree != n:
                raise DegenerateBasisError(
                    f"element {n} has degree {p.degree}; a graded basis needs degree exactly {n}"
                )
        return super().__new__(cls, elems)

    @property
    def size(self) -> int:
        return len(self.elements)


def monomial_basis(nmax: int) -> PolyBasis:
    """1, x, x^2, ..., x^nmax."""
    return PolyBasis(tuple(Poly([0] * n + [1]) for n in range(nmax + 1)))


def factorial_basis(a, b, m, nmax: int) -> PolyBasis:
    """Elements prod_{i<n} (a*x + b - i*m), built incrementally."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    if a == 0 and nmax >= 1:
        raise DegenerateBasisError("zero leading scale gives a degenerate basis")
    elems = [Poly((1,))]
    for n in range(1, nmax + 1):
        elems.append(elems[-1] * Poly((b - (n - 1) * m, a)))
    return PolyBasis(tuple(elems))


def power_basis(base: Poly, nmax: int) -> PolyBasis:
    """Powers base^n of a degree-one polynomial."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    if base.degree != 1:
        raise DegenerateBasisError("power basis needs a polynomial of degree exactly 1")
    return PolyBasis(tuple(base**n for n in range(nmax + 1)))


# Solves and expansions return the package's one table class.  The name
# stays bound because the per-layer tracer in `perfbench` looks it up.
CoeffMatrix = Triangle


def identity_matrix(nmax: int) -> Triangle:
    return Triangle(tuple(tuple(int(k == n) for k in range(n + 1)) for n in range(nmax + 1)))


def expand_in_monomials(basis: PolyBasis) -> Triangle:
    """Row n = monomial coefficients of basis element n (constant term first)."""
    return Triangle(tuple(p.coefficient(i) for i in range(n + 1)) for n, p in enumerate(basis.elements))


def connection_matrix(source: PolyBasis, target: PolyBasis) -> Triangle:
    """Matrix M with source[n] = sum_{j<=n} M(n,j) * target[j].

    Solved by back-substitution on monomial coefficients: the leading
    coefficient of target[j] pins M(n,j) from degree j downwards.
    """
    if source.size != target.size:
        raise ValueError("bases have different sizes")
    tcoeffs = [list(p.coeffs) for p in target.elements]
    leads = [p.leading for p in target.elements]
    rows = []
    for n in range(source.size):
        residual = [source.elements[n].coefficient(i) for i in range(n + 1)]
        row = [Fraction(0)] * (n + 1)
        for j in range(n, -1, -1):
            c = residual[j] / leads[j]
            row[j] = c
            if c:
                for i in range(j + 1):
                    residual[i] -= c * tcoeffs[j][i]
        rows.append(tuple(row))
    return Triangle(tuple(rows))


def verify_tauber_product(ck: Triangle, dh: Triangle, l: Triangle) -> bool:
    """True iff l equals the triangular product ck * dh."""
    if not (ck.nmax == dh.nmax == l.nmax):
        raise ValueError("matrix sizes differ")
    return ck.mul(dh).rows == l.rows


def verify_orthogonality(c: Triangle, d: Triangle) -> bool:
    """True iff c and d are mutually inverse (both products are the identity)."""
    return c.mul(d).is_identity() and d.mul(c).is_identity()
