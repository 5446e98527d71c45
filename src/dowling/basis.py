"""Graded polynomial bases and exact connection coefficients between them.

A graded basis is a sequence of polynomials whose n-th element has degree
exactly n.  Any two graded bases over the rationals are related by an
invertible lower-triangular change-of-basis matrix, and every number family
in this package is such a matrix for a suitable pair of bases.  The solver
works on monomial coefficient vectors by back-substitution, so a single
code path serves Stirling, Whitney, Lah and all their relatives.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exactmath import DegenerateBasisError, Poly
from .triangles import Triangle


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

    @property
    def nmax(self) -> int:
        return len(self.elements) - 1


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
    elems = [Poly((1,))]
    for n in range(1, nmax + 1):
        elems.append(elems[-1] * base)
    return PolyBasis(tuple(elems))


# Solves and expansions return the package's one table class.  The name
# stays bound because the per-layer tracer in `perfbench` looks it up.
CoeffMatrix = Triangle


def identity_matrix(nmax: int) -> Triangle:
    return Triangle(tuple(tuple(int(k == n) for k in range(n + 1)) for n in range(nmax + 1)))


def expand_in_monomials(basis: PolyBasis) -> Triangle:
    """Row n = monomial coefficients of basis element n (constant term first)."""
    rows = []
    for n, p in enumerate(basis.elements):
        rows.append(tuple(p.coefficient(i) for i in range(n + 1)))
    return Triangle(tuple(rows))


def connection_matrix(source: PolyBasis, target: PolyBasis) -> Triangle:
    """Matrix M with source[n] = sum_{j<=n} M(n,j) * target[j].

    Solved by back-substitution on monomial coefficients: the leading
    coefficient of target[j] pins M(n,j) from degree j downwards.
    """
    if source.size != target.size:
        raise ValueError("bases have different sizes")
    size = source.size
    tcoeffs = [list(p.coeffs) for p in target.elements]
    leads = [p.leading for p in target.elements]
    rows = []
    for n in range(size):
        residual = [source.elements[n].coefficient(i) for i in range(n + 1)]
        row = [Fraction(0)] * (n + 1)
        for j in range(n, -1, -1):
            c = residual[j] / leads[j]
            row[j] = c
            if c:
                tj = tcoeffs[j]
                for i in range(j + 1):
                    residual[i] -= c * tj[i]
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
