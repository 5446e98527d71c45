"""Connection coefficients between Newton bases, the verification route
of the families `BASES` declares: prod_{i<n} (x - a_i) = sum_j T(n,j)
prod_{i<j} (x - b_i).  One integer routine, `scaled_solve`, expands source
element n in monomials and divides it synthetically by (x - b_j), j < n;
the remainder of division j is T(n,j), and the last quotient is 1.
Rational parameters are scaled by D, the lcm of their denominators, so that
over y = D x every node is an integer and the rows are the engine's scaled
ints U(n,k) = D^(n-k) T(n,k), at the D of `families.scaled_rows`: the
inverse-pair checks of `identities` multiply them by the engine's scaled
rows as they come, and `solve` reads them off.  The `Fraction` bases,
expansions and back-substitution below are the tests' reference.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import families
from .exactmath import DegenerateBasisError, Poly, as_integer
from .triangles import Triangle

# The two Newton bases of a family, from the paper's definitions: the nodes
# a_i = source(p, i) and b_j = target(p, j) of the validated parameters p;
# where `checkerboard` is set, the family is (-1)^(n-k) times the solve.
Newton = namedtuple("Newton", ("source", "target", "checkerboard"), defaults=(False,))

BASES = {
    # x(x-1)...(x-n+1) in powers of x
    "stirling1": Newton(lambda p, i: i, lambda p, j: 0),
    # (x-1|alpha)_n in powers of x
    "whitney1": Newton(lambda p, i: 1 + i * p["alpha"], lambda p, j: 0),
    # over y = m x: m^n x(x-1)...(x-n+1) in powers of (mx + r), unsigned
    "r-whitney1": Newton(lambda p, i: i * p["m"], lambda p, j: -p["r"], True),
    # over y = m x: (mx + r)^n in m^k x(x-1)...(x-k+1)
    "r-whitney2": Newton(lambda p, i: -p["r"], lambda p, j: j * p["m"]),
    # (t|alpha)_n in (t - gamma|beta)_k
    "hs1": Newton(lambda p, i: i * p["alpha"], lambda p, j: p["gamma"] + j * p["beta"]),
    # (t|beta)_n in (t + gamma|alpha)_k
    "hs2": Newton(lambda p, i: i * p["beta"], lambda p, j: j * p["alpha"] - p["gamma"]),
}


def scaled_solve(family: str, params: dict, nmax: int) -> tuple:
    """(D, rows 0..nmax of U(n,k) = D^(n-k) T(n,k)) of a family of `BASES`,
    D = 1 for an integer family.  Over y = D x, each source element is the
    last times (y - D a_{n-1}), and a copy is divided by y - D b_j in place,
    j = 0..n-1: division j leaves its remainder at index j and its quotient
    above, so the copy ends as the row."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    source, target, signed = BASES[family]
    params = families._validate(family, params)
    scale = families._denominator(params.values())
    a = [as_integer(scale * source(params, i)) for i in range(nmax)]
    b = [as_integer(scale * target(params, j)) for j in range(nmax)]
    rows, poly = [(1,)], [1]
    for n in range(1, nmax + 1):
        poly = [u - a[n - 1] * v for u, v in zip((0, *poly), (*poly, 0))]
        row = list(poly)
        for j in range(n):
            for i in range(n - 1, j - 1, -1):
                row[i] += b[j] * row[i + 1]
        rows.append(tuple(-v if signed and (n - k) % 2 else v for k, v in enumerate(row)))
    return scale, tuple(rows)


def solve(family: str, params: dict, nmax: int) -> Triangle:
    """Rows 0..nmax of a family of `BASES` by `scaled_solve`: ints, or exact
    rationals where the parameters have denominators."""
    scale, rows = scaled_solve(family, params, nmax)
    return Triangle(families._read_off(rows, scale), family, families._validate(family, params))


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
