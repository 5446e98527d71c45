"""The two-parameter-plus-shift Stirling pair of Hsu and Shiue, the Lah-type
numbers built from it, generalized Bell sums, Cakic numbers, and the
cross-module specialization check.

The pair (s1, s2) consists of the connection coefficients

    step-alpha factorial of t   =  sum_k s1(n,k) * step-beta factorial of (t - gamma)
    step-beta  factorial of t   =  sum_k s2(n,k) * step-alpha factorial of (t + gamma)

which are mutually inverse.  Specializing (alpha, beta, gamma) recovers every
other family in this package; `verify_specializations` checks those
reductions entrywise and records the sign conventions that actually hold
instead of trusting loose bookkeeping.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from . import families, rnumbers, whitney
from .basis import connection_matrix, factorial_basis
from .triangles import Triangle, product, transform


@dataclass(frozen=True)
class HSParams:
    """Step sizes alpha, beta and shift gamma, stored as exact rationals."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "gamma", Fraction(self.gamma))

    def as_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma}


# The mutually inverse matrices s1 and s2 for one parameter triple.
HSPair = namedtuple("HSPair", "s1 s2")


def _coerce_params(params) -> HSParams:
    if isinstance(params, HSParams):
        return params
    return HSParams(*params)


def hs_pair(nmax: int, params) -> HSPair:
    """Both matrices of the pair for one parameter triple, from the scaled
    integer recurrences s1: k*beta - (n-1)*alpha + gamma and
    s2: k*alpha - (n-1)*beta - gamma.  Mutual inversion is asserted because it
    is the defining invariant of the pair."""
    p = _coerce_params(params)
    scale, u1, u2 = families.hs_scaled_pair(p.as_dict(), nmax)
    s1 = Triangle(families.read_off(u1, scale))
    s2 = Triangle(families.read_off(u2, scale))
    return HSPair(s1, s2)


def hs_pair_by_solve(nmax: int, params) -> HSPair:
    """Verification route: both connection matrices, solved exactly.

    Both target bases have unit leading scale, so they are always graded and
    the solve cannot degenerate.  Mutual inversion is asserted as in
    `hs_pair`.
    """
    p = _coerce_params(params)
    source1 = factorial_basis(1, 0, p.alpha, nmax)
    target1 = factorial_basis(1, -p.gamma, p.beta, nmax)
    source2 = factorial_basis(1, 0, p.beta, nmax)
    target2 = factorial_basis(1, p.gamma, p.alpha, nmax)
    s1 = connection_matrix(source1, target1)
    s2 = connection_matrix(source2, target2)
    if not s1.mul(s2).is_identity():
        raise AssertionError("connection pair failed to be mutually inverse")
    return HSPair(s1, s2)


def hs_lah_matrix(nmax: int, params) -> Triangle:
    """Lah-type matrix L(n,j) = sum_k (-1)^k s2(n,k) s1(k,j), as the product
    of the two scaled integer recurrences."""
    return families.triangle("hs-lah", _coerce_params(params).as_dict(), nmax)


def _signed_product(pair: HSPair) -> Triangle:
    """L(n,j) = sum_k (-1)^k s2(n,k) s1(k,j) over one pair."""
    return Triangle(product(pair.s2.rows, pair.s1.rows, signed=True))


def hs_lah_matrix_by_solve(nmax: int, params) -> Triangle:
    """Verification route: the same product over the solved pair."""
    return _signed_product(hs_pair_by_solve(nmax, params))


def hs_bell(n: int, params) -> Fraction:
    """Generalized Bell number: row sum of s1."""
    return families.row_sum("hs1", _coerce_params(params).as_dict(), n)


def hs_bell_explicit_sequence(nmax: int, params) -> list:
    """Generalized Bell numbers W_0..W_nmax through the alternating Lah-type
    sum W_n = (-1)^n sum_k [sum_j L(k,j)] s1(n,k), over one solved pair."""
    pair = hs_pair_by_solve(nmax, params)
    sums = [sum(row) for row in _signed_product(pair).rows]
    return [-v if n % 2 else v for n, v in enumerate(transform(pair.s1, sums))]


def hs_bell_explicit(n: int, params) -> Fraction:
    """W_n from `hs_bell_explicit_sequence`."""
    return hs_bell_explicit_sequence(n, params)[n]


def cakic(nmax: int, alpha) -> Triangle:
    """Cakic numbers: coefficients of the step-alpha factorial of x in the
    plain falling-factorial basis, i.e. the s1 matrix at (alpha, 1, 0)."""
    return families.triangle("cakic", {"alpha": alpha}, nmax)


def cakic_bell(n: int, alpha) -> Fraction:
    """Row sum of the Cakic triangle."""
    return families.row_sum("cakic", {"alpha": alpha}, n)


def cakic_bell_explicit(n: int, alpha) -> Fraction:
    """Cakic row sum through the alternating Lah-type route."""
    return hs_bell_explicit(n, HSParams(alpha, 1, 0))


def _match(name, nmax, expected, candidates) -> tuple:
    """(convention, failures): try sign conventions in order and return the
    first that matches everywhere.

    `expected` and each candidate map (n, k) to a value.  If no candidate
    fits, the mismatches against the first (as-printed) candidate are
    returned so a failure is visible rather than silently corrected.
    """
    cells = [(n, k) for n in range(nmax + 1) for k in range(n + 1)]
    for label, candidate in candidates:
        if all(expected(n, k) == candidate(n, k) for n, k in cells):
            return label, []
    label, candidate = candidates[0]
    bad = [
        {"n": n, "k": k, "expected": f"{name}: {expected(n, k)}", "actual": str(candidate(n, k))}
        for n, k in cells
        if expected(n, k) != candidate(n, k)
    ]
    return f"no candidate matches (tried {label} first)", bad


def _flip(entry):
    """(n, k) -> (-1)^(n-k) entry(n, k)."""
    return lambda n, k: (-1) ** (n - k) * entry(n, k)


def _alternate(entry):
    """(n, k) -> (-1)^n entry(n, k)."""
    return lambda n, k: (-1) ** n * entry(n, k)


def verify_specializations(nmax: int) -> tuple:
    """(failures, notes) of every reduction of the unified pair against the
    triangles the other modules build; the notes record the sign convention
    that holds for each.  The unified side comes from the connection solve,
    the other side from the recurrences, so every match is also a match
    between two routes."""
    beta, r, (m, rr), cakic_alpha = 3, 2, (2, 2), 2  # the points checked

    def s1(*params):
        return hs_pair_by_solve(nmax, HSParams(*params)).s1.value

    def lah(*params):
        return _signed_product(hs_pair_by_solve(nmax, HSParams(*params))).value

    s_b01, s_10r, s_m0r = s1(beta, 0, -1), s1(1, 0, -r), s1(m, 0, -rr)
    defining = connection_matrix(
        factorial_basis(1, 0, cakic_alpha, nmax), factorial_basis(1, 0, 1, nmax)
    )
    # (name, expected entries, candidate conventions in order)
    specs = (
        ("whitney-first", whitney.whitney_first(nmax, beta).value, (
            ("w(n,k) = S(n,k; beta, 0, -1) as printed", s_b01),
            ("w(n,k) = (-1)^(n-k) S(n,k; beta, 0, -1)", _flip(s_b01)),
        )),
        ("whitney-second", whitney.whitney_second(nmax, beta).value, (
            ("W(n,k) = S(n,k; 0, beta, 1) as printed", s1(0, beta, 1)),
        )),
        ("whitney-lah", whitney.whitney_lah(nmax, beta).value, (
            ("L^W(n,k) = L(n,k; 0, beta, 1) as printed", lah(0, beta, 1)),
        )),
        ("r-stirling-first", rnumbers.r_stirling1(nmax, r).value, (
            ("A(n,k) = S(n,k; 1, 0, -r) as printed", s_10r),
            ("A(n,k) = (-1)^(n-k) S(n,k; 1, 0, -r)", _flip(s_10r)),
        )),
        ("r-stirling-second", rnumbers.r_stirling2(nmax, r).value, (
            ("S(n,k) = S(n,k; 0, 1, r) as printed", s1(0, 1, r)),
        )),
        ("r-lah", rnumbers.r_lah(nmax, r).value, (
            ("L(n,k) = (-1)^n L(n,k; 0, 1, r) as printed", _alternate(lah(0, 1, r))),
        )),
        ("r-whitney-first", rnumbers.r_whitney_first(nmax, m, rr).value, (
            ("w(n,k) = (-1)^(n-k) S(n,k; m, 0, -r) as printed", _flip(s_m0r)),
            ("w(n,k) = S(n,k; m, 0, -r)", s_m0r),
        )),
        ("r-whitney-second", rnumbers.r_whitney_second(nmax, m, rr).value, (
            ("W(n,k) = S(n,k; 0, m, r) as printed", s1(0, m, rr)),
        )),
        ("r-whitney-lah", rnumbers.r_whitney_lah(nmax, m, rr).value, (
            ("L(n,k) = (-1)^n L(n,k; 0, m, r) as printed", _alternate(lah(0, m, rr))),
        )),
        ("cakic", defining.value, (
            ("c(n,k) = S(n,k; +alpha, 1, 0); the printed reduction negates alpha", s1(cakic_alpha, 1, 0)),
            ("c(n,k) = S(n,k; -alpha, 1, 0) as printed", s1(-cakic_alpha, 1, 0)),
        )),
    )
    failures, notes = [], []
    for name, expected, candidates in specs:
        convention, bad = _match(name, nmax, expected, candidates)
        failures += bad
        notes.append(f"{name}: {convention}")
    return failures, "; ".join(notes)
