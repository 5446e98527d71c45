"""Verification routes for the two-parameter-plus-shift Stirling pair of
Hsu and Shiue: the pair by connection solve, the Lah-type numbers and the
generalized Bell sums built from it, and the cross-module specialization
check.  A parameter triple is the plain tuple (alpha, beta, gamma).

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
from fractions import Fraction

from . import families
from .basis import connection_matrix, factorial_basis
from .triangles import Triangle, product, transform

# The mutually inverse matrices s1 and s2 for one parameter triple.
HSPair = namedtuple("HSPair", "s1 s2")


def hs_pair(nmax: int, params) -> HSPair:
    """Both matrices of the pair for one parameter triple, from the scaled
    integer recurrences s1: k*beta - (n-1)*alpha + gamma and
    s2: k*alpha - (n-1)*beta - gamma.  Mutual inversion is asserted because it
    is the defining invariant of the pair."""
    scale, u1, u2 = families.hs_scaled_pair(dict(zip(("alpha", "beta", "gamma"), params)), nmax)
    s1 = Triangle(families.read_off(u1, scale))
    s2 = Triangle(families.read_off(u2, scale))
    return HSPair(s1, s2)


def hs_pair_by_solve(nmax: int, params) -> HSPair:
    """Verification route: both connection matrices, solved exactly.

    Both target bases have unit leading scale, so they are always graded and
    the solve cannot degenerate.  Mutual inversion is asserted as in
    `hs_pair`.
    """
    alpha, beta, gamma = map(Fraction, params)
    source1 = factorial_basis(1, 0, alpha, nmax)
    target1 = factorial_basis(1, -gamma, beta, nmax)
    source2 = factorial_basis(1, 0, beta, nmax)
    target2 = factorial_basis(1, gamma, alpha, nmax)
    s1 = connection_matrix(source1, target1)
    s2 = connection_matrix(source2, target2)
    if not s1.mul(s2).is_identity():
        raise AssertionError("connection pair failed to be mutually inverse")
    return HSPair(s1, s2)


def _signed_product(pair: HSPair) -> Triangle:
    """L(n,j) = sum_k (-1)^k s2(n,k) s1(k,j) over one pair."""
    return Triangle(product(pair.s2.rows, pair.s1.rows, signed=True))


def hs_lah_matrix_by_solve(nmax: int, params) -> Triangle:
    """Verification route: the same product over the solved pair."""
    return _signed_product(hs_pair_by_solve(nmax, params))


def hs_bell_explicit_sequence(nmax: int, params) -> list:
    """Generalized Bell numbers W_0..W_nmax through the alternating Lah-type
    sum W_n = (-1)^n sum_k [sum_j L(k,j)] s1(n,k), over one solved pair."""
    pair = hs_pair_by_solve(nmax, params)
    sums = [sum(row) for row in _signed_product(pair).rows]
    return [-v if n % 2 else v for n, v in enumerate(transform(pair.s1, sums))]


def hs_bell_explicit(n: int, params) -> Fraction:
    """W_n from `hs_bell_explicit_sequence`."""
    return hs_bell_explicit_sequence(n, params)[n]


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
        return hs_pair_by_solve(nmax, params).s1.value

    def lah(*params):
        return _signed_product(hs_pair_by_solve(nmax, params)).value

    def table(name, **params):
        return families.triangle(name, params, nmax).value

    s_b01, s_10r, s_m0r = s1(beta, 0, -1), s1(1, 0, -r), s1(m, 0, -rr)
    defining = connection_matrix(
        factorial_basis(1, 0, cakic_alpha, nmax), factorial_basis(1, 0, 1, nmax)
    )
    # (name, expected entries, candidate conventions in order)
    specs = (
        ("whitney-first", table("whitney1", alpha=beta), (
            ("w(n,k) = S(n,k; beta, 0, -1) as printed", s_b01),
            ("w(n,k) = (-1)^(n-k) S(n,k; beta, 0, -1)", _flip(s_b01)),
        )),
        ("whitney-second", table("whitney2", alpha=beta), (
            ("W(n,k) = S(n,k; 0, beta, 1) as printed", s1(0, beta, 1)),
        )),
        ("whitney-lah", table("whitney-lah", alpha=beta), (
            ("L^W(n,k) = L(n,k; 0, beta, 1) as printed", lah(0, beta, 1)),
        )),
        ("r-stirling-first", table("r-stirling1", r=r), (
            ("A(n,k) = S(n,k; 1, 0, -r) as printed", s_10r),
            ("A(n,k) = (-1)^(n-k) S(n,k; 1, 0, -r)", _flip(s_10r)),
        )),
        ("r-stirling-second", table("r-stirling2", r=r), (
            ("S(n,k) = S(n,k; 0, 1, r) as printed", s1(0, 1, r)),
        )),
        ("r-lah", table("r-lah", r=r), (
            ("L(n,k) = (-1)^n L(n,k; 0, 1, r) as printed", _alternate(lah(0, 1, r))),
        )),
        ("r-whitney-first", table("r-whitney1", m=m, r=rr), (
            ("w(n,k) = (-1)^(n-k) S(n,k; m, 0, -r) as printed", _flip(s_m0r)),
            ("w(n,k) = S(n,k; m, 0, -r)", s_m0r),
        )),
        ("r-whitney-second", table("r-whitney2", m=m, r=rr), (
            ("W(n,k) = S(n,k; 0, m, r) as printed", s1(0, m, rr)),
        )),
        ("r-whitney-lah", table("r-whitney-lah", m=m, r=rr), (
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
