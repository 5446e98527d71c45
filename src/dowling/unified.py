"""Verification routes for the two-parameter-plus-shift Stirling pair of
Hsu and Shiue: the pair by connection solve and the Lah-type numbers built
from it, plus `hs_bell_explicit`, the generalized Bell numbers by one call
into `classic.EXPLICIT`.  A parameter triple is the plain tuple
(alpha, beta, gamma).

The pair (s1, s2) consists of the connection coefficients

    step-alpha factorial of t   =  sum_k s1(n,k) * step-beta factorial of (t - gamma)
    step-beta  factorial of t   =  sum_k s2(n,k) * step-alpha factorial of (t + gamma)

which are mutually inverse.  Specializing (alpha, beta, gamma) recovers every
other family in this package; `identities.SPECIALIZATIONS` declares those
reductions, each with its one sign convention.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import classic
from .basis import connection_matrix, factorial_basis
from .triangles import Triangle, product

# The mutually inverse matrices s1 and s2 for one parameter triple.
HSPair = namedtuple("HSPair", "s1 s2")


def hs_pair_by_solve(nmax: int, params) -> HSPair:
    """Verification route: both connection matrices, solved exactly.

    Both target bases have unit leading scale, so they are always graded and
    the solve cannot degenerate.  Mutual inversion is asserted, the pair's
    defining invariant; `hs-ortho` and `invrel` check the engine rows for it.
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


def signed_product(pair: HSPair) -> Triangle:
    """L(n,j) = sum_k (-1)^k s2(n,k) s1(k,j) over one pair; over the solved
    pair it is the verification route of `hs-lah`."""
    return Triangle(product(pair.s2.rows, pair.s1.rows, signed=True))


def hs_bell_explicit(n: int, params):
    """The generalized Bell number W_n by the paper's formula,
    `classic.EXPLICIT["hs-bell"]`, at the triple (alpha, beta, gamma)."""
    return classic.explicit_sum("hs-bell", dict(zip(("alpha", "beta", "gamma"), params)), n)
