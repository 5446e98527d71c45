"""Verification routes for the two-parameter-plus-shift Stirling pair of
Hsu and Shiue: the pair by two integer connection solves, whose signed
product `identities` reads as a route of the Lah-type `hs-lah`, plus
`hs_bell_explicit`, the generalized Bell numbers by one call into
`classic.EXPLICIT`.  A parameter triple is the plain tuple
(alpha, beta, gamma).

The pair (s1, s2) is the connection coefficients of the bases `basis.BASES`
declares, (t|alpha)_n in (t - gamma|beta)_k and (t|beta)_n in
(t + gamma|alpha)_k, which are mutually inverse: the solve asserts it with
`identities.inverse_failures`, the check of `hs-ortho` and `invrel`, on the
scaled ints of both.  Specializing (alpha, beta, gamma) recovers every
other family in this package; `identities.SPECIALIZATIONS` declares those
reductions, each with its one sign convention.
"""

from __future__ import annotations

from collections import namedtuple

from . import basis, classic, families
from .triangles import Triangle

# The mutually inverse matrices s1 and s2 for one parameter triple.
HSPair = namedtuple("HSPair", "s1 s2")


def hs_pair_by_solve(nmax: int, params) -> HSPair:
    """Verification route: s1 and s2 by two integer solves.  Mutual
    inversion, the pair's defining invariant, is asserted on their scaled
    ints D^(n-k) s(n,k) by the check that `hs-ortho` and `invrel` run on
    the engine rows."""
    from .identities import inverse_failures  # `identities` imports this module

    point = dict(zip(("alpha", "beta", "gamma"), params))
    s1, s2 = (basis.scaled_solve(kind, point, nmax) for kind in ("hs1", "hs2"))
    if inverse_failures(nmax, s1, s2):
        raise AssertionError("connection pair failed to be mutually inverse")
    return HSPair(*(Triangle(families._read_off(rows, scale)) for scale, rows in (s1, s2)))


def hs_bell_explicit(n: int, params):
    """The generalized Bell number W_n by the paper's formula,
    `classic.EXPLICIT["hs-bell"]`, at the triple (alpha, beta, gamma)."""
    return classic.explicit_sum("hs-bell", dict(zip(("alpha", "beta", "gamma"), params)), n)
