"""A verification route of the Hsu-Shiue pair: `hs_bell_explicit`, the
generalized Bell numbers by the paper's formula in `families.SUMS`.  The
pair is solved by `basis.scaled_solve`, and `identities.SPECIALIZATIONS`
declares its reductions to the other families."""

from __future__ import annotations

from . import families


def hs_bell_explicit(n: int, params):
    """The generalized Bell number W_n by the paper's formula,
    `families.SUMS["hs-bell"]`, at the triple (alpha, beta, gamma)."""
    return families.explicit_sum("hs-bell", dict(zip(("alpha", "beta", "gamma"), params)), n)
