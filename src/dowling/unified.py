"""The one name of the Hsu-Shiue generalized Bell numbers that `perfbench/pin.py` calls."""

from __future__ import annotations

from . import families


def hs_bell_explicit(n: int, params):
    """The generalized Bell number W_n by the paper's formula,
    `families.SUMS["hs-bell"]`, at the triple (alpha, beta, gamma)."""
    return families.explicit_sum("hs-bell", dict(zip(("alpha", "beta", "gamma"), params)), n)
