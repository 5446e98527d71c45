"""The one name of the Whitney and Dowling numbers that `perfbench/pin.py` calls."""

from __future__ import annotations

from . import families


def dowling_explicit(n: int, alpha) -> int:
    """D_n by the paper's alternating Whitney-Lah sum, `families.SUMS["dowling"]`."""
    return families.explicit_sum("dowling", {"alpha": alpha}, n)
