"""The one name of the Stirling numbers that `perfbench/pin.py` calls."""

from __future__ import annotations

from . import families
from .triangles import Triangle


def stirling1_triangle(nmax: int) -> Triangle:
    """The engine's signed Stirling triangle, by the name `perfbench/pin.py` calls."""
    return families.triangle("stirling1", {}, nmax)
