"""Exact scalars, `egf_product`, the product of two exponential generating
functions on ints with which `basis.egf_rows` raises a series to each power,
and the `Fraction` polynomials, interpolation and truncated power series,
reached only by their own tests, `basis`'s `Fraction` section and `perfbench`.

Everything in this package computes over Python ints and
`fractions.Fraction`, so every result is exact; nothing here ever rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction


class DegenerateBasisError(ValueError):
    """A polynomial family fails to be graded (degree-exact)."""


class IntegralityError(ValueError):
    """A value that must be an integer came out with a denominator."""


def as_integer(value) -> int:
    """Collapse an exact rational known to be integral down to an int."""
    if isinstance(value, int):
        return value
    if value.denominator != 1:
        raise IntegralityError(f"expected an integer, got {value}")
    return value.numerator


def egf_product(a, b) -> list:
    """The product of two exponential generating functions, each given by
    its coefficients times n!: term n is sum_i C(n,i) a_i b_(n-i), for n
    below the shorter length."""
    return [sum(math.comb(n, i) * a[i] * b[n - i] for i in range(n + 1)) for n in range(min(len(a), len(b)))]


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored low degree first with trailing zeros trimmed,
    so ``coeffs`` is empty exactly for the zero polynomial.  Instances are
    immutable; all operators return new polynomials.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of x^i (zero beyond the stored degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        """Leading coefficient; zero for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        """Evaluate at x by Horner's rule."""
        result = Fraction(0)
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def interpolate(points) -> Poly:
    """Exact Lagrange interpolation through points with distinct abscissae."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation abscissae must be distinct")
    result = Poly()
    for i, (xi, yi) in enumerate(pts):
        term = Poly((yi,))
        for j, (xj, _) in enumerate(pts):
            if j == i:
                continue
            term = term * Poly((-xj, 1)) * (1 / (xi - xj))
        result = result + term
    return result


class Series:
    """Formal power series truncated after t^order.

    Arithmetic is exact modulo t^(order+1); both operands of a binary
    operation must share the same order.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs][: order + 1]
        cs.extend(Fraction(0) for _ in range(order + 1 - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @classmethod
    def from_poly(cls, poly: Poly, order: int) -> "Series":
        return cls(poly.coeffs, order)

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def _check_order(self, other: "Series"):
        if self.order != other.order:
            raise ValueError("series orders differ")

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series([c * other for c in self.coeffs], self.order)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(self.order + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return Series(out, self.order)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative series power")
        result = Series((1,), self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "Series":
        """Multiplicative inverse; the constant term must be nonzero."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("cannot invert a series with zero constant term")
        out = [Fraction(1) / c0]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, n + 1):
                a = self.coeffs[i]
                if a:
                    acc += a * out[n - i]
            out.append(-acc / c0)
        return Series(out, self.order)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"Series({list(self.coeffs)!r}, order={self.order})"


def exp_series(order: int, rate=1) -> Series:
    """Series of exp(rate * t) through t^order: coefficients rate^n / n!."""
    return Series([Fraction(rate) ** n / math.factorial(n) for n in range(order + 1)], order)
