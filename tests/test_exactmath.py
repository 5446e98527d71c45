import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dowling.basis import factorial_basis
from dowling.exactmath import (
    DegenerateBasisError,
    IntegralityError,
    Poly,
    Series,
    as_integer,
    egf_product,
    exp_series,
    interpolate,
)

F = Fraction


# Element n of factorial_basis(1, 0, m, n) is x(x-m)...(x-(n-1)m): the
# falling factorial at m = 1, the rising one at m = -1.


@pytest.mark.parametrize("x", [F(0), F(1), F(-2), F(1, 2), F(-7, 3)])
@pytest.mark.parametrize("n", range(11))
def test_rising_is_signed_falling_of_negated_argument(x, n):
    rising = factorial_basis(1, 0, -1, n).elements[n]
    falling = factorial_basis(1, 0, 1, n).elements[n]
    assert rising(x) == (-1) ** n * falling(-x)


@pytest.mark.parametrize("x", [F(3), F(-1, 2), F(10, 3)])
@pytest.mark.parametrize("n", range(7))
def test_step_one_reduces_to_plain_factorials(x, n):
    assert math.prod(x - i for i in range(n)) == factorial_basis(1, 0, 1, n).elements[n](x)
    assert math.prod(x + i for i in range(n)) == factorial_basis(1, 0, -1, n).elements[n](x)


def test_as_integer():
    assert as_integer(F(10, 2)) == 5
    assert as_integer(7) == 7
    with pytest.raises(IntegralityError):
        as_integer(F(1, 2))


# --- polynomials -----------------------------------------------------------

small_rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=6
)
small_polys = st.lists(small_rationals, max_size=5).map(Poly)


def test_poly_basics():
    p = Poly([-1, 0, 1])  # x^2 - 1
    assert p.degree == 2
    assert p(3) == 8
    assert p(F(1, 2)) == F(-3, 4)
    assert Poly([1, 0, 0]).degree == 0
    assert Poly().is_zero() and Poly().degree == -1


def test_poly_mul_by_zero():
    assert (Poly([1, 2, 3]) * Poly()).is_zero()
    assert Poly([1, 1]) * 0 == Poly()


def test_poly_immutable():
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = ()


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * Poly([1]) == a


def test_factorial_basis_poly():
    # The top element of basis.factorial_basis(a, b, m, n): prod_{i<n} (a*x + b - i*m).
    assert factorial_basis(1, -1, 3, 2).elements[2] == Poly([4, -5, 1])  # (x-1)(x-4)
    assert factorial_basis(-1, -1, 5, 1).elements[1] == Poly([-1, -1])
    assert factorial_basis(1, 0, 0, 2).elements[2] == Poly([0, 0, 1])
    with pytest.raises(DegenerateBasisError):
        factorial_basis(0, 1, 1, 1)
    assert factorial_basis(0, 5, 1, 0).elements[0] == Poly([1])


@pytest.mark.parametrize("a", [1, -1, F(2, 3)])
@pytest.mark.parametrize("n", range(6))
def test_factorial_basis_poly_degree_and_leading(a, n):
    p = factorial_basis(a, F(1, 2), F(-3), n).elements[n]
    assert p.degree == n
    assert p.leading == F(a) ** n


def test_interpolate_recovers_quadratic():
    p = Poly([4, -5, 1])
    pts = [(x, p(x)) for x in (0, 1, 2, 7)]
    assert interpolate(pts) == p
    with pytest.raises(ValueError):
        interpolate([(1, 1), (1, 2)])


# --- truncated series ------------------------------------------------------


def test_series_geometric_inverse():
    s = Series.from_poly(Poly([1, 1]), 3).inverse()
    assert s == Series([1, -1, 1, -1], 3)


def test_series_exp_coefficients():
    e = exp_series(6)
    assert e.coefficient(0) == 1
    assert e.coefficient(5) == F(1, 120)
    assert exp_series(4, 3).coefficient(2) == F(9, 2)


def test_series_squared_lah_sample():
    # ((-t)/(1+t))^2 / 2! has t^3 coefficient -1.
    order = 5
    base = Series.from_poly(Poly([0, -1]), order) * Series.from_poly(Poly([1, 1]), order).inverse()
    s = (base ** 2) * F(1, 2)
    assert s.coefficient(3) == -1
    assert s.coefficient(2) == F(1, 2)


def test_series_inverse_rejects_zero_constant_term():
    with pytest.raises(ZeroDivisionError):
        Series.from_poly(Poly([0, 1]), 4).inverse()


def test_series_mul_requires_same_order():
    with pytest.raises(ValueError):
        Series([1], 2) * Series([1], 3)


@pytest.mark.parametrize("seed", range(8))
def test_egf_product_matches_the_series_product(seed):
    """Term n of `egf_product` is n! [t^n] of sympy's product of the two
    EGFs sum a_i t^i / i! and sum b_i t^i / i!, through the shorter length."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(seed)
    a = [rng.randint(-30, 30) for _ in range(rng.randint(1, 12))]
    b = [rng.randint(-30, 30) for _ in range(rng.randint(1, 12))]
    egf = lambda xs: sum(sympy.Rational(x, math.factorial(i)) * t**i for i, x in enumerate(xs))
    product = sympy.expand(egf(a) * egf(b))
    got = egf_product(a, b)
    assert all(isinstance(v, int) for v in got)
    assert got == [product.coeff(t, n) * math.factorial(n) for n in range(min(len(a), len(b)))]


def test_series_inverse_roundtrip():
    s = Series([2, -1, F(1, 3), 5, 0, -2], 5)
    assert s * s.inverse() == Series([1], 5)
