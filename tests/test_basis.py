from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dowling.basis import (
    PolyBasis,
    connection_matrix,
    expand_in_monomials,
    factorial_basis,
    identity_matrix,
    monomial_basis,
    power_basis,
    verify_orthogonality,
    verify_tauber_product,
)
from dowling.exactmath import DegenerateBasisError, IntegralityError, Poly
from dowling.triangles import Triangle

F = Fraction


def brute_expand(factors):
    """Independent oracle: multiply linear factors as plain coefficient lists."""
    coeffs = [F(1)]
    for c0, c1 in factors:
        out = [F(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            out[i] += c * c0
            out[i + 1] += c * c1
        coeffs = out
    return coeffs


def test_basis_rejects_non_graded():
    with pytest.raises(DegenerateBasisError):
        PolyBasis((Poly([1]), Poly([5])))  # element 1 is a constant
    with pytest.raises(DegenerateBasisError):
        PolyBasis(())


def test_expand_in_monomials():
    b = factorial_basis(1, -1, 3, 4)  # (x-1|3)_n
    mat = expand_in_monomials(b)
    assert mat.rows[2] == (4, -5, 1)
    assert mat.rows[0] == (1,)
    assert expand_in_monomials(monomial_basis(5)).is_identity()


def test_connection_matrix_identity_on_same_basis():
    b = factorial_basis(1, -1, 2, 6)
    assert connection_matrix(b, b).is_identity()


def test_connection_matrix_whitney_lah_corner():
    source = factorial_basis(-1, -1, 3, 4)  # (-x-1|3)_n
    target = factorial_basis(1, -1, 3, 4)  # (x-1|3)_n
    mat = connection_matrix(source, target)
    assert mat.value(1, 0) == -2
    assert mat.value(1, 1) == -1


def test_connection_matrix_stirling_first_column():
    # Independent route: expand (x)_n by brute force and read coefficients.
    mat = connection_matrix(factorial_basis(1, 0, 1, 5), monomial_basis(5))
    for n in range(6):
        coeffs = brute_expand([(-i, 1) for i in range(n)])
        for k in range(n + 1):
            assert mat.value(n, k) == coeffs[k]


def test_connection_reconstructs_source_polynomials():
    source = factorial_basis(1, F(1, 2), F(-2, 3), 6)
    target = factorial_basis(1, -1, F(3, 2), 6)
    mat = connection_matrix(source, target)
    for n in range(7):
        rebuilt = Poly()
        for j in range(n + 1):
            rebuilt = rebuilt + target.elements[j] * mat.value(n, j)
        assert rebuilt == source.elements[n]


def test_power_basis_requires_linear():
    with pytest.raises(DegenerateBasisError):
        power_basis(Poly([1]), 3)
    b = power_basis(Poly([2, 3]), 3)
    assert b.elements[2] == Poly([4, 12, 9])


def test_verify_orthogonality():
    b = factorial_basis(1, 0, 1, 6)
    c = connection_matrix(b, monomial_basis(6))
    d = connection_matrix(monomial_basis(6), b)
    assert verify_orthogonality(c, d)
    assert verify_orthogonality(identity_matrix(0), identity_matrix(0))
    with pytest.raises(ValueError):
        verify_orthogonality(identity_matrix(2), identity_matrix(3))


def test_verify_tauber_product_identity_case():
    i = identity_matrix(4)
    assert verify_tauber_product(i, i, i)


def test_tauber_whitney_instance():
    # First family (x-1|a)_n and its mirror (-x-1|a)_n: the composite
    # connection equals the signed product of the two expansion matrices.
    nmax, alpha = 6, 3
    p1 = factorial_basis(1, -1, alpha, nmax)
    p2 = factorial_basis(-1, -1, alpha, nmax)
    c2 = expand_in_monomials(p2)
    d1 = connection_matrix(monomial_basis(nmax), p1)
    l = connection_matrix(p2, p1)
    assert verify_tauber_product(c2, d1, l)

    from dowling import families

    w = families.triangle("whitney1", {"alpha": alpha}, nmax)
    second = families.triangle("whitney2", {"alpha": alpha}, nmax)
    lah = families.triangle("whitney-lah", {"alpha": alpha}, nmax)
    for n in range(nmax + 1):
        for k in range(n + 1):
            assert c2.value(n, k) == (-1) ** k * w.value(n, k)
            assert d1.value(n, k) == second.value(n, k)
            assert l.value(n, k) == lah.value(n, k)


def test_tauber_r_lah_instance():
    # Second family (x)_n versus (-x-2r)_n: the composite connection is the
    # signed r-Lah triangle.
    from dowling import families

    nmax, r = 6, 2
    p1 = factorial_basis(1, 0, 1, nmax)
    p2 = factorial_basis(-1, -2 * r, 1, nmax)
    l = connection_matrix(p2, p1)
    expected = families.triangle("r-lah", {"r": r}, nmax)
    for n in range(nmax + 1):
        for k in range(n + 1):
            assert l.value(n, k) == (-1) ** n * expected.value(n, k)


def test_to_triangle_raises_on_rationals():
    mat = Triangle(((F(1),), (F(1, 2), F(1)),))
    with pytest.raises(IntegralityError):
        mat.to_triangle("x")
    whole = Triangle(((F(1),), (F(4, 2), 1)))
    assert whole.to_triangle("x", {"r": 2}) == Triangle(((1,), (2, 1)), "x", {"r": 2})
    assert set(map(type, whole.to_triangle("x").rows[1])) == {int}


def test_matrix_transform_and_mul():
    mat = Triangle(((1,), (2, 3)))
    assert mat.transform([1, 1]) == [1, 5]
    assert mat.mul(identity_matrix(1)).rows == mat.rows
    with pytest.raises(ValueError):
        mat.transform([1, 2, 3])
    # Mixed int and Fraction rows: a matrix and its inverse.
    half = Triangle(((1,), (F(1, 2), 2)))
    inverse = Triangle(((F(1),), (F(-1, 4), F(1, 2))))
    assert half.mul(inverse).is_identity() and inverse.mul(half).is_identity()
    assert half.mul(half).rows == ((1,), (F(3, 2), 4))
    assert not half.is_identity()


@st.composite
def graded_bases(draw, nmax=5):
    elements = []
    for n in range(nmax + 1):
        lead = draw(st.sampled_from([1, -1, 2, F(1, 2), 3]))
        lower = [draw(st.integers(-4, 4)) for _ in range(n)]
        elements.append(Poly(lower + [lead]))
    return PolyBasis(tuple(elements))


@settings(max_examples=25, deadline=None)
@given(graded_bases(), graded_bases())
def test_connection_round_trip_is_identity(p, q):
    assert connection_matrix(p, q).mul(connection_matrix(q, p)).is_identity()
