import random

import pytest

from dowling.classic import bell, stirling2_triangle
from dowling.exactmath import interpolate
from dowling.whitney import (
    bell_via_dowling,
    dowling,
    dowling_explicit,
    verify_whitney_lah_inverse,
    verify_whitney_lah_orthogonality,
    whitney_first,
    whitney_lah,
    whitney_lah_from_whitney,
    whitney_lah_horizontal,
    whitney_lah_vertical,
    whitney_second,
    whitney_second_benoumhani,
)

ALPHAS = (1, 2, 3, 5)

# Closed forms of the small Whitney-Lah entries as polynomials in the step
# (constant coefficient first).
WHITNEY_LAH_POLYS = {
    (0, 0): (1,),
    (1, 0): (-2,),
    (1, 1): (-1,),
    (2, 0): (4, 2),
    (2, 1): (4, 2),
    (2, 2): (1,),
    (3, 0): (-8, -12, -4),
    (3, 1): (-12, -18, -6),
    (3, 2): (-6, -6),
    (3, 3): (-1,),
}


def test_whitney_first_small():
    tri = whitney_first(4, 3)
    assert tri.value(1, 0) == -1 and tri.value(1, 1) == 1
    assert tri.value(0, 0) == 1
    assert tri.row(2) == (4, -5, 1)


def test_whitney_second_small():
    tri = whitney_second(3, 3)
    assert tri.rows == ((1,), (1, 1), (1, 5, 1), (1, 21, 12, 1))
    assert all(whitney_second(6, a).value(n, n) == 1 for a in ALPHAS for n in range(7))


def test_whitney_second_defining_relation():
    # x^n = sum_k W(n,k) (x-1|alpha)_k, checked as exact polynomial identity.
    from dowling.basis import connection_matrix, factorial_basis, monomial_basis

    for alpha in (1, 3):
        mat = connection_matrix(monomial_basis(8), factorial_basis(1, -1, alpha, 8))
        tri = whitney_second(8, alpha)
        for n in range(9):
            for k in range(n + 1):
                assert mat.value(n, k) == tri.value(n, k)


def test_benoumhani_sum():
    assert whitney_second_benoumhani(3, 1, 3) == 21
    for alpha in ALPHAS:
        tri = whitney_second(20, alpha)
        for n in range(21):
            for k in range(n + 1):
                assert whitney_second_benoumhani(n, k, alpha) == tri.value(n, k)


def test_whitney_lah_table_values():
    for alpha in (1, 3):
        tri = whitney_lah(3, alpha)
        assert tri.value(1, 0) == -2
        assert tri.value(1, 1) == -1
        assert tri.value(2, 1) == 2 * (alpha + 2)
        assert tri.value(3, 2) == -6 * (alpha + 1)
    assert whitney_lah(3, 3).value(3, 2) == -24


def test_whitney_lah_matches_closed_form_polynomials():
    # Entries have degree <= n in the step, so n+2 sample points pin each one.
    samples = range(1, 9)
    tables = {a: whitney_lah(6, a) for a in samples}
    for (n, k), coeffs in WHITNEY_LAH_POLYS.items():
        pts = [(a, tables[a].value(n, k)) for a in samples]
        assert interpolate(pts) == interpolate(
            [(a, sum(c * a ** i for i, c in enumerate(coeffs))) for a in samples]
        )
    for n in range(7):
        for k in range(n + 1):
            fitted = interpolate([(a, tables[a].value(n, k)) for a in samples])
            assert fitted.degree <= n


def test_whitney_lah_recurrence_routes_agree():
    for alpha in ALPHAS:
        tri = whitney_lah(15, alpha)
        for n in range(16):
            for k in range(n + 1):
                if k >= 1:
                    assert whitney_lah_vertical(n, k, alpha) == tri.value(n, k)
                assert whitney_lah_horizontal(n, k, alpha) == tri.value(n, k)


def test_whitney_lah_vertical_domain():
    assert whitney_lah_vertical(0, 0, 3) == 1
    assert whitney_lah_vertical(2, 1, 5) == 2 * (5 + 2)
    with pytest.raises(ValueError):
        whitney_lah_vertical(3, 0, 3)


def test_whitney_lah_horizontal_small():
    assert whitney_lah_horizontal(1, 0, 7) == -2
    assert whitney_lah_horizontal(4, 4, 3) == 1


def test_whitney_lah_from_whitney():
    assert whitney_lah_from_whitney(2, 1, 3) == 10
    for alpha in (1, 2, 3):
        tri = whitney_lah(12, alpha)
        for n in range(13):
            assert whitney_lah_from_whitney(n, n, alpha) == (-1) ** n
            for k in range(n + 1):
                assert whitney_lah_from_whitney(n, k, alpha) == tri.value(n, k)


def test_whitney_lah_orthogonality():
    assert verify_whitney_lah_orthogonality(0, 3)
    assert verify_whitney_lah_orthogonality(8, 3)
    assert verify_whitney_lah_orthogonality(8, 1)
    assert verify_whitney_lah_orthogonality(12, 5)


def test_whitney_lah_inverse_roundtrip():
    assert verify_whitney_lah_inverse([1, 0, 0, 0], 3)
    assert verify_whitney_lah_inverse(list(range(1, 11)), 3)
    rng = random.Random(7)
    for _ in range(5):
        g = [rng.randint(-30, 30) for _ in range(9)]
        assert verify_whitney_lah_inverse(g, 2)


def test_whitney_orthogonality_both_orders():
    for alpha in (1, 3):
        w = whitney_first(12, alpha)
        second = whitney_second(12, alpha)
        assert w.mul(second).is_identity()
        assert second.mul(w).is_identity()


def test_dowling_values():
    assert dowling(0, 3) == 1
    assert dowling(2, 3) == 7
    assert dowling(3, 3) == 35


def test_dowling_explicit_matches_row_sums():
    assert dowling_explicit(3, 3) == 35
    assert dowling_explicit(0, 4) == 1
    for alpha in ALPHAS:
        for n in range(16):
            assert dowling_explicit(n, alpha) == dowling(n, alpha)


def test_unit_step_reduces_to_bell_and_stirling():
    assert bell_via_dowling(3) == 15
    assert bell_via_dowling(0) == 1
    for n in range(13):
        assert bell_via_dowling(n) == bell(n + 1)
    s2 = stirling2_triangle(13)
    w1 = whitney_second(12, 1)
    for n in range(13):
        for j in range(n + 1):
            assert w1.value(n, j) == s2.value(n + 1, j + 1)


def test_alpha_validation():
    with pytest.raises(ValueError):
        whitney_second(3, 0)
    from dowling.exactmath import IntegralityError
    from fractions import Fraction

    with pytest.raises(IntegralityError):
        whitney_lah(3, Fraction(1, 2))
