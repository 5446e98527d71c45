import math
import random
from fractions import Fraction

import pytest

from dowling import families
from dowling.families import UsageError
from dowling.identities import lah_route, whitney_second_benoumhani_rows
from dowling.triangles import product
from dowling.whitney import dowling_explicit

from helpers import identity_rows, transform

ALPHAS = (1, 2, 3, 5)
VERTICAL, HORIZONTAL, PRODUCT = (
    lambda nmax, kind=kind, **point: tuple(lah_route(kind, "whitney-lah", nmax, **point))
    for kind in ("vertical", "horizontal", "product")
)

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


def _differences(values, order) -> list:
    """The finite differences of the given order of equally spaced values."""
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


def test_whitney_first_small():
    tri = families.triangle("whitney1", {"alpha": 3}, 4)
    assert tri.value(1, 0) == -1 and tri.value(1, 1) == 1
    assert tri.value(0, 0) == 1
    assert tri.row(2) == (4, -5, 1)


def test_whitney_second_small():
    tri = families.triangle("whitney2", {"alpha": 3}, 3)
    assert tri.rows == ((1,), (1, 1), (1, 5, 1), (1, 21, 12, 1))
    for alpha in ALPHAS:
        tri = families.triangle("whitney2", {"alpha": alpha}, 6)
        assert all(tri.value(n, n) == 1 for n in range(7))


def test_whitney_second_defining_relation():
    # x^n = sum_k W(n,k) (x-1|alpha)_k: both sides have degree n, so they
    # agree as polynomials where they agree at the n+1 points x = 0..n.
    for alpha in (1, 3):
        tri = families.triangle("whitney2", {"alpha": alpha}, 8)
        for n in range(9):
            for x in range(n + 1):
                falling = [math.prod(x - 1 - i * alpha for i in range(k)) for k in range(n + 1)]
                assert sum(w * f for w, f in zip(tri.row(n), falling)) == x**n, (alpha, n, x)


def test_benoumhani_sum():
    assert whitney_second_benoumhani_rows(3, 3)[3][1] == 21
    for alpha in ALPHAS:
        rows = families.triangle("whitney2", {"alpha": alpha}, 20).rows
        assert whitney_second_benoumhani_rows(20, alpha) == rows


def test_whitney_lah_table_values():
    for alpha in (1, 3):
        tri = families.triangle("whitney-lah", {"alpha": alpha}, 3)
        assert tri.value(1, 0) == -2
        assert tri.value(1, 1) == -1
        assert tri.value(2, 1) == 2 * (alpha + 2)
        assert tri.value(3, 2) == -6 * (alpha + 1)
    assert families.triangle("whitney-lah", {"alpha": 3}, 3).value(3, 2) == -24


def test_whitney_lah_matches_closed_form_polynomials():
    # Entry (n, k) is a polynomial of degree <= n in the step, so its
    # (n+1)-th differences over the steps 1..8 vanish; the closed forms give
    # the entries of rows 0..3 at each step.
    samples = range(1, 9)
    tables = {a: families.triangle("whitney-lah", {"alpha": a}, 6) for a in samples}
    for (n, k), coeffs in WHITNEY_LAH_POLYS.items():
        closed_form = [sum(c * a**i for i, c in enumerate(coeffs)) for a in samples]
        assert [tables[a].value(n, k) for a in samples] == closed_form, (n, k)
    for n in range(7):
        for k in range(n + 1):
            assert not any(_differences([tables[a].value(n, k) for a in samples], n + 1)), (n, k)


def test_whitney_lah_recurrence_routes_agree():
    for alpha in ALPHAS:
        rows = families.triangle("whitney-lah", {"alpha": alpha}, 15).rows
        # The vertical expansion holds from column 1 on.
        assert [row[1:] for row in VERTICAL(15, alpha=alpha)] == [row[1:] for row in rows]
        assert HORIZONTAL(15, alpha=alpha) == rows


def test_whitney_lah_vertical_domain():
    rows = VERTICAL(3, alpha=5)
    assert rows[0] == (1,)
    assert rows[2][1] == 2 * (5 + 2)
    # Column 0 is outside the expansion: it reads 0, not L(n, 0).
    assert rows[3][0] == 0 != families.triangle("whitney-lah", {"alpha": 5}, 3).value(3, 0)


def test_whitney_lah_horizontal_small():
    assert HORIZONTAL(1, alpha=7)[1][0] == -2
    assert HORIZONTAL(4, alpha=3)[4][4] == 1


def test_whitney_lah_from_whitney():
    assert PRODUCT(2, alpha=3)[2][1] == 10
    for alpha in (1, 2, 3):
        rows = PRODUCT(12, alpha=alpha)
        assert all(rows[n][n] == (-1) ** n for n in range(13))
        assert rows == families.triangle("whitney-lah", {"alpha": alpha}, 12).rows


def test_whitney_lah_orthogonality():
    for nmax, alpha in ((0, 3), (8, 3), (8, 1), (12, 5)):
        lah = families.triangle("whitney-lah", {"alpha": alpha}, nmax).rows
        assert tuple(product(lah, lah)) == identity_rows(nmax)


def test_whitney_lah_inverse_roundtrip():
    rng = random.Random(7)
    samples = [([1, 0, 0, 0], 3), (list(range(1, 11)), 3)]
    samples += [([rng.randint(-30, 30) for _ in range(9)], 2) for _ in range(5)]
    for g, alpha in samples:
        lah = families.triangle("whitney-lah", {"alpha": alpha}, len(g) - 1).rows
        assert transform(lah, transform(lah, g)) == g


def test_whitney_orthogonality_both_orders():
    for alpha in (1, 3):
        w = families.triangle("whitney1", {"alpha": alpha}, 12).rows
        second = families.triangle("whitney2", {"alpha": alpha}, 12).rows
        assert tuple(product(w, second)) == identity_rows(12)
        assert tuple(product(second, w)) == identity_rows(12)


def test_dowling_values():
    assert families.row_sum("whitney2", {"alpha": 3}, 0) == 1
    assert families.row_sum("whitney2", {"alpha": 3}, 2) == 7
    assert families.row_sum("whitney2", {"alpha": 3}, 3) == 35


def test_dowling_explicit_matches_row_sums():
    assert dowling_explicit(3, 3) == 35
    assert dowling_explicit(0, 4) == 1
    for alpha in ALPHAS:
        for n in range(16):
            assert dowling_explicit(n, alpha) == families.row_sum("whitney2", {"alpha": alpha}, n)


def test_alpha_validation():
    with pytest.raises(UsageError):
        families.triangle("whitney2", {"alpha": 0}, 3)
    with pytest.raises(UsageError):
        families.triangle("whitney-lah", {"alpha": Fraction(1, 2)}, 3)
