import math
import random
from fractions import Fraction

from dowling import families
from dowling.families import explicit_sum
from dowling.identities import REGISTRY, report
from dowling.triangles import product

from helpers import identity_rows, named, transform

F = Fraction

PARAM_SETS = ((0, 1, 2), (0, 2, 2), (1, 0, 0), (F(1, 2), F(1, 3), 2))


def hs_pair(nmax: int, params) -> tuple:
    """The tables s1 and s2 of one triple from the family table."""
    return tuple(families.triangle(kind, named(params), nmax) for kind in ("hs1", "hs2"))


def test_hs_pair_recovers_r_stirling2():
    s1, _ = hs_pair(5, (0, 1, 2))
    tri = families.triangle("r-stirling2", {"r": 2}, 5)
    for n in range(6):
        for k in range(n + 1):
            assert s1.value(n, k) == tri.value(n, k)


def test_hs_pair_diagonal_is_one():
    for params in PARAM_SETS:
        for table in hs_pair(6, params):
            assert all(table.value(n, n) == 1 for n in range(7))


def test_hs_pair_recovers_stirling_first_kind():
    s1, _ = hs_pair(5, (1, 0, 0))
    assert s1.rows == families.triangle("stirling1", {}, 5).rows


def test_hs_orthogonality():
    points = ((0, (3, 7, 1)), (8, (0, 1, 2)), (6, (F(1, 2), F(1, 3), 2)), (8, (2, 3, 1)), (8, (F(1, 2), F(1, 3), 2)))
    for nmax, params in points:
        s1, s2 = (table.rows for table in hs_pair(nmax, params))
        assert tuple(product(s1, s2)) == tuple(product(s2, s1)) == identity_rows(nmax), params


def test_hs_inverse_relation_roundtrip():
    for params in ((0, 1, 2), (0, 2, 2), (F(1, 2), F(1, 3), 2), (2, 3, F(-1, 2))):
        s1, s2 = (table.rows for table in hs_pair(9, params))
        for seed in range(5):
            rng = random.Random(seed)
            g = [F(rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(10)]
            assert transform(s2, transform(s1, g)) == g


def test_hs_lah_diagonal():
    for params in PARAM_SETS:
        lah = families.triangle("hs-lah", named(params), 6)
        assert all(lah.value(n, n) == (-1) ** n for n in range(7))


def test_hs_lah_whitney_reduction():
    lah = families.triangle("hs-lah", named((0, 3, 1)), 8)
    tri = families.triangle("whitney-lah", {"alpha": 3}, 8)
    for n in range(9):
        for k in range(n + 1):
            assert lah.value(n, k) == tri.value(n, k)


def test_hs_lah_r_lah_reduction():
    lah = families.triangle("hs-lah", named((0, 1, 2)), 5)
    tri = families.triangle("r-lah", {"r": 2}, 5)
    for n in range(6):
        for k in range(n + 1):
            assert (-1) ** n * lah.value(n, k) == tri.value(n, k)


def test_hs_lah_self_composition_where_self_inverse():
    # With a unit shift the Lah-type matrix coincides with the Whitney-Lah
    # family, which is its own inverse.
    for beta in (2, 3):
        lah = tuple(families.rows("hs-lah", named((0, beta, 1)), 8))
        assert tuple(product(lah, lah)) == identity_rows(8)


def test_hs_bell_values():
    assert families.row_sum("hs1", named((0, 1, 2)), 3) == 37
    assert families.row_sum("hs1", named((0, 2, 2)), 4) == 257
    assert families.row_sum("hs1", named((5, 1, 3)), 0) == 1


def test_hs_bell_explicit_agrees():
    for params in PARAM_SETS:
        for n in range(11):
            assert explicit_sum("hs-bell", named(params), n) == families.row_sum("hs1", named(params), n)


def test_cakic_unit_step_is_identity():
    assert families.triangle("cakic", {"alpha": 1}, 6).rows == identity_rows(6)


def test_cakic_diagonal_and_bell_routes():
    mat = families.triangle("cakic", {"alpha": 2}, 6)
    for n in range(7):
        assert mat.value(n, n) == 1
    for n in range(7):
        row_sum = sum(mat.value(n, k) for k in range(n + 1))
        assert families.row_sum("cakic", {"alpha": 2}, n) == row_sum
        assert explicit_sum("hs-bell", named((2, 1, 0)), n) == row_sum


def test_cakic_defining_relation():
    # Step-alpha factorial of x expanded in plain falling factorials:
    # (x|alpha)_n = sum_k C(n,k) (x)_k, both sides of degree n, so equal
    # where they agree at x = 0..n.
    for alpha in (2, 3):
        tri = families.triangle("cakic", {"alpha": alpha}, 5)
        for n in range(6):
            for x in range(n + 1):
                falling = [math.prod(x - i for i in range(k)) for k in range(n + 1)]
                assert sum(c * f for c, f in zip(tri.row(n), falling)) == math.prod(x - i * alpha for i in range(n))


def test_specialization_report_trivial_nmax():
    assert report(REGISTRY["specializations"], nmax=0)["failures"] == []


def test_degenerate_step_pair_still_works():
    # alpha = beta = 0 turns both sides into shifted monomial bases.
    s1, s2 = (table.rows for table in hs_pair(5, (0, 0, 1)))
    assert tuple(product(s1, s2)) == tuple(product(s2, s1)) == identity_rows(5)
    assert s1[4] == (1, 4, 6, 4, 1)
