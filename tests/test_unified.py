import random
import re
from fractions import Fraction

from dowling.basis import verify_orthogonality
from dowling.classic import stirling1_triangle
from dowling.rnumbers import r_lah, r_stirling2
from dowling.unified import (
    HSParams,
    cakic,
    cakic_bell,
    cakic_bell_explicit,
    hs_bell,
    hs_bell_explicit,
    hs_lah_matrix,
    hs_pair,
    verify_specializations,
)
from dowling.whitney import whitney_lah

F = Fraction

PARAM_SETS = (
    HSParams(0, 1, 2),
    HSParams(0, 2, 2),
    HSParams(1, 0, 0),
    HSParams(F(1, 2), F(1, 3), 2),
)


def test_hs_pair_recovers_r_stirling2():
    pair = hs_pair(5, HSParams(0, 1, 2))
    tri = r_stirling2(5, 2)
    for n in range(6):
        for k in range(n + 1):
            assert pair.s1.value(n, k) == tri.value(n, k)


def test_hs_pair_diagonal_is_one():
    for params in PARAM_SETS:
        pair = hs_pair(6, params)
        for n in range(7):
            assert pair.s1.value(n, n) == 1
            assert pair.s2.value(n, n) == 1


def test_hs_pair_recovers_stirling_first_kind():
    pair = hs_pair(5, HSParams(1, 0, 0))
    s1 = stirling1_triangle(5)
    for n in range(6):
        for k in range(n + 1):
            assert pair.s1.value(n, k) == s1.value(n, k)


def test_hs_orthogonality():
    assert verify_orthogonality(*hs_pair(0, HSParams(3, 7, 1)))
    assert verify_orthogonality(*hs_pair(8, HSParams(0, 1, 2)))
    assert verify_orthogonality(*hs_pair(6, HSParams(F(1, 2), F(1, 3), 2)))
    assert verify_orthogonality(*hs_pair(8, HSParams(2, 3, 1)))
    assert verify_orthogonality(*hs_pair(8, HSParams(F(1, 2), F(1, 3), 2)))


def test_hs_inverse_relation_roundtrip():
    for params in (
        HSParams(0, 1, 2), HSParams(0, 2, 2), HSParams(F(1, 2), F(1, 3), 2), HSParams(2, 3, F(-1, 2))
    ):
        pair = hs_pair(9, params)
        for seed in range(5):
            rng = random.Random(seed)
            g = [F(rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(10)]
            assert pair.s2.transform(pair.s1.transform(g)) == g


def test_hs_lah_diagonal():
    for params in PARAM_SETS:
        lah = hs_lah_matrix(6, params)
        assert all(lah.value(n, n) == (-1) ** n for n in range(7))


def test_hs_lah_whitney_reduction():
    lah = hs_lah_matrix(8, HSParams(0, 3, 1))
    tri = whitney_lah(8, 3)
    for n in range(9):
        for k in range(n + 1):
            assert lah.value(n, k) == tri.value(n, k)


def test_hs_lah_r_lah_reduction():
    lah = hs_lah_matrix(5, HSParams(0, 1, 2))
    tri = r_lah(5, 2)
    for n in range(6):
        for k in range(n + 1):
            assert (-1) ** n * lah.value(n, k) == tri.value(n, k)


def test_hs_lah_self_composition_where_self_inverse():
    # With a unit shift the Lah-type matrix coincides with the Whitney-Lah
    # family, which is its own inverse.
    for beta in (2, 3):
        lah = hs_lah_matrix(8, HSParams(0, beta, 1))
        assert lah.mul(lah).is_identity()


def test_hs_bell_values():
    assert hs_bell(3, HSParams(0, 1, 2)) == 37
    assert hs_bell(4, HSParams(0, 2, 2)) == 257
    assert hs_bell(0, HSParams(5, 1, 3)) == 1


def test_hs_bell_explicit_agrees():
    for params in PARAM_SETS:
        for n in range(11):
            assert hs_bell_explicit(n, params) == hs_bell(n, params)


def test_cakic_unit_step_is_identity():
    assert cakic(6, 1).is_identity()


def test_cakic_diagonal_and_bell_routes():
    mat = cakic(6, 2)
    for n in range(7):
        assert mat.value(n, n) == 1
    for n in range(7):
        row_sum = sum(mat.value(n, k) for k in range(n + 1))
        assert cakic_bell(n, 2) == row_sum
        assert cakic_bell_explicit(n, 2) == row_sum


def test_cakic_defining_relation():
    # Step-alpha factorial of x expanded in plain falling factorials.
    from dowling.basis import connection_matrix, factorial_basis

    for alpha in (2, 3):
        expected = connection_matrix(factorial_basis(1, 0, alpha, 5), factorial_basis(1, 0, 1, 5))
        assert cakic(5, alpha).rows == expected.rows


def test_specialization_report_passes():
    failures, notes = verify_specializations(6)
    assert failures == []
    # Conventions hold "; " themselves, so split only before "<name>: ".
    conventions = dict(note.split(": ", 1) for note in re.split(r"; (?=[a-z-]+: )", notes))
    assert len(conventions) == 10
    assert not conventions["r-stirling-first"].endswith("as printed")
    assert "(-1)^(n-k)" in conventions["r-stirling-first"]
    assert conventions["whitney-second"].endswith("as printed")
    assert "+alpha" in conventions["cakic"]


def test_specialization_report_trivial_nmax():
    failures, _ = verify_specializations(0)
    assert failures == []


def test_degenerate_step_pair_still_works():
    # alpha = beta = 0 turns both sides into shifted monomial bases.
    pair = hs_pair(5, HSParams(0, 0, 1))
    assert verify_orthogonality(*pair)
    binomial_row = [pair.s1.value(4, k) for k in range(5)]
    assert binomial_row == [1, 4, 6, 4, 1]
