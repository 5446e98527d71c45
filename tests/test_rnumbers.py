import random
from fractions import Fraction

import pytest

from dowling.classic import bell, lah_signless, stirling2_triangle
from dowling.exactmath import IntegralityError
from dowling.oracle import PartitionSpec, count_all_partitions, count_partitions
from dowling.rnumbers import (
    r_bell,
    r_bell_explicit,
    r_dowling,
    r_dowling_explicit,
    r_inverse_pair,
    r_lah,
    r_lah_from_stirlings_rows,
    r_stirling1,
    r_stirling2,
    r_whitney_first,
    r_whitney_lah,
    r_whitney_lah_explicit,
    r_whitney_lah_from_whitney_rows,
    r_whitney_lah_horizontal_rows,
    r_whitney_lah_vertical_rows,
    r_whitney_second,
    r_whitney_second_by_solve,
    verify_log_concavity,
    weighted_stirling_egf_check,
)
from dowling.triangles import Triangle, transform

R_STIRLING2_R2 = ((1,), (2, 1), (4, 5, 1), (8, 19, 9, 1), (16, 65, 55, 14, 1), (32, 211, 285, 125, 20, 1))
R_LAH_R2 = (
    (1,),
    (4, 1),
    (20, 10, 1),
    (120, 90, 18, 1),
    (840, 840, 252, 28, 1),
    (6720, 8400, 3360, 560, 40, 1),
)
R_WHITNEY2_22 = ((1,), (2, 1), (4, 6, 1), (8, 28, 12, 1), (16, 120, 100, 20, 1))
R_WHITNEY_LAH_22 = ((1,), (4, 1), (24, 12, 1), (192, 144, 24, 1), (1920, 1920, 480, 40, 1))

PARAM_GRID = ((1, 1), (2, 2), (3, 2))


def test_r_stirling2_table():
    assert r_stirling2(5, 2).rows == R_STIRLING2_R2
    assert all(r_stirling2(6, r).value(n, n) == 1 for r in range(4) for n in range(7))


def test_r_stirling1_small():
    tri = r_stirling1(4, 2)
    assert tri.value(1, 0) == 2
    assert tri.value(2, 0) == 6
    assert tri.value(2, 1) == 5
    assert all(r_stirling1(5, r).value(n, n) == 1 for r in range(4) for n in range(6))


def test_r_lah_table():
    assert r_lah(5, 2).rows == R_LAH_R2
    assert r_lah(5, 2).value(5, 0) == 6720
    assert r_lah(5, 2).value(2, 1) == 10


def test_r_lah_from_stirlings():
    assert r_lah_from_stirlings_rows(2, 2)[2][0] == 20
    for r in range(4):
        rows = r_lah_from_stirlings_rows(10, r)
        assert all(rows[n][n] == 1 for n in range(11))
        assert rows == r_lah(10, r).rows


def test_r_inverse_roundtrip():
    rng = random.Random(11)
    samples = [([1, 0, 0, 0, 0], 2), (list(range(1, 9)), 2)]
    samples += [([rng.randint(-40, 40) for _ in range(8)], r) for r in (1, 2) for _ in range(5)]
    for a, r in samples:
        first, second = r_inverse_pair(len(a) - 1, r)
        assert transform(second, transform(first, a)) == a


def test_r_bell_values_and_routes():
    assert r_bell(0, 2) == 1
    assert r_bell(3, 2) == 37 and r_bell_explicit(3, 2) == 37
    assert r_bell(5, 2) == 674
    for r in range(4):
        for n in range(13):
            assert r_bell_explicit(n, r) == r_bell(n, r)


def test_r_lah_row_sums_feed_the_bell_formula():
    tri = r_lah(4, 2)
    assert tuple(tri.row_sum(n) for n in range(5)) == (1, 5, 31, 229, 1961)


def test_weighted_stirling_egf():
    assert weighted_stirling_egf_check(5, 2, 8)
    for r in range(4):
        assert weighted_stirling_egf_check(4, r, 12)
    with pytest.raises(ValueError):
        weighted_stirling_egf_check(5, 2, 3)


def test_r_stirling2_column_zero_is_powers_of_r():
    tri = r_stirling2(5, 2)
    assert tuple(tri.value(n, 0) for n in range(6)) == (1, 2, 4, 8, 16, 32)


def test_r_zero_reduces_to_classic():
    s2 = stirling2_triangle(12)
    assert r_stirling2(12, 0).rows == s2.rows
    rl = r_lah(12, 0)
    for n in range(13):
        for k in range(n + 1):
            assert rl.value(n, k) == lah_signless(n, k)
    for n in range(13):
        assert r_bell(n, 0) == bell(n)


def test_r_families_match_oracle_counts():
    for r in range(4):
        top = 11 - r
        rs2 = r_stirling2(top, r)
        rl = r_lah(top, r)
        for n in range(top + 1):
            for k in range(n + 1):
                assert rs2.value(n, k) == count_partitions(PartitionSpec(n + r, k + r, r))
                spec = PartitionSpec(n + r, k + r, r, ordered_blocks=True)
                assert rl.value(n, k) == count_partitions(spec)
            assert r_bell(n, r) == count_all_partitions(n + r, r)


def test_r_whitney_second_table_and_recurrence():
    tri = r_whitney_second(4, 2, 2)
    assert tri.rows == R_WHITNEY2_22
    assert tri.value(2, 1) == 6
    assert tri.value(4, 2) == 100
    for m, r in PARAM_GRID:
        assert r_whitney_second(10, m, r).rows == r_whitney_second_by_solve(10, m, r).rows


def test_r_whitney_first_small():
    tri = r_whitney_first(5, 2, 2)
    assert tri.value(1, 0) == 2
    assert all(tri.value(n, n) == 1 for n in range(6))


def test_r_whitney_orthogonality():
    for m, r in PARAM_GRID:
        w = r_whitney_first(8, m, r)
        second = r_whitney_second(8, m, r)
        signed = Triangle(
            tuple(tuple((-1) ** (n - j) * w.value(n, j) for j in range(n + 1)) for n in range(9))
        )
        assert signed.mul(second).is_identity()
        assert second.mul(signed).is_identity()


def test_r_whitney_inverse_relation():
    w = r_whitney_first(7, 2, 2)
    second = r_whitney_second(7, 2, 2)
    rng = random.Random(3)
    for _ in range(5):
        g = [rng.randint(-40, 40) for _ in range(8)]
        f = [sum((-1) ** (n - j) * w.value(n, j) * g[j] for j in range(n + 1)) for n in range(8)]
        back = [sum(second.value(n, j) * f[j] for j in range(n + 1)) for n in range(8)]
        assert back == g


def test_r_whitney_lah_table():
    tri = r_whitney_lah(4, 2, 2)
    assert tri.rows == R_WHITNEY_LAH_22
    assert tri.value(2, 1) == 12
    assert tri.value(4, 0) == 1920
    assert tuple(tri.row_sum(n) for n in range(5)) == (1, 5, 37, 361, 4361)


def _from_column_1(rows) -> list:
    """The rows without column 0, where the vertical expansion does not hold."""
    return [row[1:] for row in rows]


def test_r_whitney_lah_all_routes_agree():
    for m, r in PARAM_GRID:
        rows = r_whitney_lah(12, m, r).rows
        explicit = tuple(tuple(r_whitney_lah_explicit(n, k, m, r) for k in range(n + 1)) for n in range(13))
        assert explicit == rows
        assert r_whitney_lah_from_whitney_rows(12, m, r) == rows
        assert r_whitney_lah_horizontal_rows(12, m, r) == rows
        assert _from_column_1(r_whitney_lah_vertical_rows(12, m, r)) == _from_column_1(rows)


def test_r_whitney_lah_route_examples():
    vertical = r_whitney_lah_vertical_rows(3, 2, 2)
    assert vertical[2][1] == 12
    assert vertical[3][0] == 0 != r_whitney_lah(3, 2, 2).value(3, 0)  # outside the expansion
    assert r_whitney_lah_horizontal_rows(1, 2, 2)[1][0] == 4
    assert r_whitney_lah_explicit(2, 1, 2, 2) == 12


def test_r_whitney_lah_explicit_degenerate_r_zero():
    tri = r_whitney_lah(8, 2, 0)
    for n in range(9):
        for k in range(n + 1):
            assert r_whitney_lah_explicit(n, k, 2, 0) == tri.value(n, k)


def test_r_whitney_lah_m1_reduces_to_r_lah():
    for r in (1, 2, 3):
        rows = r_lah(10, r).rows
        assert r_whitney_lah(10, 1, r).rows == rows
        assert r_whitney_lah_horizontal_rows(10, 1, r) == rows
        assert _from_column_1(r_whitney_lah_vertical_rows(10, 1, r)) == _from_column_1(rows)


def test_log_concavity():
    assert verify_log_concavity(2, 2, 2)
    for m, r in ((1, 1), (2, 2), (3, 1)):
        for n in range(2, 21):
            assert verify_log_concavity(n, m, r)
    with pytest.raises(ValueError):
        verify_log_concavity(1, 2, 2)


def test_r_dowling_values_and_routes():
    assert r_dowling(0, 2, 2) == 1
    assert r_dowling(3, 2, 2) == 49
    assert r_dowling(4, 2, 2) == 257 and r_dowling_explicit(4, 2, 2) == 257
    for m, r in PARAM_GRID:
        for n in range(13):
            assert r_dowling_explicit(n, m, r) == r_dowling(n, m, r)


def test_r_whitney_second_r1_matches_whitney():
    from dowling.whitney import whitney_second

    for m in (1, 2, 3):
        plain = whitney_second(10, m)
        shifted = r_whitney_second(10, m, 1)
        assert plain.rows == shifted.rows


def test_r_whitney_second_unit_step_no_shift_is_stirling2():
    assert r_whitney_second(10, 1, 0).rows == stirling2_triangle(10).rows


def test_parameter_validation():
    with pytest.raises(ValueError):
        r_whitney_second(3, 0, 2)
    with pytest.raises(ValueError):
        r_lah(3, -1)
    # A non-integer r or m is an integrality fault, as for alpha.
    with pytest.raises(IntegralityError):
        r_lah(3, 2.5)
    with pytest.raises(IntegralityError):
        r_whitney_second(3, Fraction(3, 2), 2)
