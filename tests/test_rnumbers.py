import random
from fractions import Fraction

import pytest

from dowling import basis, families
from dowling.families import UsageError, explicit_sum
from dowling.identities import lah_route, verify_log_concavity
from dowling.oracle import count_all_partitions, count_partitions
from dowling.triangles import product

from helpers import transform

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
RW_VERTICAL, RW_HORIZONTAL, RW_PRODUCT, RW_EXPLICIT = (
    lambda nmax, kind=kind, **point: tuple(lah_route(kind, "r-whitney-lah", nmax, **point))
    for kind in ("vertical", "horizontal", "product", "explicit")
)


def test_r_stirling2_table():
    assert families.triangle("r-stirling2", {"r": 2}, 5).rows == R_STIRLING2_R2
    for r in range(4):
        assert all(families.triangle("r-stirling2", {"r": r}, 6).value(n, n) == 1 for n in range(7))


def test_r_stirling1_small():
    tri = families.triangle("r-stirling1", {"r": 2}, 4)
    assert tri.value(1, 0) == 2
    assert tri.value(2, 0) == 6
    assert tri.value(2, 1) == 5
    for r in range(4):
        assert all(families.triangle("r-stirling1", {"r": r}, 5).value(n, n) == 1 for n in range(6))


def test_r_lah_table():
    tri = families.triangle("r-lah", {"r": 2}, 5)
    assert tri.rows == R_LAH_R2
    assert tri.value(5, 0) == 6720
    assert tri.value(2, 1) == 10


def test_r_lah_from_stirlings():
    assert tuple(lah_route("product", "r-lah", 2, r=2))[2][0] == 20
    for r in range(4):
        rows = tuple(lah_route("product", "r-lah", 10, r=r))
        assert all(rows[n][n] == 1 for n in range(11))
        assert rows == families.triangle("r-lah", {"r": r}, 10).rows


def test_r_inverse_roundtrip():
    rng = random.Random(11)
    samples = [([1, 0, 0, 0, 0], 2), (list(range(1, 9)), 2)]
    samples += [([rng.randint(-40, 40) for _ in range(8)], r) for r in (1, 2) for _ in range(5)]
    for a, r in samples:
        # b_n = sum_j A(n,j) a_j is undone by a_n = sum_j (-1)^(n-j) S(n,j) b_j.
        first = families.triangle("r-stirling1", {"r": r}, len(a) - 1).rows
        second = families.triangle("r-stirling2", {"r": r}, len(a) - 1).rows
        second = [[(-1) ** (n - k) * v for k, v in enumerate(row)] for n, row in enumerate(second)]
        assert transform(second, transform(first, a)) == a


def test_r_bell_values_and_routes():
    assert families.row_sum("r-stirling2", {"r": 2}, 0) == 1
    assert families.row_sum("r-stirling2", {"r": 2}, 3) == 37 and explicit_sum("r-bell", {"r": 2}, 3) == 37
    assert families.row_sum("r-stirling2", {"r": 2}, 5) == 674
    for r in range(4):
        for n in range(13):
            assert explicit_sum("r-bell", {"r": r}, n) == families.row_sum("r-stirling2", {"r": r}, n)


def test_r_lah_row_sums_feed_the_bell_formula():
    tri = families.triangle("r-lah", {"r": 2}, 4)
    assert tuple(sum(tri.row(n)) for n in range(5)) == (1, 5, 31, 229, 1961)


def test_r_stirling2_column_zero_is_powers_of_r():
    tri = families.triangle("r-stirling2", {"r": 2}, 5)
    assert tuple(tri.value(n, 0) for n in range(6)) == (1, 2, 4, 8, 16, 32)


def test_r_zero_reduces_to_classic():
    s2 = families.triangle("stirling2", {}, 12)
    assert families.triangle("r-stirling2", {"r": 0}, 12).rows == s2.rows
    rl = families.triangle("r-lah", {"r": 0}, 12)
    lah = families.triangle("lah", {}, 12)
    for n in range(13):
        for k in range(n + 1):
            assert rl.value(n, k) == (-1) ** n * lah.value(n, k)
    for n in range(13):
        assert families.row_sum("r-stirling2", {"r": 0}, n) == families.row_sum("stirling2", {}, n)


def test_r_families_match_oracle_counts():
    for r in range(4):
        top = 11 - r
        rs2 = families.triangle("r-stirling2", {"r": r}, top)
        rl = families.triangle("r-lah", {"r": r}, top)
        for n in range(top + 1):
            for k in range(n + 1):
                assert rs2.value(n, k) == count_partitions(n + r, k + r, r)
                assert rl.value(n, k) == count_partitions(n + r, k + r, r, ordered=True)
            assert families.row_sum("r-stirling2", {"r": r}, n) == count_all_partitions(n + r, r)


def test_r_whitney_second_table_and_recurrence():
    tri = families.triangle("r-whitney2", {"m": 2, "r": 2}, 4)
    assert tri.rows == R_WHITNEY2_22
    assert tri.value(2, 1) == 6
    assert tri.value(4, 2) == 100
    for m, r in PARAM_GRID:
        engine = families.triangle("r-whitney2", {"m": m, "r": r}, 10)
        assert basis.scaled_solve("r-whitney2", {"m": m, "r": r}, 10) == (1, engine.rows)


def test_r_whitney_first_small():
    tri = families.triangle("r-whitney1", {"m": 2, "r": 2}, 5)
    assert tri.value(1, 0) == 2
    assert all(tri.value(n, n) == 1 for n in range(6))


def test_r_whitney_orthogonality():
    for m, r in PARAM_GRID:
        w = families.triangle("r-whitney1", {"m": m, "r": r}, 8)
        second = families.triangle("r-whitney2", {"m": m, "r": r}, 8).rows
        signed = tuple(tuple((-1) ** (n - j) * w.value(n, j) for j in range(n + 1)) for n in range(9))
        identity = tuple(tuple(int(n == j) for j in range(n + 1)) for n in range(9))
        assert tuple(product(signed, second)) == identity
        assert tuple(product(second, signed)) == identity


def test_r_whitney_inverse_relation():
    w = families.triangle("r-whitney1", {"m": 2, "r": 2}, 7)
    second = families.triangle("r-whitney2", {"m": 2, "r": 2}, 7)
    rng = random.Random(3)
    for _ in range(5):
        g = [rng.randint(-40, 40) for _ in range(8)]
        f = [sum((-1) ** (n - j) * w.value(n, j) * g[j] for j in range(n + 1)) for n in range(8)]
        back = [sum(second.value(n, j) * f[j] for j in range(n + 1)) for n in range(8)]
        assert back == g


def test_r_whitney_lah_table():
    tri = families.triangle("r-whitney-lah", {"m": 2, "r": 2}, 4)
    assert tri.rows == R_WHITNEY_LAH_22
    assert tri.value(2, 1) == 12
    assert tri.value(4, 0) == 1920
    assert tuple(sum(tri.row(n)) for n in range(5)) == (1, 5, 37, 361, 4361)


def _from_column_1(rows) -> list:
    """The rows without column 0, where the vertical expansion does not hold."""
    return [row[1:] for row in rows]


def test_r_whitney_lah_all_routes_agree():
    for m, r in PARAM_GRID:
        rows = families.triangle("r-whitney-lah", {"m": m, "r": r}, 12).rows
        assert RW_EXPLICIT(12, m=m, r=r) == rows
        assert RW_PRODUCT(12, m=m, r=r) == rows
        assert RW_HORIZONTAL(12, m=m, r=r) == rows
        assert _from_column_1(RW_VERTICAL(12, m=m, r=r)) == _from_column_1(rows)


def test_r_whitney_lah_route_examples():
    vertical = RW_VERTICAL(3, m=2, r=2)
    assert vertical[2][1] == 12
    # Column 0 is outside the expansion.
    assert vertical[3][0] == 0 != families.triangle("r-whitney-lah", {"m": 2, "r": 2}, 3).value(3, 0)
    assert RW_HORIZONTAL(1, m=2, r=2)[1][0] == 4
    assert RW_EXPLICIT(2, m=2, r=2)[2][1] == 12


def test_r_whitney_lah_explicit_degenerate_r_zero():
    assert RW_EXPLICIT(8, m=2, r=0) == families.triangle("r-whitney-lah", {"m": 2, "r": 0}, 8).rows


def test_r_whitney_lah_m1_reduces_to_r_lah():
    for r in (1, 2, 3):
        rows = families.triangle("r-lah", {"r": r}, 10).rows
        assert families.triangle("r-whitney-lah", {"m": 1, "r": r}, 10).rows == rows
        assert RW_HORIZONTAL(10, m=1, r=r) == rows
        assert _from_column_1(RW_VERTICAL(10, m=1, r=r)) == _from_column_1(rows)


def test_log_concavity():
    assert verify_log_concavity(R_WHITNEY_LAH_22[2])
    for m, r in ((1, 1), (2, 2), (3, 1)):
        for row in families.triangle("r-whitney-lah", {"m": m, "r": r}, 20).rows[2:]:
            assert verify_log_concavity(row)
    # 1 * 16 is not below 4^2, and 4 * 4 is above 1^2.
    assert not verify_log_concavity((1, 4, 16, 4)) and not verify_log_concavity((1, 4, 1, 4))
    with pytest.raises(ValueError):
        verify_log_concavity(R_WHITNEY_LAH_22[1])


def test_r_dowling_values_and_routes():
    assert families.row_sum("r-whitney2", {"m": 2, "r": 2}, 0) == 1
    assert families.row_sum("r-whitney2", {"m": 2, "r": 2}, 3) == 49
    assert families.row_sum("r-whitney2", {"m": 2, "r": 2}, 4) == 257
    assert explicit_sum("r-dowling", {"m": 2, "r": 2}, 4) == 257
    for m, r in PARAM_GRID:
        for n in range(13):
            assert explicit_sum("r-dowling", {"m": m, "r": r}, n) == families.row_sum("r-whitney2", {"m": m, "r": r}, n)


def test_r_whitney_second_r1_matches_whitney():
    for m in (1, 2, 3):
        plain = families.triangle("whitney2", {"alpha": m}, 10)
        shifted = families.triangle("r-whitney2", {"m": m, "r": 1}, 10)
        assert plain.rows == shifted.rows


def test_r_whitney_second_unit_step_no_shift_is_stirling2():
    stirling2 = families.triangle("stirling2", {}, 10)
    assert families.triangle("r-whitney2", {"m": 1, "r": 0}, 10).rows == stirling2.rows


def test_parameter_validation():
    with pytest.raises(UsageError):
        families.triangle("r-whitney2", {"m": 0, "r": 2}, 3)
    with pytest.raises(UsageError):
        families.triangle("r-lah", {"r": -1}, 3)
    # A non-integer r or m is refused the same way, as for alpha.
    with pytest.raises(UsageError):
        families.triangle("r-lah", {"r": 2.5}, 3)
    with pytest.raises(UsageError):
        families.triangle("r-whitney2", {"m": Fraction(3, 2), "r": 2}, 3)
