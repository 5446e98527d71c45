import math
import random
from fractions import Fraction

import pytest

from dowling import families
from dowling.classic import (
    lah_egf_check,
    lah_explicit,
    lah_from_stirlings_rows,
    lah_horizontal_rows,
    lah_signless,
    lah_vertical_rows,
    partial_bell,
    qi_bell,
)
from dowling.oracle import PartitionSpec, count_partitions
from dowling.triangles import transform

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def test_stirling2_values():
    tri = families.triangle("stirling2", {}, 6)
    assert tri.value(4, 2) == 7
    assert tri.value(6, 3) == 90
    assert all(tri.value(n, n) == 1 for n in range(7))
    assert tri.row(0) == (1,)


def test_stirling2_matches_oracle():
    tri = families.triangle("stirling2", {}, 10)
    for n in range(11):
        for k in range(n + 1):
            assert tri.value(n, k) == count_partitions(PartitionSpec(n, k))


def test_stirling1_values():
    tri = families.triangle("stirling1", {}, 5)
    assert tri.value(3, 1) == 2  # x(x-1)(x-2) = x^3 - 3x^2 + 2x
    assert tri.value(3, 2) == -3
    assert all(tri.value(n, n) == 1 for n in range(6))


def test_stirling1_recurrence_cross_check():
    # Independent route: s(n,k) = s(n-1,k-1) - (n-1) s(n-1,k).
    tri = families.triangle("stirling1", {}, 10)
    for n in range(1, 11):
        for k in range(n + 1):
            expected = tri.value(n - 1, k - 1) - (n - 1) * tri.value(n - 1, k)
            assert tri.value(n, k) == expected


def test_stirling_orthogonality():
    s1 = families.triangle("stirling1", {}, 8)
    s2 = families.triangle("stirling2", {}, 8)
    for n in range(9):
        for j in range(n + 1):
            total = sum(s1.value(n, k) * s2.value(k, j) for k in range(j, n + 1))
            assert total == (1 if n == j else 0)


def test_lah_triangle_values():
    tri = families.triangle("lah", {}, 5)
    assert tri.value(1, 1) == -1
    assert tri.value(3, 2) == -6
    assert all(tri.value(n, 0) == 0 for n in range(1, 6))
    assert tri.value(0, 0) == 1


def test_lah_explicit_matches_recurrence_to_30():
    tri = families.triangle("lah", {}, 30)
    for n in range(31):
        for k in range(n + 1):
            assert tri.value(n, k) == lah_explicit(n, k)


def test_lah_explicit_values():
    assert lah_explicit(4, 2) == 36
    assert lah_explicit(0, 0) == 1
    assert lah_explicit(3, 0) == 0
    assert lah_explicit(2, 5) == 0


def test_lah_signless_counts_ordered_partitions():
    assert lah_signless(3, 1) == 6
    assert lah_signless(4, 2) == 36
    for n in range(10):
        for k in range(n + 1):
            spec = PartitionSpec(n, k, ordered_blocks=True)
            assert lah_signless(n, k) == count_partitions(spec)


def test_lah_vertical_and_horizontal_agree_to_20():
    rows = families.triangle("lah", {}, 20).rows
    assert lah_vertical_rows(20) == rows
    assert lah_horizontal_rows(20) == rows


def test_lah_vertical_small_cases():
    vertical, horizontal = lah_vertical_rows(3), lah_horizontal_rows(3)
    assert vertical[2][1] == 2
    assert vertical[3][3] == -1  # single-term sum on the diagonal
    assert horizontal[3][2] == -6
    assert horizontal[2][2] == 1


def test_lah_egf():
    assert lah_egf_check(1, 4)
    assert lah_egf_check(0, 3)
    assert lah_egf_check(2, 6)
    with pytest.raises(ValueError):
        lah_egf_check(4, 2)


def test_lah_from_stirlings():
    rows = lah_from_stirlings_rows(15)
    assert rows[3][2] == -6
    assert all(rows[n][n] == (-1) ** n for n in range(16))
    assert rows == families.triangle("lah", {}, 15).rows


def test_bell_numbers():
    for n, value in enumerate(BELL):
        assert families.row_sum("stirling2", {}, n) == value


def test_qi_bell_equals_bell_to_25():
    assert qi_bell(0) == 1
    assert qi_bell(4) == 15
    for n in range(26):
        assert qi_bell(n) == families.row_sum("stirling2", {}, n)


def test_stirling_inverse_relation_roundtrip():
    s1 = families.triangle("stirling1", {}, 9)
    s2 = families.triangle("stirling2", {}, 9)
    for seed in range(5):
        rng = random.Random(seed)
        g = [rng.randint(-100, 100) for _ in range(10)]
        assert transform(s1, transform(s2, g)) == g


# --- partial Bell polynomials ----------------------------------------------


def brute_partial_bell(n, k, xs):
    """Oracle: loop over all multiplicity vectors without pruning."""
    width = n - k + 1
    total = Fraction(0)
    stack = [(0, [], 0, 0)]
    while stack:
        i, ls, sk, sn = stack.pop()
        if i == width:
            if sk == k and sn == n:
                term = Fraction(math.factorial(n))
                for j, l in enumerate(ls, start=1):
                    term *= Fraction(xs[j - 1], math.factorial(j)) ** l
                    term /= math.factorial(l)
                total += term
            continue
        for l in range(n + 1):
            stack.append((i + 1, ls + [l], sk + l, sn + l * (i + 1)))
    assert total.denominator == 1
    return total.numerator


def test_partial_bell_all_ones_is_stirling2():
    s2 = families.triangle("stirling2", {}, 8)
    for n in range(9):
        for k in range(n + 1):
            xs = [1] * (n - k + 1)
            assert partial_bell(n, k, xs) == s2.value(n, k)


def test_partial_bell_diagonal_is_power():
    for x1 in (1, 2, -3):
        for n in range(1, 6):
            assert partial_bell(n, n, [x1]) == x1 ** n


def test_partial_bell_against_enumeration_oracle():
    assert partial_bell(4, 2, [1, 2, 3]) == brute_partial_bell(4, 2, [1, 2, 3]) == 24
    for n in range(7):
        for k in range(n + 1):
            xs = [((-1) ** i) * (i + 2) for i in range(n - k + 1)]
            assert partial_bell(n, k, xs) == brute_partial_bell(n, k, xs)


def test_partial_bell_argument_length_guard():
    with pytest.raises(ValueError):
        partial_bell(5, 2, [1, 1, 1])
    assert partial_bell(0, 0, []) == 1
    assert partial_bell(3, 5, []) == 0
