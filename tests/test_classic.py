import math
import random
from fractions import Fraction

import pytest

from dowling import families
from dowling.families import explicit_sum
from dowling.identities import lah_route, partial_bell_rows
from dowling.oracle import count_partitions
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
            assert tri.value(n, k) == count_partitions(n, k)


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
    assert tuple(lah_route("explicit", "lah", 30)) == families.triangle("lah", {}, 30).rows


def test_lah_explicit_values():
    # (-1)^n C(n-1,k-1) n!/k!
    rows = tuple(lah_route("explicit", "lah", 4))
    assert rows[4][2] == 36
    assert rows[3] == (0, -6, -6, -1)
    assert rows[0] == (1,)


def test_lah_signless_counts_ordered_partitions():
    tri = families.triangle("lah", {}, 9)
    for n in range(10):
        for k in range(n + 1):
            assert (-1) ** n * tri.value(n, k) == count_partitions(n, k, ordered=True)


def test_lah_vertical_and_horizontal_agree_to_20():
    rows = families.triangle("lah", {}, 20).rows
    assert tuple(lah_route("vertical", "lah", 20)) == rows
    assert tuple(lah_route("horizontal", "lah", 20)) == rows


def test_lah_vertical_small_cases():
    vertical, horizontal = (tuple(lah_route(kind, "lah", 3)) for kind in ("vertical", "horizontal"))
    assert vertical[2][1] == 2
    assert vertical[3][3] == -1  # single-term sum on the diagonal
    assert horizontal[3][2] == -6
    assert horizontal[2][2] == 1


def test_lah_from_stirlings():
    rows = tuple(lah_route("product", "lah", 15))
    assert rows[3][2] == -6
    assert all(rows[n][n] == (-1) ** n for n in range(16))
    assert rows == families.triangle("lah", {}, 15).rows


def test_bell_numbers():
    for n, value in enumerate(BELL):
        assert families.row_sum("stirling2", {}, n) == value


def test_qi_bell_equals_bell_to_25():
    assert explicit_sum("bell", {}, 0) == 1
    assert explicit_sum("bell", {}, 4) == 15
    for n in range(26):
        assert explicit_sum("bell", {}, n) == families.row_sum("stirling2", {}, n)


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


def enumerated_partial_bell(n, k, xs):
    """Reference: n! times the sum over multiplicity vectors (l_i) with
    sum l_i = k and sum i*l_i = n of prod (x_i/i!)^l_i / l_i!, the vectors
    enumerated with pruning (p(n) of them at most)."""
    width = n - k + 1
    factors = [Fraction(xs[i - 1], math.factorial(i)) for i in range(1, width + 1)]
    total = Fraction(0)

    def assign(i, blocks_left, weight_left, acc):
        nonlocal total
        if i == width:
            if blocks_left == 0 and weight_left == 0:
                total += acc
            return
        step = i + 1
        for l in range(min(blocks_left, weight_left // step) + 1):
            assign(i + 1, blocks_left - l, weight_left - l * step, acc * factors[i] ** l / math.factorial(l))

    assign(0, k, n, Fraction(1))
    total *= math.factorial(n)
    assert total.denominator == 1
    return total.numerator


def bell_rows(nmax, xs):
    """`partial_bell_rows` at the list x_1, x_2, ... = xs."""
    return partial_bell_rows(nmax, lambda i: xs[i - 1])


@pytest.mark.parametrize("seed", range(3))
def test_partial_bell_recurrence_against_enumeration(seed):
    rng = random.Random(seed)
    xs = [rng.randint(-9, 9) for _ in range(13)]
    rows = bell_rows(12, xs)
    assert [len(row) for row in rows] == list(range(1, 14))
    for n in range(13):
        for k in range(n + 1):
            want = enumerated_partial_bell(n, k, xs) if n else 1
            # B(n,k) reads x_1..x_(n-k+1) alone: zeros after them change nothing.
            truncated = bell_rows(n, xs[: n - k + 1] + [0] * n)[n][k]
            assert rows[n][k] == truncated == want, (n, k)


def test_partial_bell_all_ones_is_stirling2():
    assert bell_rows(8, [1] * 8) == families.triangle("stirling2", {}, 8).rows


def test_partial_bell_diagonal_is_power():
    for x1 in (1, 2, -3):
        rows = bell_rows(5, [x1, 0, 0, 0, 0])
        assert [rows[n][n] for n in range(1, 6)] == [x1**n for n in range(1, 6)]


def test_partial_bell_against_enumeration_oracle():
    xs = [((-1) ** i) * (i + 2) for i in range(7)]
    rows = bell_rows(6, xs)
    assert bell_rows(4, [1, 2, 3, 0])[4][2] == brute_partial_bell(4, 2, [1, 2, 3]) == 24
    for n in range(7):
        for k in range(n + 1):
            assert rows[n][k] == brute_partial_bell(n, k, xs)
