"""The paper's alternating Lah/Stirling sums for the Bell-type numbers, each
one streamed pass of `triangles.alternating_sums`, against the whole-table
expression the routes used before: one triangle of each kind, the signed
Lah row sums applied to the second kind by `triangles.transform`."""

from fractions import Fraction

import pytest

from dowling import basis, classic, families, rnumbers, triangles, unified, whitney
from dowling.triangles import alternating_sums, transform

NMAX = 30
ALPHAS = (1, 2, 3, -2)
RS = (0, 1, 2, 3)
MRS = ((1, 0), (1, 1), (2, 2), (3, 1))
HS_POINTS = ((0, 1, 2), (1, 0, 0), (Fraction(1, 2), Fraction(1, 3), 2), (-2, 3, 1))


def whole_table(second, lah, sign):
    """(-1)^n sum_k W(n,k) sign^k [sum_j L(k,j)] for n = 0..nmax, from two
    whole triangles."""
    sums = [-sum(row) if sign < 0 and k % 2 else sum(row) for k, row in enumerate(lah.rows)]
    return [-v if n % 2 else v for n, v in enumerate(transform(second, sums))]


def test_qi_bell_equals_the_whole_table_formula():
    lah = families.triangle("r-lah", {"r": 0}, NMAX)
    want = whole_table(families.triangle("stirling2", {}, NMAX), lah, -1)
    assert [classic.qi_bell(n) for n in range(NMAX + 1)] == want


@pytest.mark.parametrize("alpha", ALPHAS)
def test_dowling_explicit_equals_the_whole_table_formula(alpha):
    p = {"alpha": alpha}
    want = whole_table(families.triangle("whitney2", p, NMAX), families.triangle("whitney-lah", p, NMAX), 1)
    assert whitney.dowling_explicit_sequence(NMAX, alpha) == want
    assert [whitney.dowling_explicit(n, alpha) for n in range(NMAX + 1)] == want


@pytest.mark.parametrize("r", RS)
def test_r_bell_explicit_equals_the_whole_table_formula(r):
    p = {"r": r}
    want = whole_table(families.triangle("r-stirling2", p, NMAX), families.triangle("r-lah", p, NMAX), -1)
    assert rnumbers.r_bell_explicit_sequence(NMAX, r) == want
    assert [rnumbers.r_bell_explicit(n, r) for n in range(NMAX + 1)] == want


@pytest.mark.parametrize("m, r", MRS)
def test_r_dowling_explicit_equals_the_whole_table_formula(m, r):
    # The second kind by its connection solve, as the route took it before.
    lah = families.triangle("r-whitney-lah", {"m": m, "r": r}, NMAX)
    want = whole_table(rnumbers.r_whitney_second_by_solve(NMAX, m, r), lah, -1)
    assert rnumbers.r_dowling_explicit_sequence(NMAX, m, r) == want
    assert [rnumbers.r_dowling_explicit(n, m, r) for n in range(NMAX + 1)] == want


@pytest.mark.parametrize("params", HS_POINTS)
def test_hs_bell_explicit_equals_the_whole_table_formula(params):
    pair = unified.hs_pair_by_solve(10, params)
    want = whole_table(pair.s1, unified.signed_product(pair), 1)
    assert unified.hs_bell_explicit_sequence(10, params) == want
    assert [unified.hs_bell_explicit(n, params) for n in range(11)] == want


def test_alternating_sums_reads_the_lah_rows_only_as_far_as_needed():
    lah = families.rows("r-lah", {"r": 0}, 10)
    row4 = families.triangle("stirling2", {}, 4).rows[4]
    assert list(alternating_sums([row4], lah, -1)) == [15]
    assert len(next(lah)) == 6  # rows 0..4 were read, row 5 is next
    # Over streamed rows, row n of W needs the Lah rows 0..n alone.
    lah = families.rows("r-lah", {"r": 0}, 10)
    sums = alternating_sums(families.rows("stirling2", {}, 10), lah, -1)
    assert [next(sums) for _ in range(3)] == [1, 1, 2]
    assert len(next(lah)) == 4


def test_the_integer_routes_build_no_whole_triangle_and_solve_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a whole triangle or solved a connection")

    monkeypatch.setattr(families, "triangle", refuse)
    monkeypatch.setattr(triangles, "recurrence_triangle", refuse)
    monkeypatch.setattr(basis, "connection_matrix", refuse)
    n = 40
    assert classic.qi_bell(n) == families.row_sum("stirling2", {}, n)
    assert whitney.dowling_explicit(n, 3) == families.row_sum("whitney2", {"alpha": 3}, n)
    assert rnumbers.r_bell_explicit(n, 2) == families.row_sum("r-stirling2", {"r": 2}, n)
    assert rnumbers.r_dowling_explicit(n, 2, 2) == families.row_sum("r-whitney2", {"m": 2, "r": 2}, n)
    assert whitney.dowling_explicit_sequence(n, 3)[n] == whitney.dowling_explicit(n, 3)
    assert rnumbers.r_bell_explicit_sequence(n, 2)[n] == rnumbers.r_bell_explicit(n, 2)
    assert rnumbers.r_dowling_explicit_sequence(n, 2, 2)[n] == rnumbers.r_dowling_explicit(n, 2, 2)


def test_r_dowling_explicit_at_200():
    assert rnumbers.r_dowling_explicit(200, 3, 2) == families.row_sum("r-whitney2", {"m": 3, "r": 2}, 200)
