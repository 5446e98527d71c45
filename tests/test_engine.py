"""The recurrence engine and the family table against the routes that stay
as verification: polynomial expansion, connection solves, and full-triangle
row sums."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dowling import classic, families, rnumbers, unified, whitney
from dowling.basis import connection_matrix, factorial_basis
from dowling.exactmath import IntegralityError
from dowling.triangles import Triangle, recurrence_row, recurrence_rows, recurrence_triangle

F = Fraction

# Integer, rational and negative-step points (alpha, beta, gamma) of the unified pair.
HS_POINTS = (
    (0, 1, 2),
    (1, 0, 0),
    (F(1, 2), F(1, 3), 2),
    (-2, 3, 1),
    (F(-1, 2), F(2, 3), F(-5, 7)),
    (2, -3, F(-1, 2)),
)
RW_POINTS = ((1, 0), (1, 1), (2, 2), (3, 2), (5, 0))


def named(params) -> dict:
    """A Hsu-Shiue triple as the family table's parameters."""
    return dict(zip(("alpha", "beta", "gamma"), params))


def test_engine_small_tables():
    assert recurrence_triangle("s2", {}, 4, 1, 0, 1, 0).rows[4] == (0, 1, 7, 6, 1)
    # signed Lah: the diagonal carries (-1)^n
    assert recurrence_triangle("lah", {}, 3, -1, -1, -1, 1).rows[3] == (0, -6, -6, -1)
    assert recurrence_triangle("one", {}, 0, 1, 5, 5, 5).rows == ((1,),)


def test_engine_rejects_bad_input():
    with pytest.raises(ValueError):
        recurrence_triangle("x", {}, -1, 1, 0, 1, 0)
    with pytest.raises(ValueError):
        recurrence_triangle("x", {}, 3, 2, 0, 1, 0)
    with pytest.raises(ValueError):
        recurrence_row(-1, 1, 0, 1, 0)


def test_rolling_row_matches_the_whole_triangle():
    for weights in ((1, 0, 1, 0), (-1, -3, -3, 1), (1, 2, -1, 7), (1, 0, 0, 0)):
        rows = tuple(recurrence_rows(40, *weights))
        assert recurrence_triangle("t", {}, 40, *weights).rows == rows
        assert recurrence_row(40, *weights) == rows[40]


def test_stirling1_engine_vs_expansion():
    assert families.triangle("stirling1", {}, 30).rows == classic.stirling1_by_expansion(30).rows


def test_whitney1_engine_vs_expansion():
    for alpha in (1, 2, 3, -1, -2):
        engine = families.triangle("whitney1", {"alpha": alpha}, 30)
        assert engine.rows == whitney.whitney_first_by_expansion(30, alpha).rows


def test_r_whitney_engine_vs_solve():
    for m, r in RW_POINTS:
        first = families.triangle("r-whitney1", {"m": m, "r": r}, 30)
        second = families.triangle("r-whitney2", {"m": m, "r": r}, 30)
        assert first.rows == rnumbers.r_whitney_first_by_solve(30, m, r).rows
        assert second.rows == rnumbers.r_whitney_second_by_solve(30, m, r).rows


def test_hs_pair_engine_vs_solve():
    for params in HS_POINTS:
        engine = unified.hs_pair(20, params)
        solved = unified.hs_pair_by_solve(20, params)
        assert engine.s1.rows == solved.s1.rows
        assert engine.s2.rows == solved.s2.rows


def test_hs_lah_engine_vs_solve():
    for params in HS_POINTS:
        engine = families.triangle("hs-lah", named(params), 15)
        assert engine.rows == unified.hs_lah_matrix_by_solve(15, params).rows


def test_hs_families_from_the_table_match_the_pair():
    for params in HS_POINTS:
        p = named(params)
        pair = unified.hs_pair_by_solve(12, params)
        assert families.triangle("hs1", p, 12).rows == pair.s1.rows
        assert families.triangle("hs2", p, 12).rows == pair.s2.rows


def test_cakic_engine_vs_defining_solve():
    for alpha in (2, -3, F(1, 2)):
        defining = connection_matrix(factorial_basis(1, 0, alpha, 20), factorial_basis(1, 0, 1, 20))
        assert families.triangle("cakic", {"alpha": alpha}, 20).rows == defining.rows


def test_rolling_sums_vs_full_solved_rows():
    for params in HS_POINTS:
        s1 = unified.hs_pair_by_solve(20, params).s1
        for n in (0, 1, 7, 20):
            assert families.row_sum("hs1", named(params), n) == sum(s1.rows[n])
    for m, r in RW_POINTS:
        second = rnumbers.r_whitney_second_by_solve(30, m, r)
        dowling = [families.row_sum("r-whitney2", {"m": m, "r": r}, n) for n in range(31)]
        assert dowling == [sum(row) for row in second.rows]
    s2 = families.triangle("stirling2", {}, 30)
    assert [families.row_sum("stirling2", {}, n) for n in range(31)] == [sum(row) for row in s2.rows]
    assert [classic.qi_bell(n) for n in range(31)] == [sum(row) for row in s2.rows]


def test_hs_pair_asserts_mutual_inverse(monkeypatch):
    # A wrong s2 weight must trip the assertion on the scaled integers.
    broken = dict(families.FAMILIES)
    broken["hs2"] = families.Family(
        ("alpha", "beta", "gamma"), lambda p: (1, -p["beta"], p["alpha"], p["beta"] + p["gamma"]), True
    )
    monkeypatch.setattr(families, "FAMILIES", broken)
    with pytest.raises(AssertionError):
        unified.hs_pair(4, (F(1, 2), F(1, 3), 2))


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 8))
def test_property_r_whitney_engine_vs_solve(m, r, n):
    p = {"m": m, "r": r}
    assert families.triangle("r-whitney1", p, n).rows == rnumbers.r_whitney_first_by_solve(n, m, r).rows
    assert families.triangle("r-whitney2", p, n).rows == rnumbers.r_whitney_second_by_solve(n, m, r).rows
    assert families.row_sum("r-whitney2", p, n) == rnumbers.r_dowling_explicit(n, m, r)


@settings(max_examples=40, deadline=None)
@given(st.integers(-6, 6).filter(bool), st.integers(0, 8))
def test_property_whitney_engine_vs_expansion(alpha, n):
    engine = families.triangle("whitney1", {"alpha": alpha}, n)
    assert engine.rows == whitney.whitney_first_by_expansion(n, alpha).rows
    assert families.row_sum("whitney2", {"alpha": alpha}, n) == whitney.dowling_explicit(n, alpha)


@settings(max_examples=40, deadline=None)
@given(small_rationals, small_rationals, small_rationals, st.integers(0, 6))
def test_property_hs_engine_vs_solve(alpha, beta, gamma, n):
    params = (alpha, beta, gamma)
    engine = unified.hs_pair(n, params)
    solved = unified.hs_pair_by_solve(n, params)
    assert engine.s1.rows == solved.s1.rows
    assert engine.s2.rows == solved.s2.rows
    lah = families.triangle("hs-lah", named(params), n)
    assert lah.rows == unified.hs_lah_matrix_by_solve(n, params).rows
    assert families.row_sum("hs1", named(params), n) == unified.hs_bell_explicit(n, params)


def test_triangle_keeps_exact_entries_and_refuses_others():
    half = Triangle(((F(1, 2),),))
    assert half.rows == ((F(1, 2),),) and type(half.value(0, 0)) is F
    with pytest.raises(IntegralityError):
        half.to_triangle("x")
    with pytest.raises(TypeError):
        Triangle(((1,), (2.7, 1)))
    with pytest.raises(TypeError):
        Triangle((("1",),))
    with pytest.raises(ValueError):
        Triangle(((1,), (2,)))
    assert Triangle(((1,), (F(4, 2), 1))).rows == ((1,), (2, 1))
