"""The paper's alternating Lah/Stirling sums for the Bell-type numbers, each
one streamed pass of `triangles.alternating_sums`, against the whole-table
expression the routes used before: one triangle of each kind, the signed
Lah row sums applied to the rows of the second kind."""

from fractions import Fraction

import pytest

from dowling import basis, families, identities, rnumbers, triangles, unified, whitney
from dowling.families import SUMS, explicit_sequence, explicit_sum
from dowling.triangles import alternating_sums

from helpers import named, solved

NMAX = 30
ALPHAS = (1, 2, 3, -2)
RS = (0, 1, 2, 3)
MRS = ((1, 0), (1, 1), (2, 2), (3, 1))
HS_POINTS = ((0, 1, 2), (1, 0, 0), (Fraction(1, 2), Fraction(1, 3), 2), (-2, 3, 1))


def whole_table(second, lah, sign):
    """(-1)^n sum_k W(n,k) sign^k [sum_j L(k,j)] for n = 0..nmax, from the
    rows of two whole triangles."""
    sums = [-sum(row) if sign < 0 and k % 2 else sum(row) for k, row in enumerate(lah)]
    return [(-1) ** n * sum(v * sums[k] for k, v in enumerate(row)) for n, row in enumerate(second)]


def test_qi_bell_equals_the_whole_table_formula():
    lah = families.triangle("r-lah", {"r": 0}, NMAX).rows
    want = whole_table(families.triangle("stirling2", {}, NMAX).rows, lah, -1)
    assert explicit_sequence("bell", {}, NMAX) == want
    assert [explicit_sum("bell", {}, n) for n in range(NMAX + 1)] == want


@pytest.mark.parametrize("alpha", ALPHAS)
def test_dowling_explicit_equals_the_whole_table_formula(alpha):
    p = {"alpha": alpha}
    want = whole_table(families.triangle("whitney2", p, NMAX).rows, families.triangle("whitney-lah", p, NMAX).rows, 1)
    assert explicit_sequence("dowling", p, NMAX) == want
    assert [explicit_sum("dowling", p, n) for n in range(NMAX + 1)] == want
    assert [whitney.dowling_explicit(n, alpha) for n in range(NMAX + 1)] == want


@pytest.mark.parametrize("r", RS)
def test_r_bell_explicit_equals_the_whole_table_formula(r):
    p = {"r": r}
    want = whole_table(families.triangle("r-stirling2", p, NMAX).rows, families.triangle("r-lah", p, NMAX).rows, -1)
    assert explicit_sequence("r-bell", p, NMAX) == want
    assert [explicit_sum("r-bell", p, n) for n in range(NMAX + 1)] == want


@pytest.mark.parametrize("m, r", MRS)
def test_r_dowling_explicit_equals_the_whole_table_formula(m, r):
    # The second kind by its connection solve, as the route took it before.
    p = {"m": m, "r": r}
    lah = families.triangle("r-whitney-lah", p, NMAX).rows
    want = whole_table(solved("r-whitney2", p, NMAX), lah, -1)
    assert explicit_sequence("r-dowling", p, NMAX) == want
    assert [explicit_sum("r-dowling", p, n) for n in range(NMAX + 1)] == want
    assert [rnumbers.r_dowling_explicit(n, m, r) for n in range(NMAX + 1)] == want


@pytest.mark.parametrize("params", HS_POINTS)
def test_hs_bell_explicit_equals_the_whole_table_formula(params):
    # The solved pair is the reference; the formula reads the engine rows.
    s1, s2 = (solved(kind, named(params), 10) for kind in ("hs1", "hs2"))
    want = whole_table(s1, triangles.product(s2, s1, signed=True), 1)
    assert explicit_sequence("hs-bell", named(params), 10) == want
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


def test_the_integer_routes_build_no_whole_triangle_and_solve_nothing(monkeypatch, no_whole_triangle):
    """The explicit formula of every sum of `SUMS`, the rational `hs-bell`
    and `cakic-bell` too, streams engine rows and solves no connection."""

    def refuse(*args, **kwargs):
        raise AssertionError("solved a connection")

    monkeypatch.setattr(basis, "scaled_solve", refuse)
    n = 40
    points = {
        "bell": {},
        "dowling": {"alpha": 3},
        "r-bell": {"r": 2},
        "r-dowling": {"m": 2, "r": 2},
        "hs-bell": named((Fraction(1, 2), Fraction(1, 3), 2)),
        "cakic-bell": {"alpha": 2},
    }
    assert set(points) == set(SUMS)
    for name, params in points.items():
        assert explicit_sum(name, params, n) == families.row_sum(SUMS[name].family, params, n)
        assert explicit_sequence(name, params, n)[n] == explicit_sum(name, params, n)
    hs_bell = explicit_sum("hs-bell", points["hs-bell"], n)
    assert unified.hs_bell_explicit(n, (Fraction(1, 2), Fraction(1, 3), 2)) == hs_bell
    assert whitney.dowling_explicit(n, 3) == explicit_sum("dowling", {"alpha": 3}, n)
    assert rnumbers.r_dowling_explicit(n, 2, 2) == explicit_sum("r-dowling", {"m": 2, "r": 2}, n)


# Two or more parameter points of each sum of `SUMS`; `bell` has one.
EXPLICIT_POINTS = {
    "bell": ({},),
    "dowling": tuple({"alpha": alpha} for alpha in ALPHAS),
    "r-bell": tuple({"r": r} for r in RS),
    "r-dowling": tuple({"m": m, "r": r} for m, r in (*MRS, (3, 2))),
    "hs-bell": (*identities._HS_GRID, named((-3, 2, Fraction(1, 5)))),
    "cakic-bell": tuple({"alpha": alpha} for alpha in (2, -3, Fraction(1, 2))),
}


@pytest.mark.parametrize("name", sorted(SUMS))
def test_each_explicit_formula_is_its_sum(monkeypatch, no_whole_triangle, name):
    """Each sum's explicit formula reads the rows of the sum's own family W
    and of its Lah-type family L, and equals the sum's production row sums,
    with no whole triangle built."""
    assert set(EXPLICIT_POINTS) == set(SUMS)
    read, real = [], families.rows

    def rows(family, params, nmax, *args):
        read.append(family)
        return real(family, params, nmax, *args)

    monkeypatch.setattr(families, "rows", rows)
    second, lah = SUMS[name].family, SUMS[name].lah
    assert lah in identities.LAH_TYPES or lah == "hs-lah"
    for params in EXPLICIT_POINTS[name]:
        read.clear()
        values = explicit_sequence(name, params, NMAX)
        assert read == [second, lah], params
        assert values == [families.row_sum(second, params, n) for n in range(NMAX + 1)], params
        assert [explicit_sum(name, params, n) for n in range(NMAX + 1)] == values, params


def test_r_dowling_explicit_at_200():
    point = {"m": 3, "r": 2}
    assert explicit_sum("r-dowling", point, 200) == families.row_sum("r-whitney2", point, 200)
