"""The recurrence engine and the family table against the routes that stay
as verification: the integer connection solve of `basis.scaled_solve`, and
full-triangle row sums."""

import math
from collections import deque
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dowling import basis, families, identities, rnumbers, triangles, unified, whitney
from dowling.identities import _MR_GRID
from dowling.triangles import Triangle, product, recurrence_rows, recurrence_triangle

from helpers import named, solved

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


def engine_scaled(family, params, nmax) -> tuple:
    """(D, the engine's scaled rows U(n,k) = D^(n-k) T(n,k)) as a tuple."""
    scale, rows = families.scaled_rows(family, params, nmax)
    return scale, tuple(rows)


def solved_pair(nmax, params) -> tuple:
    """The rows of s1 and s2 at a Hsu-Shiue triple by the integer connection solve."""
    return tuple(solved(kind, named(params), nmax) for kind in ("hs1", "hs2"))


def test_engine_small_tables():
    assert tuple(recurrence_rows(4, 1, 0, 1, 0))[4] == (0, 1, 7, 6, 1)
    # signed Lah: the diagonal carries (-1)^n
    assert tuple(recurrence_rows(3, -1, -1, -1, 1))[3] == (0, -6, -6, -1)
    assert tuple(recurrence_rows(0, 1, 5, 5, 5)) == ((1,),)


def test_engine_rejects_bad_input():
    for nmax, d in ((-1, 1), (3, 2)):
        with pytest.raises(ValueError):
            deque(recurrence_rows(nmax, d, 0, 1, 0), maxlen=1)
    with pytest.raises(ValueError):
        families.row_sum("stirling2", {}, -1)


# Every solve, expansion and explicit-formula route as a function of its size.
_ANY = {"alpha": 3, "beta": 1, "gamma": 2, "m": 2, "r": 2}
_SIZED_ROUTES = {
    **{f"solve-{family}": partial(basis.scaled_solve, family, _ANY) for family in families.TRIPLES},
    "scaled_solve": partial(basis.scaled_solve, "hs1", _ANY),
    "egf_rows": partial(basis.egf_rows, "hs1", _ANY),
    "hs_bell_explicit": lambda n: unified.hs_bell_explicit(n, (0, 1, 2)),
    "dowling_explicit": lambda n: whitney.dowling_explicit(n, 3),
    "r_dowling_explicit": lambda n: rnumbers.r_dowling_explicit(n, 2, 2),
    **{f"explicit_sum-{name}": partial(families.explicit_sum, name, _ANY) for name in families.SUMS},
    **{f"explicit_sequence-{name}": partial(families.explicit_sequence, name, _ANY) for name in families.SUMS},
}


@pytest.mark.parametrize("route", sorted(_SIZED_ROUTES))
def test_routes_reject_a_negative_size(route):
    with pytest.raises(ValueError, match="nmax must be nonnegative"):
        _SIZED_ROUTES[route](-1)
    assert _SIZED_ROUTES[route](0) is not None


def test_rolling_row_matches_the_whole_triangle():
    for weights in ((1, 0, 1, 0), (-1, -3, -3, 1), (1, 2, -1, 7), (1, 0, 0, 0)):
        rows = tuple(recurrence_rows(40, *weights))
        assert recurrence_triangle("t", {}, 40, *weights).rows == rows


def whole_product(first, second, signed=False) -> tuple:
    """The rows of `triangles.product` as it read before it streamed: both
    arguments whole tables of rows."""
    out = []
    for n, row in enumerate(first):
        if signed:
            row = [-v if j % 2 else v for j, v in enumerate(row)]
        out.append(tuple(sum(row[j] * second[j][k] for j in range(k, n + 1)) for k in range(n + 1)))
    return tuple(out)


def rows_through(rows, n):
    """Rows 0..n of `rows`, as an iterator that raises when asked for more."""
    yield from rows[: n + 1]
    raise AssertionError(f"read past row {n}")


@pytest.mark.parametrize("signed", (False, True))
def test_product_streams_the_whole_table_product(signed):
    nmax = 12
    s1, s2 = (families.triangle(name, {}, nmax).rows for name in ("stirling1", "stirling2"))
    hs1, hs2 = (families.triangle(name, named((F(1, 2), F(1, 3), 2)), nmax).rows for name in ("hs1", "hs2"))
    for first, second in ((s2, s1), (hs2, hs1), (s1, hs1), (hs2, s2)):
        want = whole_product(first, second, signed)
        for n in range(nmax + 1):
            # Rows 0..n of the product read rows 0..n of `second` alone.
            assert tuple(product(first[: n + 1], rows_through(second, n), signed)) == want[: n + 1]


def test_stirling1_engine_vs_expansion():
    assert families.triangle("stirling1", {}, 30).rows == solved("stirling1", {}, 30)


def test_whitney1_engine_vs_expansion():
    for alpha in (1, 2, 3, -1, -2):
        engine = families.triangle("whitney1", {"alpha": alpha}, 30)
        assert engine.rows == solved("whitney1", {"alpha": alpha}, 30)


def test_r_whitney_engine_vs_solve():
    for m, r in RW_POINTS:
        p = {"m": m, "r": r}
        for family in ("r-whitney1", "r-whitney2"):
            assert families.triangle(family, p, 30).rows == solved(family, p, 30)


def test_hs_pair_engine_vs_solve():
    for params in HS_POINTS:
        s1, s2 = solved_pair(20, params)
        assert families.triangle("hs1", named(params), 20).rows == s1
        assert families.triangle("hs2", named(params), 20).rows == s2


def test_hs_lah_engine_vs_solve():
    for params in HS_POINTS:
        engine, (s1, s2) = families.triangle("hs-lah", named(params), 15), solved_pair(15, params)
        assert engine.rows == tuple(product(s2, s1, signed=True))


def test_cakic_engine_vs_defining_solve():
    # The defining solve of the Cakic numbers is the solved s1 at (alpha, 1, 0).
    for alpha in (2, -3, F(1, 2)):
        assert families.triangle("cakic", {"alpha": alpha}, 20).rows == solved("hs1", named((alpha, 1, 0)), 20)


def test_rolling_sums_vs_full_solved_rows():
    for params in HS_POINTS:
        s1 = solved("hs1", named(params), 20)
        for n in (0, 1, 7, 20):
            assert families.row_sum("hs1", named(params), n) == sum(s1[n])
    for m, r in RW_POINTS:
        second = solved("r-whitney2", {"m": m, "r": r}, 30)
        dowling = [families.row_sum("r-whitney2", {"m": m, "r": r}, n) for n in range(31)]
        assert dowling == [sum(row) for row in second]
    s2 = families.triangle("stirling2", {}, 30)
    assert [families.row_sum("stirling2", {}, n) for n in range(31)] == [sum(row) for row in s2.rows]
    assert families.explicit_sequence("bell", {}, 30) == [sum(row) for row in s2.rows]


def rolling_sum(name, params, n):
    """Row n of a sum family rolled by the engine on its scaled weights,
    sum_k U(n,k) D^k / D^n by Horner's rule: an int for an integer family, a
    Fraction for a rational one."""
    _, scale, weights = families._engine(name, params)
    total = 0
    for u in reversed(deque(recurrence_rows(n, *weights), maxlen=1)[0]):
        total = total * scale + u
    return F(total, scale**n) if families.FAMILIES[name].rational else total


# Points of every sum family: the integer second-kind families (a = 0), then
# the rational hs1 and cakic, with a != 0, b = 0 (at (1, 0, 0) and
# (1/2, 0, 1/3)), denominators and negative steps.
_SUM_POINTS = (
    ("stirling2", {}),
    *(("whitney2", {"alpha": alpha}) for alpha in (-3, -2, -1, 1, 2, 3, 10**9)),
    *(("r-stirling2", {"r": r}) for r in (0, 1, 2, 3)),
    *(("r-whitney2", point) for point in (*_MR_GRID, {"m": 3, "r": 0})),
    *(("hs1", named(params)) for params in (*HS_POINTS, (F(1, 2), 0, F(1, 3)), (-3, 2, F(1, 5)))),
    *(("cakic", {"alpha": alpha}) for alpha in (1, 2, 3, -3, F(1, 2))),
    *(("r-whitney2", {"m": m, "r": r}) for m, r in ((1, 0), (3, 2), (5, 0))),
)


@pytest.mark.parametrize("name, params", _SUM_POINTS)
def test_explicit_sums_match_the_rolling_row(name, params):
    kind = F if families.FAMILIES[name].rational else int
    for n in range(61):
        value = families.row_sum(name, params, n)
        assert type(value) is kind
        assert value == rolling_sum(name, params, n), n


def test_row_sums_roll_no_engine_row(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rolled the engine's row")

    points = [(entry.family, _ANY) for entry in families.SUMS.values()]
    points += [("hs1", named((F(1, 2), F(1, 3), 2))), ("hs1", named((F(1, 2), 0, F(1, 3))))]
    points += [("cakic", {"alpha": F(1, 2)})]
    want = [rolling_sum(family, params, 40) for family, params in points]
    monkeypatch.setattr(triangles, "recurrence_rows", refuse)
    assert [families.row_sum(family, params, 40) for family, params in points] == want


def test_row_sum_refuses_a_signed_diagonal():
    with pytest.raises(ValueError, match="diagonal weight"):
        families.row_sum("lah", {}, 3)


def test_rational_sums_stay_fractions():
    # hs1 at (0, 1, 2) has the weights of a second-kind family, but it is rational.
    assert all(type(families.row_sum("hs1", named((0, 1, 2)), n)) is F for n in range(10))


# Points of `_step_products` at a != 0: Cakic steps and Hsu-Shiue triples
# whose F(j) has vanishing factors, negative a or b, and |p| from 1 to 3.
_WALK_POINTS = (
    *(("cakic", {"alpha": alpha}) for alpha in (1, 2, 3, -1, -2, 5)),
    *(
        ("hs1", named(params))
        for params in ((F(1, 2), F(1, 3), 2), (1, 2, 3), (-3, 2, F(1, 5)), (2, -1, 0), (4, 6, -2))
    ),
)


@pytest.mark.parametrize("name, params", _WALK_POINTS)
def test_step_products_walk_by_their_ratio(name, params):
    """F(j) walked by its ratio F(j+q)/F(j) is the plain product of its n
    factors, at every j <= n < 40."""
    _, _, (_, a, b, c) = families._engine(name, params)
    assert a != 0
    for n in range(40):
        plain = [math.prod(b * j + c + a * i for i in range(1, n + 1)) for j in range(n + 1)]
        assert list(families._step_products(n, a, b, c)) == plain, n


def test_explicit_sum_asserts_exact_division(monkeypatch):
    # 5! B(5) = 6240 is no multiple of 7: a wrong divisor must trip the assertion.
    monkeypatch.setattr(families.math, "factorial", lambda n: 7)
    with pytest.raises(AssertionError):
        families.row_sum("stirling2", {}, 5)


def test_explicit_row_is_the_telescoped_quotient():
    # C(n,k) prod_{i=k}^{n-1} (c + i h) is C(n,k) [c|h]_n / [c|h]_k wherever
    # [c|h]_k != 0, the quotient divides exactly at c = 2r, and the walk has
    # no 0/0 where a factor vanishes: at r = 0 or at a negative step.
    for c, h in ((2, 1), (4, 2), (2, 3), (0, 1), (0, 5), (2, -2), (2, -1), (6, -3)):
        for n in range(13):
            rising = [math.prod(c + i * h for i in range(j)) for j in range(n + 1)]
            row = triangles.explicit_row(n, c, h)
            for k in range(n + 1):
                assert row[k] == math.comb(n, k) * math.prod(c + i * h for i in range(k, n)), (c, h, n, k)
                if rising[k]:
                    assert F(math.comb(n, k) * rising[n], rising[k]) == row[k]


def test_explicit_row_asserts_exact_division():
    # At c = 1/2 the walk reaches T(2,1) = 3, and T(2,0) = 3 * 1/2 / 2 is no integer.
    with pytest.raises(AssertionError):
        triangles.explicit_row(2, F(1, 2), 1)


def test_hs_pair_asserts_mutual_inverse(monkeypatch):
    # The pair's mutual inversion is checked by `invrel` (solved s1, engine
    # s2) and `hs-ortho` (engine s1, solved s2), not on every build.  A wrong
    # weight of either engine family must fail the identity that reads it:
    # hs2's gamma term with its sign flipped, hs1's beta term likewise.
    broken = {
        ("hs2", "invrel"): lambda p: (1, -p["beta"], p["alpha"], p["beta"] + p["gamma"]),
        ("hs1", "hs-ortho"): lambda p: (1, -p["alpha"], -p["beta"], p["alpha"] + p["gamma"]),
    }
    for (name, identity), weights in broken.items():
        assert identities.report(identities.REGISTRY[identity])["pass"]
        table = dict(families.FAMILIES)
        table[name] = families.Family(("alpha", "beta", "gamma"), weights, True)
        with monkeypatch.context() as patch:
            patch.setattr(families, "FAMILIES", table)
            assert not identities.report(identities.REGISTRY[identity])["pass"], identity


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 8))
def test_property_r_whitney_engine_vs_solve(m, r, n):
    p = {"m": m, "r": r}
    for family in ("r-whitney1", "r-whitney2"):
        assert basis.scaled_solve(family, p, n) == engine_scaled(family, p, n), family
    assert families.row_sum("r-whitney2", p, n) == families.explicit_sum("r-dowling", p, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(-6, 6).filter(bool), st.integers(0, 8))
def test_property_whitney_engine_vs_expansion(alpha, n):
    p = {"alpha": alpha}
    assert basis.scaled_solve("whitney1", p, n) == engine_scaled("whitney1", p, n)
    assert families.row_sum("whitney2", p, n) == families.explicit_sum("dowling", p, n)


@settings(max_examples=40, deadline=None)
@given(small_rationals, st.sampled_from((0, *range(-3, 4), F(1, 3), F(-2, 5))), small_rationals, st.integers(0, 30))
def test_property_hs_bell_sum_is_the_last_row_summed(alpha, beta, gamma, n):
    p = named((alpha, beta, gamma))
    assert families.row_sum("hs1", p, n) == sum(deque(families.rows("hs1", p, n), maxlen=1)[0])


@settings(max_examples=40, deadline=None)
@given(small_rationals.filter(bool), st.integers(0, 30))
def test_property_cakic_bell_sum_is_the_last_row_summed(alpha, n):
    p = {"alpha": alpha}
    assert families.row_sum("cakic", p, n) == sum(deque(families.rows("cakic", p, n), maxlen=1)[0])


@settings(max_examples=40, deadline=None)
@given(small_rationals, small_rationals, small_rationals, st.integers(0, 6))
def test_property_hs_engine_vs_solve(alpha, beta, gamma, n):
    p = named((alpha, beta, gamma))
    (scale, s1), (_, s2) = solved = tuple(basis.scaled_solve(kind, p, n) for kind in ("hs1", "hs2"))
    assert solved == (engine_scaled("hs1", p, n), engine_scaled("hs2", p, n))
    assert engine_scaled("hs-lah", p, n) == (scale, tuple(product(s2, s1, signed=True)))
    assert families.row_sum("hs1", p, n) == families.explicit_sum("hs-bell", p, n)


def test_triangle_keeps_exact_entries_and_refuses_others():
    half = Triangle(((F(1, 2),),))
    assert half.rows == ((F(1, 2),),) and type(half.value(0, 0)) is F
    with pytest.raises(TypeError):
        Triangle(((1,), (2.7, 1)))
    with pytest.raises(TypeError):
        Triangle((("1",),))
    with pytest.raises(ValueError):
        Triangle(((1,), (2,)))
    assert Triangle(((1,), (F(4, 2), 1))).rows == ((1,), (2, 1))
