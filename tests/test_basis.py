import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dowling import families
from dowling.basis import (
    PolyBasis,
    connection_matrix,
    egf_rows,
    expand_in_monomials,
    factorial_basis,
    identity_matrix,
    monomial_basis,
    power_basis,
    scaled_solve,
    verify_orthogonality,
    verify_tauber_product,
)
from dowling.cli import main
from dowling.exactmath import DegenerateBasisError, IntegralityError, Poly
from dowling.identities import _HS_GRID
from dowling.triangles import Triangle

F = Fraction


def brute_expand(factors):
    """Independent oracle: multiply linear factors as plain coefficient lists."""
    coeffs = [F(1)]
    for c0, c1 in factors:
        out = [F(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            out[i] += c * c0
            out[i + 1] += c * c1
        coeffs = out
    return coeffs


def test_basis_rejects_non_graded():
    with pytest.raises(DegenerateBasisError):
        PolyBasis((Poly([1]), Poly([5])))  # element 1 is a constant
    with pytest.raises(DegenerateBasisError):
        PolyBasis(())


def test_expand_in_monomials():
    b = factorial_basis(1, -1, 3, 4)  # (x-1|3)_n
    mat = expand_in_monomials(b)
    assert mat.rows[2] == (4, -5, 1)
    assert mat.rows[0] == (1,)
    assert expand_in_monomials(monomial_basis(5)).is_identity()


def test_connection_matrix_identity_on_same_basis():
    b = factorial_basis(1, -1, 2, 6)
    assert connection_matrix(b, b).is_identity()


def test_connection_matrix_whitney_lah_corner():
    source = factorial_basis(-1, -1, 3, 4)  # (-x-1|3)_n
    target = factorial_basis(1, -1, 3, 4)  # (x-1|3)_n
    mat = connection_matrix(source, target)
    assert mat.value(1, 0) == -2
    assert mat.value(1, 1) == -1


def test_connection_matrix_stirling_first_column():
    # Independent route: expand (x)_n by brute force and read coefficients.
    mat = connection_matrix(factorial_basis(1, 0, 1, 5), monomial_basis(5))
    for n in range(6):
        coeffs = brute_expand([(-i, 1) for i in range(n)])
        for k in range(n + 1):
            assert mat.value(n, k) == coeffs[k]


def test_connection_reconstructs_source_polynomials():
    source = factorial_basis(1, F(1, 2), F(-2, 3), 6)
    target = factorial_basis(1, -1, F(3, 2), 6)
    mat = connection_matrix(source, target)
    for n in range(7):
        rebuilt = Poly()
        for j in range(n + 1):
            rebuilt = rebuilt + target.elements[j] * mat.value(n, j)
        assert rebuilt == source.elements[n]


def test_power_basis_requires_linear():
    with pytest.raises(DegenerateBasisError):
        power_basis(Poly([1]), 3)
    b = power_basis(Poly([2, 3]), 3)
    assert b.elements[2] == Poly([4, 12, 9])


def test_verify_orthogonality():
    b = factorial_basis(1, 0, 1, 6)
    c = connection_matrix(b, monomial_basis(6))
    d = connection_matrix(monomial_basis(6), b)
    assert verify_orthogonality(c, d)
    assert verify_orthogonality(identity_matrix(0), identity_matrix(0))
    with pytest.raises(ValueError):
        verify_orthogonality(identity_matrix(2), identity_matrix(3))


def test_verify_tauber_product_identity_case():
    i = identity_matrix(4)
    assert verify_tauber_product(i, i, i)


def test_tauber_whitney_instance():
    # First family (x-1|a)_n and its mirror (-x-1|a)_n: the composite
    # connection equals the signed product of the two expansion matrices.
    nmax, alpha = 6, 3
    p1 = factorial_basis(1, -1, alpha, nmax)
    p2 = factorial_basis(-1, -1, alpha, nmax)
    c2 = expand_in_monomials(p2)
    d1 = connection_matrix(monomial_basis(nmax), p1)
    l = connection_matrix(p2, p1)
    assert verify_tauber_product(c2, d1, l)

    from dowling import families

    w = families.triangle("whitney1", {"alpha": alpha}, nmax)
    second = families.triangle("whitney2", {"alpha": alpha}, nmax)
    lah = families.triangle("whitney-lah", {"alpha": alpha}, nmax)
    for n in range(nmax + 1):
        for k in range(n + 1):
            assert c2.value(n, k) == (-1) ** k * w.value(n, k)
            assert d1.value(n, k) == second.value(n, k)
            assert l.value(n, k) == lah.value(n, k)


def test_tauber_r_lah_instance():
    # Second family (x)_n versus (-x-2r)_n: the composite connection is the
    # signed r-Lah triangle.
    from dowling import families

    nmax, r = 6, 2
    p1 = factorial_basis(1, 0, 1, nmax)
    p2 = factorial_basis(-1, -2 * r, 1, nmax)
    l = connection_matrix(p2, p1)
    expected = families.triangle("r-lah", {"r": r}, nmax)
    for n in range(nmax + 1):
        for k in range(n + 1):
            assert l.value(n, k) == (-1) ** n * expected.value(n, k)


def test_to_triangle_raises_on_rationals():
    mat = Triangle(((F(1),), (F(1, 2), F(1)),))
    with pytest.raises(IntegralityError):
        mat.to_triangle("x")
    whole = Triangle(((F(1),), (F(4, 2), 1)))
    assert whole.to_triangle("x", {"r": 2}) == Triangle(((1,), (2, 1)), "x", {"r": 2})
    assert set(map(type, whole.to_triangle("x").rows[1])) == {int}


def test_matrix_transform_and_mul():
    mat = Triangle(((1,), (2, 3)))
    assert mat.transform([1, 1]) == [1, 5]
    assert mat.mul(identity_matrix(1)).rows == mat.rows
    with pytest.raises(ValueError):
        mat.transform([1, 2, 3])
    # Mixed int and Fraction rows: a matrix and its inverse.
    half = Triangle(((1,), (F(1, 2), 2)))
    inverse = Triangle(((F(1),), (F(-1, 4), F(1, 2))))
    assert half.mul(inverse).is_identity() and inverse.mul(half).is_identity()
    assert half.mul(half).rows == ((1,), (F(3, 2), 4))
    assert not half.is_identity()


@st.composite
def graded_bases(draw, nmax=5):
    elements = []
    for n in range(nmax + 1):
        lead = draw(st.sampled_from([1, -1, 2, F(1, 2), 3]))
        lower = [draw(st.integers(-4, 4)) for _ in range(n)]
        elements.append(Poly(lower + [lead]))
    return PolyBasis(tuple(elements))


@settings(max_examples=25, deadline=None)
@given(graded_bases(), graded_bases())
def test_connection_round_trip_is_identity(p, q):
    assert connection_matrix(p, q).mul(connection_matrix(q, p)).is_identity()


def sympy_connection(family, p, nmax) -> list:
    """Rows 0..nmax of a family by sympy, as the connection M between the
    bases of its defining relation, source(n) = sum_j M(n,j) target(j), by
    back-substitution: the leading coefficient of target(j) pins M(n,j)
    from degree j downwards."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    alpha, beta, gamma, m, r = (sympy.sympify(p.get(key, 0)) for key in ("alpha", "beta", "gamma", "m", "r"))

    def falling(a, b, step):
        """n -> prod_{i<n} (a x + b - i step)."""
        return lambda n: sympy.prod([a * x + b - i * step for i in range(n)])

    def monomial(n):
        return x**n

    def power(n):
        return (m * x + r) ** n

    def connection(source, target, sign=1):
        targets, rows = [sympy.Poly(target(j), x) for j in range(nmax + 1)], []
        for n in range(nmax + 1):
            rest, row = sympy.Poly(source(n), x), [0] * (n + 1)
            for j in range(n, -1, -1):
                row[j] = rest.nth(j) / targets[j].LC()
                rest -= targets[j] * row[j]
            rows.append([sign ** (n - k) * v for k, v in enumerate(row)])
        return rows

    bases = {
        "stirling1": (falling(1, 0, 1), monomial),  # (x)_n in x^k
        "whitney1": (falling(1, -1, alpha), monomial),  # (x-1|alpha)_n in x^k
        "whitney2": (monomial, falling(1, -1, alpha)),  # x^n in (x-1|alpha)_k
        "r-whitney1": (falling(m, 0, m), power, -1),  # (mx|m)_n in (mx+r)^k, signed by (-1)^(n-k)
        "r-whitney2": (power, falling(m, 0, m)),  # (mx+r)^n in (mx|m)_k
        "hs1": (falling(1, 0, alpha), falling(1, -gamma, beta)),  # (x|alpha)_n in (x-gamma|beta)_k
        "hs2": (falling(1, 0, beta), falling(1, gamma, alpha)),  # (x|beta)_n in (x+gamma|alpha)_k
        "cakic": (falling(1, 0, alpha), falling(1, 0, 1)),  # (x|alpha)_n in (x)_k
    }
    return connection(*bases[family])


_MR = tuple({"m": m, "r": r} for m, r in ((1, 0), (2, 2), (3, 1)))
_HS = (*_HS_GRID, {"alpha": -3, "beta": 2, "gamma": F(1, 5)})
# Points of the eight families whose defining relation `sympy_connection` solves.
SOLVE_POINTS = {
    "stirling1": ({},),
    "whitney1": tuple({"alpha": alpha} for alpha in (3, 1, -2)),
    "whitney2": tuple({"alpha": alpha} for alpha in (3, 1)),
    "r-whitney1": _MR,
    "r-whitney2": _MR,
    "hs1": _HS,
    "hs2": _HS,
    "cakic": tuple({"alpha": alpha} for alpha in (2, 3)),
}


@pytest.mark.parametrize("family", sorted(SOLVE_POINTS))
def test_the_integer_solve_is_the_fraction_solve(family):
    """Rows 0..12 of each family by `scaled_solve` are the ints
    U(n,k) = D^(n-k) T(n,k) of the connection T that sympy solves in exact
    fractions between the bases of the family's defining relation."""
    assert set(SOLVE_POINTS) <= set(families.TRIPLES)
    for point in SOLVE_POINTS[family]:
        want = sympy_connection(family, point, 12)
        scale, rows = scaled_solve(family, point, 12)
        scaled = tuple(tuple(scale ** (n - k) * v for k, v in enumerate(row)) for n, row in enumerate(want))
        assert rows == scaled, point


@pytest.mark.parametrize(
    "kind, wrong",
    (
        ("hs2", lambda p: (p["beta"], p["alpha"], p["gamma"])),  # the target nodes with gamma's sign flipped
        ("hs1", lambda p: (p["alpha"] + 1, p["beta"], p["gamma"])),  # the source step raised by one
    ),
    ids=("hs2-target", "hs1-source"),
)
def test_a_solved_pair_not_mutually_inverse_fails_its_report(capsys, monkeypatch, kind, wrong):
    """`specializations` multiplies the solved s1 and s2 at each of its
    triples: with a wrong triple of either kind, `verify` exits 1 with a
    `solved pair` failure in its report, not a traceback."""
    monkeypatch.setitem(families.TRIPLES, kind, families.TRIPLES[kind]._replace(triple=wrong))
    code = main(["verify", "--identity", "specializations"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["pass"] is False
    assert any(f["expected"].startswith("solved pair at (") for f in report["failures"])


_STEPS = tuple({"alpha": alpha} for alpha in (3, 1, -2))
_R = tuple({"r": r} for r in range(4))
_RW = (*_MR, {"m": 1, "r": 3})
_HS_POINTS = (*_HS, {"alpha": 2, "beta": -3, "gamma": F(-1, 2)})
# Points of every family of `families.TRIPLES`: an integer point, a negative
# step where the family has one, r = 0 or m = 1, and rational points.
TRIPLE_POINTS = {
    "stirling1": ({},),
    "stirling2": ({},),
    "lah": ({},),
    "whitney1": _STEPS,
    "whitney2": _STEPS,
    "whitney-lah": _STEPS,
    "r-stirling1": _R,
    "r-stirling2": _R,
    "r-lah": _R,
    "r-whitney1": _RW,
    "r-whitney2": _RW,
    "r-whitney-lah": _RW,
    "hs1": _HS_POINTS,
    "hs2": _HS_POINTS,
    "cakic": tuple({"alpha": alpha} for alpha in (2, -3, F(1, 2))),
}


@pytest.mark.parametrize("family", sorted(TRIPLE_POINTS))
def test_both_routes_of_the_triple_match_the_engine(family):
    """Rows 0..14 of every family but `hs-lah` by the connection solve over
    its triple are the engine's (D, U(n,k)), and its EGF rows are k! U(n,k),
    0 where k > n, cut at column min(kmax, nmax)."""
    assert set(TRIPLE_POINTS) == set(families.TRIPLES) == set(families.FAMILIES) - {"hs-lah"}
    for point in TRIPLE_POINTS[family]:
        scale, rows = families.scaled_rows(family, point, 14)
        rows = tuple(rows)
        assert scaled_solve(family, point, 14) == (scale, rows), point
        want = [tuple(math.factorial(k) * (row[k] if k < len(row) else 0) for k in range(15)) for row in rows]
        assert egf_rows(family, point, 14) == want, point
        for kmax in (0, 1, 2, 20):
            assert egf_rows(family, point, 14, kmax) == [row[: kmax + 1] for row in want], (point, kmax)


@pytest.mark.parametrize("family", ("hs-lah", "nope"))
def test_a_family_without_a_triple_is_a_value_error(family):
    message = f"family {family!r} has no Hsu-Shiue triple"
    for route in (scaled_solve, egf_rows):
        with pytest.raises(ValueError, match=message):
            route(family, {}, 3)


def test_egf_rows_refuses_a_negative_kmax():
    with pytest.raises(ValueError, match="kmax must be nonnegative"):
        egf_rows("lah", {}, 3, -1)
    assert egf_rows("lah", {}, 3, 0) == [(1,), (0,), (0,), (0,)]
