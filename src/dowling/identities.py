"""The identity registry: every identity the package verifies, declared once
as data.  `dowling verify` and the acceptance suite both run it.

An identity is a check shape plus its default size and parameters.  Every
reference and route of a shape is called as fn(nmax, **point), where the
point holds the identity's parameters other than nmax.  The shapes:

- `Tables`: a production triangle against whole-table routes, entrywise;
- `Sequences`: a production sequence against a whole-sequence route;
- `Product`: the product of two tables is the identity matrix;
- `Roundtrip`: seeded random sequences pass through two tables and come back;
- `Predicate`: a bool check at each of a list of points;
- a plain function (nmax, **point) -> (failures, notes) for the rest.

Parameter rules: an identity takes the parameters among its defaults, or
the parameter group of its grid; its fixed parameters cannot be set (a
fixed value may be a function of nmax).  An identity with a grid is checked
at every grid point unless it is given the whole group, which then replaces
the grid.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import cache, partial
from types import MappingProxyType

from . import classic, families, oracle, rnumbers, unified, whitney
from .triangles import checkerboard, product, transform


def _failure(n, k, expected, actual) -> dict:
    return {"n": n, "k": k, "expected": str(expected), "actual": str(actual)}


# ---------------------------------------------------------------------------
# shapes: named tuples rather than dataclasses, like `Identity` and
# `families.Family`, since importing `dataclasses` costs more than the registry


class Tables(namedtuple("Tables", ("reference", "routes", "notes"), defaults=(None,))):
    """`reference` returns a triangle; each route in `routes` is a pair
    (function returning rows, first column it is compared from)."""

    __slots__ = ()

    def __call__(self, nmax, **point):
        ref = self.reference(nmax, **point).rows
        bad = []
        for route, kmin in self.routes:
            got = route(nmax, **point)
            bad += [
                _failure(n, k, row[k], got[n][k])
                for n, row in enumerate(ref)
                for k in range(kmin, n + 1)
                if row[k] != got[n][k]
            ]
        return bad, self.notes


class Sequences(namedtuple("Sequences", ("reference", "route", "notes"), defaults=(None,))):
    """`reference` and `route` return the values at n = 0..nmax."""

    __slots__ = ()

    def __call__(self, nmax, **point):
        got = self.route(nmax, **point)
        ref = self.reference(nmax, **point)
        bad = [_failure(n, None, want, got[n]) for n, want in enumerate(ref) if want != got[n]]
        return bad, self.notes


class Product(namedtuple("Product", ("pair", "notes"), defaults=(None,))):
    """`pair` returns two tables whose product is the identity matrix, in
    both orders; a table paired with itself is multiplied once."""

    __slots__ = ()

    def __call__(self, nmax, **point):
        first, second = self.pair(nmax, **point)
        orders = ((first, second),) if first is second else ((first, second), (second, first))
        bad = []
        for c, d in orders:
            for n, row in enumerate(product(c.rows, d.rows)):
                bad += [_failure(n, k, int(n == k), v) for k, v in enumerate(row) if v != (n == k)]
        return bad, self.notes


class Roundtrip(namedtuple("Roundtrip", ("pair", "notes"), defaults=(None,))):
    """`pair` returns two tables; applying the first and then the second to
    a sequence gives it back.  Checked on five seeded random sequences of
    length nmax + 1."""

    __slots__ = ()

    def __call__(self, nmax, **point):
        first, second = self.pair(nmax, **point)
        bad = []
        for seed in range(5):
            rng = random.Random(seed)
            seq = [rng.randint(-50, 50) for _ in range(nmax + 1)]
            back = transform(second, transform(first, seq))
            if back != seq:
                bad.append(_failure(seed, None, seq, back))
        return bad, self.notes


class Predicate(namedtuple("Predicate", ("points", "expected", "notes"), defaults=(None,))):
    """`points` yields (n, k, holds) triples; each that does not hold fails
    as `expected`."""

    __slots__ = ()

    def __call__(self, nmax, **point):
        points = self.points(nmax, **point)
        return [_failure(n, k, self.expected, "mismatch") for n, k, holds in points if not holds], self.notes


def _each(value):
    """The sequence n -> value(n, ...) for n = 0..nmax."""
    return lambda nmax, *args, **point: [value(n, *args, **point) for n in range(nmax + 1)]


def _entrywise(entry):
    """The rows of a closed form entry(n, k, ...)."""
    return lambda nmax, **point: [
        [entry(n, k, **point) for k in range(n + 1)] for n in range(nmax + 1)
    ]


def _table(family):
    """The production triangle of a family.  `families.triangle` is looked up
    at each call, so a test that patches it reaches every reference."""
    return lambda nmax, **point: families.triangle(family, point, nmax)


def _sums(family):
    """The production row sums 0..nmax of a family, looked up likewise."""
    return lambda nmax, **point: [families.row_sum(family, point, n) for n in range(nmax + 1)]


def _hs(fn):
    """fn(nmax, (alpha, beta, gamma)) called with the Hsu-Shiue triple as keywords."""
    return lambda nmax, alpha, beta, gamma: fn(nmax, (alpha, beta, gamma))


def _cakic_bell(nmax, alpha):
    """The Cakic-Bell numbers as the generalized Bell numbers at (alpha, 1, 0)."""
    return unified.hs_bell_explicit_sequence(nmax, (alpha, 1, 0))


def _hs_ortho_pair(nmax, alpha, beta, gamma):
    """s1 from the engine and s2 from the connection solve."""
    s1 = families.triangle("hs1", {"alpha": alpha, "beta": beta, "gamma": gamma}, nmax)
    return s1, unified.hs_pair_by_solve(nmax, (alpha, beta, gamma)).s2


def _hs_inverse_pair(nmax, alpha, beta, gamma):
    """s1 from the connection solve and s2 from the engine."""
    s2 = families.triangle("hs2", {"alpha": alpha, "beta": beta, "gamma": gamma}, nmax)
    return unified.hs_pair_by_solve(nmax, (alpha, beta, gamma)).s1, s2


def _r_whitney_pair(nmax, m, r):
    """Signed r-Whitney first kind (solved) and second kind: mutually inverse."""
    first = rnumbers.r_whitney_first_by_solve(nmax, m, r)
    return checkerboard(first), families.triangle("r-whitney2", {"m": m, "r": r}, nmax)


# ---------------------------------------------------------------------------
# identities that fit no shape


def _bell_reduction(nmax):
    bad = []
    s2 = families.triangle("stirling2", {}, nmax + 1)
    w1 = families.triangle("whitney2", {"alpha": 1}, nmax)
    for n in range(nmax + 1):
        want, got = families.row_sum("stirling2", {}, n + 1), families.row_sum("whitney2", {"alpha": 1}, n)
        if want != got:
            bad.append(_failure(n, None, want, got))
        for j in range(n + 1):
            if w1.value(n, j) != s2.value(n + 1, j + 1):
                bad.append(_failure(n, j, s2.value(n + 1, j + 1), w1.value(n, j)))
    return bad, "unit-step Dowling numbers against shifted Bell/Stirling values"


# The sign (n, k) -> +-1 that takes a route's entry to the engine's.
_SIGNS = {
    "as printed": lambda n, k: 1,
    "(-1)^(n-k)": lambda n, k: (-1) ** (n - k),
    "(-1)^n": lambda n, k: (-1) ** n,
}

# The routes of a reduction, read at its point given the pair solved there.
_HS = ("alpha", "beta", "gamma")
_ROUTES = {
    "solved s1": lambda nmax, point, pair: pair.s1.rows,
    "solved L": lambda nmax, point, pair: unified.signed_product(pair).rows,
    "engine L": lambda nmax, point, pair: families.triangle("hs-lah", dict(zip(_HS, point)), nmax).rows,
    "defining solve": lambda nmax, point, pair: unified.cakic_by_solve(nmax, point[0]).rows,
}
_S1, _L = ("solved s1",), ("solved L", "engine L")

# The reductions of the Hsu-Shiue pair, each with the one sign convention it
# satisfies: (name, convention, engine family and parameters, the point
# (alpha, beta, gamma), the routes compared with the engine there, the sign).
SPECIALIZATIONS = (
    ("whitney-first", "w(n,k) = S(n,k; beta, 0, -1) as printed",
     "whitney1", {"alpha": 3}, (3, 0, -1), _S1, "as printed"),
    ("whitney-second", "W(n,k) = S(n,k; 0, beta, 1) as printed",
     "whitney2", {"alpha": 3}, (0, 3, 1), _S1, "as printed"),
    ("whitney-lah", "L^W(n,k) = L(n,k; 0, beta, 1) as printed",
     "whitney-lah", {"alpha": 3}, (0, 3, 1), _L, "as printed"),
    ("r-stirling-first", "A(n,k) = (-1)^(n-k) S(n,k; 1, 0, -r)",
     "r-stirling1", {"r": 2}, (1, 0, -2), _S1, "(-1)^(n-k)"),
    ("r-stirling-second", "S(n,k) = S(n,k; 0, 1, r) as printed",
     "r-stirling2", {"r": 2}, (0, 1, 2), _S1, "as printed"),
    ("r-lah", "L(n,k) = (-1)^n L(n,k; 0, 1, r) as printed",
     "r-lah", {"r": 2}, (0, 1, 2), _L, "(-1)^n"),
    ("r-whitney-first", "w(n,k) = (-1)^(n-k) S(n,k; m, 0, -r) as printed",
     "r-whitney1", {"m": 2, "r": 2}, (2, 0, -2), _S1, "(-1)^(n-k)"),
    ("r-whitney-second", "W(n,k) = S(n,k; 0, m, r) as printed",
     "r-whitney2", {"m": 2, "r": 2}, (0, 2, 2), _S1, "as printed"),
    ("r-whitney-lah", "L(n,k) = (-1)^n L(n,k; 0, m, r) as printed",
     "r-whitney-lah", {"m": 2, "r": 2}, (0, 2, 2), _L, "(-1)^n"),
    ("cakic", "c(n,k) = S(n,k; +alpha, 1, 0); the printed reduction negates alpha",
     "cakic", {"alpha": 2}, (2, 1, 0), ("solved s1", "defining solve"), "as printed"),
)


def _specializations(nmax):
    """Each engine table of `SPECIALIZATIONS` against its routes, entrywise;
    the notes are the declared conventions.  Each point is solved once."""
    solved = cache(partial(unified.hs_pair_by_solve, nmax))
    bad, notes = [], []
    for name, convention, family, params, point, routes, sign in SPECIALIZATIONS:
        ref = families.triangle(family, params, nmax).rows
        sign = _SIGNS[sign]
        for route in routes:
            got = _ROUTES[route](nmax, point, solved(point))
            bad += [
                _failure(n, k, f"{name}: {want}", sign(n, k) * got[n][k])
                for n, row in enumerate(ref)
                for k, want in enumerate(row)
                if want != sign(n, k) * got[n][k]
            ]
        notes.append(f"{name}: {convention}")
    return bad, "; ".join(notes)


# The reductions of the partial Bell polynomials B(n,k) that `partial-bell`
# checks: (engine family, x_i as a function of i >= 1, the sign taking
# B(n,k) to the engine's entry).
_PARTIAL_BELL = (
    ("stirling2", lambda i: 1, "as printed"),
    ("lah", math.factorial, "(-1)^n"),
    ("stirling1", lambda i: math.factorial(i - 1), "(-1)^(n-k)"),
)


def _partial_bell(nmax):
    """Each reduction of `_PARTIAL_BELL`, entrywise: the polynomials come
    from `classic.partial_bell`, which enumerates multiplicity vectors and
    shares no code with the engine."""
    bad = []
    for family, x, sign in _PARTIAL_BELL:
        xs = [x(i) for i in range(1, nmax + 2)]
        sign = _SIGNS[sign]
        for n, row in enumerate(families.triangle(family, {}, nmax).rows):
            for k, want in enumerate(row):
                got = sign(n, k) * classic.partial_bell(n, k, xs)
                if want != got:
                    bad.append(_failure(n, k, f"{family}: {want}", got))
    return bad, "B(n,k) at x_i = 1, i!, (i-1)! against S(n,k), (-1)^n L(n,k), (-1)^(n-k) s(n,k)"


def _oracle(nmax):
    """Brute-force partition counts against the production families.  The
    enumeration is capped by its size guard, so Lah stops at n = 9 and the
    r-families at min(nmax, 11-r, 9)."""
    # (last row, distinguished elements, ordered blocks, entry, row sum)
    bell = partial(families.row_sum, "stirling2", {})
    checks = [
        (nmax, 0, False, families.triangle("stirling2", {}, nmax).value, bell),
        (min(nmax, 9), 0, True, classic.lah_signless, None),
    ]
    for r in (1, 2, 3):
        top, p = min(nmax, 11 - r, 9), {"r": r}
        r_bell = partial(families.row_sum, "r-stirling2", p)
        checks.append((top, r, False, families.triangle("r-stirling2", p, top).value, r_bell))
        checks.append((top, r, True, families.triangle("r-lah", p, top).value, None))
    bad = []
    for top, r, ordered, entry, total in checks:
        for n in range(top + 1):
            for k in range(n + 1):
                want = oracle.count_partitions(oracle.PartitionSpec(n + r, k + r, r, ordered))
                if want != entry(n, k):
                    bad.append(_failure(n, k, want, entry(n, k)))
            if total is not None and oracle.count_all_partitions(n + r, r) != total(n):
                bad.append(_failure(n, None, oracle.count_all_partitions(n + r, r), total(n)))
    return bad, None


# ---------------------------------------------------------------------------
# the registry


_IDENTITY_FIELDS = (
    "name",
    "defaults",  # nmax and the parameters a caller may set, in report order
    "check",  # a shape, or a function (nmax, **point) -> (failures, notes)
    "grid",  # default points of the parameter group, if any
    "fixed",  # parameters a caller may not set, or functions of nmax
    "needs_oracle",
)


class Identity(namedtuple("Identity", _IDENTITY_FIELDS, defaults=((), MappingProxyType({}), False))):
    __slots__ = ()

    @property
    def accepts(self) -> tuple:
        """The parameters a caller may set."""
        return tuple(self.grid[0] if self.grid else (key for key in self.defaults if key != "nmax"))


def _all_columns(*routes) -> tuple:
    return tuple((route, 0) for route in routes)


def _lgf(nmax, kmax):
    return ((nmax, k, classic.lah_egf_check(k, nmax)) for k in range(min(kmax, nmax) + 1))


def _weighted_egf(nmax, r, order):
    return ((nmax, None, rnumbers.weighted_stirling_egf_check(nmax, r, order)),)


def _log_concavity(nmax, m, r):
    return ((n, None, rnumbers.verify_log_concavity(n, m, r)) for n in range(2, nmax + 1))


def _stirling_pair(nmax):
    return families.triangle("stirling2", {}, nmax), families.triangle("stirling1", {}, nmax)


def _whitney_pair(nmax, alpha):
    second = families.triangle("whitney2", {"alpha": alpha}, nmax)
    return whitney.whitney_first_by_expansion(nmax, alpha), second


_HS_GRID = tuple(
    {"alpha": a, "beta": b, "gamma": g}
    for a, b, g in ((0, 1, 2), (0, 2, 2), (1, 0, 0), (Fraction(1, 2), Fraction(1, 3), 2))
)
_MR_GRID = ({"m": 1, "r": 1}, {"m": 2, "r": 2}, {"m": 3, "r": 1})
_W = {"nmax": 12, "alpha": 3}
_R = {"nmax": 10, "r": 2}
_RW = {"nmax": 12, "m": 2, "r": 2}
_LAH = _table("lah")
_W_LAH = _table("whitney-lah")
_RW_LAH = _table("r-whitney-lah")
_TRIWLAH_ROUTES = (
    (whitney.whitney_lah_vertical_rows, 1),
    *_all_columns(whitney.whitney_lah_horizontal_rows, whitney.whitney_lah_from_whitney_rows),
)
_RWLAH_ROUTES = (
    *_all_columns(_entrywise(rnumbers.r_whitney_lah_explicit), rnumbers.r_whitney_lah_from_whitney_rows),
    (rnumbers.r_whitney_lah_vertical_rows, 1),
    *_all_columns(rnumbers.r_whitney_lah_horizontal_rows),
)
_SERIES = "series == triangle"
_HORILAH = "angle-bracket weights resolved as the ascending product x(x+1)...(x+i-1)"
_TRIWLAH = "vertical, horizontal and product routes against the triangular recurrence"
_RWLAH = "explicit, product, vertical and horizontal routes against the recurrence"
_LOG_CONCAVE = "product-form strict log-concavity; the sum form is implied at these sizes"

REGISTRY = {
    ident.name: ident
    for ident in (
        Identity("lef", {"nmax": 30}, Tables(_LAH, _all_columns(_entrywise(classic.lah_explicit)))),
        Identity("verlah", {"nmax": 20}, Tables(_LAH, _all_columns(classic.lah_vertical_rows))),
        Identity("horilah", {"nmax": 20}, Tables(_LAH, _all_columns(classic.lah_horizontal_rows), _HORILAH)),
        Identity("lgf", {"nmax": 20}, Predicate(_lgf, _SERIES), fixed={"kmax": 5}),
        Identity("qi", {"nmax": 25}, Sequences(_sums("stirling2"), _each(classic.qi_bell))),
        Identity("ordlahstirling", {"nmax": 15}, Tables(_LAH, _all_columns(classic.lah_from_stirlings_rows))),
        Identity("stirling-inverse", {"nmax": 9}, Roundtrip(_stirling_pair)),
        Identity("partial-bell", {"nmax": 10}, _partial_bell),
        Identity("ortho", {"nmax": 12, "alpha": 3}, Product(whitney.whitney_lah_pair)),
        Identity("inv1", {"nmax": 9, "alpha": 3}, Roundtrip(whitney.whitney_lah_pair)),
        Identity("wla1", _W, Tables(_W_LAH, _all_columns(whitney.whitney_lah_from_whitney_rows))),
        Identity("triwlah", {"nmax": 15, "alpha": 3}, Tables(_W_LAH, _TRIWLAH_ROUTES, _TRIWLAH)),
        Identity("whitney-ortho", _W, Product(_whitney_pair)),
        Identity(
            "benoumhani",
            {"nmax": 15, "alpha": 3},
            Tables(_table("whitney2"), _all_columns(whitney.whitney_second_benoumhani_rows)),
        ),
        Identity(
            "dow1", {"nmax": 10, "alpha": 3}, Sequences(_sums("whitney2"), whitney.dowling_explicit_sequence)
        ),
        Identity("bell-reduction", {"nmax": 12}, _bell_reduction),
        Identity("lah1", _R, Tables(_table("r-lah"), _all_columns(rnumbers.r_lah_from_stirlings_rows))),
        Identity("lah4", {"nmax": 7, "r": 2}, Roundtrip(rnumbers.r_inverse_pair)),
        Identity("expb", _R, Sequences(_sums("r-stirling2"), rnumbers.r_bell_explicit_sequence)),
        Identity(
            "weighted-egf",
            {"nmax": 12, "r": 2},
            Predicate(_weighted_egf, _SERIES),
            fixed={"order": partial(max, 12)},  # the series order must reach nmax
        ),
        Identity("rw-ortho", {"nmax": 8, "m": 2, "r": 2}, Product(_r_whitney_pair)),
        Identity("rw-inv", {"nmax": 7, "m": 2, "r": 2}, Roundtrip(_r_whitney_pair)),
        Identity("rwhitneylah", _RW, Tables(_RW_LAH, _all_columns(rnumbers.r_whitney_lah_from_whitney_rows))),
        Identity("exprwlah", _RW, Tables(_RW_LAH, _all_columns(_entrywise(rnumbers.r_whitney_lah_explicit)))),
        Identity("rwlah-routes", _RW, Tables(_RW_LAH, _RWLAH_ROUTES, _RWLAH)),
        Identity("expl-rdow", _RW, Sequences(_sums("r-whitney2"), rnumbers.r_dowling_explicit_sequence)),
        Identity(
            "ugexp",
            {"nmax": 10},
            Sequences(_sums("hs1"), _hs(unified.hs_bell_explicit_sequence)),
            _HS_GRID,
        ),
        Identity("cakic-bell", {"nmax": 10, "alpha": 2}, Sequences(_sums("cakic"), _cakic_bell)),
        Identity("hs-ortho", {"nmax": 8}, Product(_hs_ortho_pair), _HS_GRID),
        Identity("invrel", {"nmax": 9}, Roundtrip(_hs_inverse_pair), _HS_GRID),
        Identity("log-concavity", {"nmax": 20}, Predicate(_log_concavity, "log-concave", _LOG_CONCAVE), _MR_GRID),
        Identity("specializations", {"nmax": 6}, _specializations),
        Identity("oracle", {"nmax": 8}, _oracle, needs_oracle=True),
    )
}


# ---------------------------------------------------------------------------
# running


def taken(ident: Identity, given: dict) -> dict:
    """The parameters among `given` that `ident` takes when every identity
    runs at once: those it declares, and a grid group only when whole."""
    mine = {key: value for key, value in given.items() if key in ident.accepts}
    return mine if not ident.grid or len(mine) == len(ident.accepts) else {}


def report(ident: Identity, given: dict | None = None, nmax: int | None = None) -> dict:
    """Run one identity and return its verification report.

    `given` holds parameters that replace the defaults; a parameter the
    identity does not take, or part of its grid group, is a ValueError.
    """
    given = dict(given or {})
    for key in given:
        if key not in ident.accepts:
            raise ValueError(f"identity {ident.name!r} does not take --{key}")
    if ident.grid and given and len(given) < len(ident.accepts):
        flags = ", ".join(f"--{key}" for key in ident.accepts)
        raise ValueError(f"identity {ident.name!r} takes {flags} together or not at all")
    if nmax is None:
        nmax = ident.defaults["nmax"]
    params = {key: value for key, value in ident.defaults.items() if key != "nmax"}
    params.update((key, value(nmax) if callable(value) else value) for key, value in ident.fixed.items())
    params.update(given)
    points = (params,) if given or not ident.grid else ident.grid
    failures, notes = [], None
    for point in points:
        bad, notes = ident.check(nmax, **point)
        if ident.grid:
            where = ", ".join(f"{key}={value}" for key, value in point.items())
            for item in bad:
                item["actual"] += f" at {where}"
        failures += bad
    out = {
        "identity": ident.name,
        "params": {key: str(value) for key, value in params.items()},
        "nmax": nmax,
        "pass": not failures,
        "failures": failures,
    }
    if notes:
        out["notes"] = notes
    return out
