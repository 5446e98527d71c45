"""The identity registry: every identity the package verifies, declared once
as data.  `dowling verify` and the acceptance suite both run it, and
`dowling paper-tables` runs `PAPER_TABLES`, the paper's reference tables and
worked checks, over the same shapes.

An identity is a check plus its default size, parameters and notes.  A
check is a shape, or a tuple of shapes whose failures the report lists in
order.  Every reference and route of a shape is called as fn(nmax, **point),
where the point holds the identity's parameters other than nmax.  The shapes:

- `Tables`: a reference row stream, of the production path or of the
  values the paper prints, against route row streams, entrywise;
  a sequence is declared as one (`_sequences`), its terms one-entry rows,
  and so is `log-concavity`, each row's verdict against "log-concave";
- `Inverse`: the product of two row streams is the identity matrix,
  entrywise, on the scaled ints of a rational pair;
- `Reductions`: the rows of `SPECIALIZATIONS` at one Hsu-Shiue triple,
  called as fn(nmax): hs1 and hs2 are solved there once, each reduction is
  a `Tables` over the solves, and the solved pair an `Inverse`.

`Tables` and `Inverse` compare through `_entrywise`, where a route or
product lists at most `_LISTED` failures, then one failure counting the
rest.

The registry holds every verification route that only it runs: the
Lah-type routes of `lah_route` (the closed form `triangles.explicit_row`
and the expansions `vertical_rows` and `horizontal_rows`), the partial Bell
polynomials `partial_bell_rows`, Benoumhani's sum for the Whitney numbers
`whitney_second_benoumhani_rows` and the log-concavity predicate
`verify_log_concavity`.  The connection solves and EGF rows are `basis`'s,
the paper's sum formulas `families.explicit_sum`.

Parameter rules: an identity takes the parameters among its defaults, or
the parameter group of its grid; its fixed parameters cannot be set (a
fixed value may be a function of nmax).  An identity with a grid is checked
at every grid point unless it is given the whole group, which then replaces
the grid.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import count, islice, zip_longest
from types import MappingProxyType

from . import basis, families, oracle
from .exactmath import as_integer
from .triangles import explicit_row, product


def _failure(n, k, expected, actual) -> dict:
    return {"n": n, "k": k, "expected": str(expected), "actual": str(actual)}


# The failures a route or product lists; one more counts the rest.
_LISTED = 20


# The sign taking a route's row n to the engine's, entry by entry.
_SIGNS = {
    "as printed": lambda n, row: row,
    "(-1)^(n-k)": lambda n, row: [-v if (n - k) % 2 else v for k, v in enumerate(row)],
    "(-1)^n": lambda n, row: [-v for v in row] if n % 2 else row,
}
# Indexed by whether a stream lacks row n.
_LACKS = ("a row", "no row")


def _entrywise(ref, routes, sign="as printed", label=None) -> list:
    """The failures of each route (rows, first column compared) against the
    rows `ref`, of any width, entry by entry, its rows taken with a `_SIGNS`
    sign and each expected value prefixed by `label`; the streams advance
    together, one row of each held.  A route fails once at the first row
    one stream lacks, and once at each row of another length than `ref`'s.
    Failures go route by route, at most `_LISTED` of each, then one
    counting any left out."""
    prefix, sign = f"{label}: " if label else "", _SIGNS[sign]
    bads, seen, ended = [[] for _ in routes], [0] * len(routes), set()
    for n, (want, *got) in enumerate(zip_longest(ref, *(rows for rows, _ in routes))):
        for i, ((_, kmin), row) in enumerate(zip(routes, got)):
            if i in ended:
                continue
            if want is None or row is None:
                ended.add(i)
                fresh = [] if want is row else [_failure(n, None, prefix + _LACKS[want is None], _LACKS[row is None])]
            elif len(row) != len(want):
                fresh = [_failure(n, None, f"{prefix}{len(want)} entries", f"{len(row)} entries")]
            else:
                row = sign(n, row)
                fresh = [
                    _failure(n, k, prefix + str(want[k]), row[k]) for k in range(kmin, len(want)) if want[k] != row[k]
                ]
            seen[i] += len(fresh)
            bads[i] += fresh[: _LISTED - len(bads[i])]
    for bad, many in zip(bads, seen):
        if many > _LISTED:
            bad.append(_failure(None, None, f"{prefix}{_LISTED} failures listed", f"{many - _LISTED} more"))
    return [item for bad in bads for item in bad]


# ---------------------------------------------------------------------------
# shapes: named tuples rather than dataclasses, like `Identity` and
# `families.Family`, since importing `dataclasses` costs more than the registry


class Tables(namedtuple("Tables", ("reference", "routes", "sign", "label"), defaults=("as printed", None))):
    """`reference` returns rows; each route in `routes` is a pair (function
    returning rows, first column it is compared from), streamed together
    and compared by `_entrywise` with its `sign` and `label`."""

    __slots__ = ()

    def __call__(self, nmax, **point):
        ref, routes = self.reference(nmax, **point), [(route(nmax, **point), kmin) for route, kmin in self.routes]
        return _entrywise(ref, routes, self.sign, self.label)


class Inverse(namedtuple("Inverse", ("first", "second", "label"), defaults=(None,))):
    """`first` and `second` return two tables, each (D, rows of its scaled
    ints U(n,k) = D^(n-k) T(n,k)) at one D, as `families.scaled_rows` does;
    their product, D^(n-k) times the tables', is compared with the identity
    matrix by `_entrywise` under `label`.  One order suffices: AB = I iff
    BA = I for square lower-triangular tables."""

    __slots__ = ()

    def __call__(self, nmax, **point):
        (scale, first), (other, second) = self.first(nmax, **point), self.second(nmax, **point)
        if scale != other:
            raise ValueError(f"an inverse pair needs one scale, got {scale} and {other}")
        ref = (tuple(int(n == k) for k in range(n + 1)) for n in range(nmax + 1))
        return _entrywise(ref, [(product(first, second), 0)], label=self.label)


def _sequences(reference, route) -> Tables:
    """`reference` and `route` return the values at n = 0..nmax, compared as
    one-entry rows: a term that differs fails at (n, 0)."""

    def terms(sequence):
        return lambda nmax, **point: ((term,) for term in sequence(nmax, **point))

    return Tables(terms(reference), ((terms(route), 0),))


def _explicit(name):
    """The sum `name` of `families.SUMS` at n = 0..nmax by its explicit formula."""
    return lambda nmax, **point: families.explicit_sequence(name, point, nmax)


def _rows(family):
    """The production rows of a family, `families.rows` looked up at each
    call, so a test that patches it reaches every reference and route that
    reads the engine."""
    return lambda nmax, **point: families.rows(family, point, nmax)


def _scaled(family):
    """(D, the production rows of a family as scaled ints), looked up likewise."""
    return lambda nmax, **point: families.scaled_rows(family, point, nmax)


def _sums(family):
    """The production row sums 0..nmax of a family, looked up likewise."""
    return lambda nmax, **point: [families.row_sum(family, point, n) for n in range(nmax + 1)]


def _solved(family):
    """(D, a family's scaled rows by its connection solve), called like `_scaled`."""
    return lambda nmax, **point: basis.scaled_solve(family, point, nmax)


def _signed(table):
    """A function like `_scaled`'s with its entries signed by (-1)^(n-k)."""

    def signed(nmax, **point):
        scale, rows = table(nmax, **point)
        return scale, map(_SIGNS["(-1)^(n-k)"], count(), rows)

    return signed


# ---------------------------------------------------------------------------
# the reductions of the Hsu-Shiue pair


# The reductions of the Hsu-Shiue pair, each with the one sign convention it
# satisfies: (name, convention, engine family and parameters, the triple
# (alpha, beta, gamma), the routes it is compared with, the sign).  Routes
# "s1" are the solved s1; routes "L", of a Lah-type reduction, the signed
# product of the solved s2 and s1 and the engine's `hs-lah`.
SPECIALIZATIONS = (
    ("whitney-first", "w(n,k) = S(n,k; beta, 0, -1) as printed",
     "whitney1", {"alpha": 3}, (3, 0, -1), "s1", "as printed"),
    ("whitney-second", "W(n,k) = S(n,k; 0, beta, 1) as printed",
     "whitney2", {"alpha": 3}, (0, 3, 1), "s1", "as printed"),
    ("whitney-lah", "L^W(n,k) = L(n,k; 0, beta, 1) as printed",
     "whitney-lah", {"alpha": 3}, (0, 3, 1), "L", "as printed"),
    ("r-stirling-first", "A(n,k) = (-1)^(n-k) S(n,k; 1, 0, -r)",
     "r-stirling1", {"r": 2}, (1, 0, -2), "s1", "(-1)^(n-k)"),
    ("r-stirling-second", "S(n,k) = S(n,k; 0, 1, r) as printed",
     "r-stirling2", {"r": 2}, (0, 1, 2), "s1", "as printed"),
    ("r-lah", "L(n,k) = (-1)^n L(n,k; 0, 1, r) as printed",
     "r-lah", {"r": 2}, (0, 1, 2), "L", "(-1)^n"),
    ("r-whitney-first", "w(n,k) = (-1)^(n-k) S(n,k; m, 0, -r) as printed",
     "r-whitney1", {"m": 2, "r": 2}, (2, 0, -2), "s1", "(-1)^(n-k)"),
    ("r-whitney-second", "W(n,k) = S(n,k; 0, m, r) as printed",
     "r-whitney2", {"m": 2, "r": 2}, (0, 2, 2), "s1", "as printed"),
    ("r-whitney-lah", "L(n,k) = (-1)^n L(n,k; 0, m, r) as printed",
     "r-whitney-lah", {"m": 2, "r": 2}, (0, 2, 2), "L", "(-1)^n"),
    ("cakic", "c(n,k) = S(n,k; +alpha, 1, 0); the printed reduction negates alpha",
     "cakic", {"alpha": 2}, (2, 1, 0), "s1", "as printed"),
)


class Reductions(namedtuple("Reductions", ("triple", "cases"))):
    """The rows `cases` of `SPECIALIZATIONS` at one `triple`: hs1 and hs2
    are solved there once by `basis.scaled_solve`, each case's engine table
    is compared with its routes over them as a `Tables`, and then the
    solved pair must be mutually inverse as an `Inverse`."""

    __slots__ = ()

    def __call__(self, nmax):
        point = dict(zip(families._HS, self.triple))
        (scale, s1), (_, s2) = pair = [basis.scaled_solve(kind, point, nmax) for kind in ("hs1", "hs2")]
        routes = {
            "s1": ((lambda nmax: families._read_off(s1, scale), 0),),
            "L": (
                (lambda nmax: product(families._read_off(s2, scale), families._read_off(s1, scale), signed=True), 0),
                (partial(_rows("hs-lah"), **point), 0),
            ),
        }
        checks = (
            *(
                Tables(partial(_rows(family), **params), routes[kind], sign, name)
                for name, _, family, params, _, kind, sign in self.cases
            ),
            Inverse(lambda nmax: pair[0], lambda nmax: pair[1], f"solved pair at {self.triple}"),
        )
        return [item for check in checks for item in check(nmax)]


# `SPECIALIZATIONS` by triple, in the order the triples first appear.
_REDUCTIONS = tuple(
    Reductions(triple, tuple(case for case in SPECIALIZATIONS if case[4] == triple))
    for triple in dict.fromkeys(case[4] for case in SPECIALIZATIONS)
)


# ---------------------------------------------------------------------------
# the verification routes that only the registry runs


def vertical_rows(lower, nmax: int, c: int, h: int, sign: int):
    """Yield rows 0..nmax of the column-wise expansion of a Lah-type triangle,

        T(n,k) = sum_{i=0}^{n-k} sign^(i+1) (x|h)_i T(n-1-i, k-1),  x = c + (n-1+k)h,

    with the step-h falling factorial (x|h)_i = x(x-h)...(x-(i-1)h) kept as
    a running product, all from `lower`, the rows 0..nmax-1 of T.  Column 0
    below row 0 is the empty sum 0."""
    yield (1,)
    for n in range(1, nmax + 1):
        row = [0]
        for k in range(1, n + 1):
            x, total, factor = c + (n - 1 + k) * h, 0, sign
            for i in range(n - k + 1):
                total += factor * lower[n - 1 - i][k - 1]
                factor *= sign * (x - i * h)
            row.append(total)
        yield tuple(row)


def horizontal_rows(upper, nmax: int, c: int, h: int, sign: int):
    """Yield rows 0..nmax of the row-wise expansion of a Lah-type triangle
    from the row below,

        T(n,k) = sum_{i=0}^{n-k} sign (-1)^i [x|h]_i T(n+1, k+i+1),  x = c + (n+k+1)h,

    with the step-h rising factorial [x|h]_i = x(x+h)...(x+(i-1)h) kept as a
    running product.  Row n reads only row n+1 of `upper`, rows 0..nmax+1."""
    for n, below in enumerate(islice(upper, 1, nmax + 2)):
        row = []
        for k in range(n + 1):
            x, total, factor = c + (n + k + 1) * h, 0, sign
            for i in range(n - k + 1):
                total += factor * below[k + i + 1]
                factor *= -(x + i * h)
            row.append(total)
        yield tuple(row)


# The four Lah-type families.  Each is the r-Whitney-Lah triangle at one
# (m, r), times (-1)^n where its sign is -1, and the product of a first- and
# a second-kind table, signed likewise: (m, r) as a function of the validated
# parameters, the sign, and the two kinds, each called as fn(nmax, **params)
# and returning (1, rows), as `_scaled` and `_solved` do at integer points.
LahType = namedtuple("LahType", ("mr", "sign", "first", "second"))
LAH_TYPES = {
    "lah": LahType(lambda p: (1, 0), -1, _solved("stirling1"), _scaled("stirling2")),
    "whitney-lah": LahType(lambda p: (p["alpha"], 1), -1, _solved("whitney1"), _scaled("whitney2")),
    "r-lah": LahType(lambda p: (1, p["r"]), 1, _scaled("r-stirling1"), _scaled("r-stirling2")),
    "r-whitney-lah": LahType(lambda p: (p["m"], p["r"]), 1, _solved("r-whitney1"), _solved("r-whitney2")),
}


def lah_route(kind, family, nmax, **point):
    """Rows 0..nmax of a `LAH_TYPES` family by its "explicit", "vertical",
    "horizontal" or "product" route, its parameters validated with
    `families.check_param` at the call, as an iterator.  The explicit route
    is the closed form sign^n C(n,k) [2r|m]_n / [2r|m]_k of
    `triangles.explicit_row`.  The expansions `vertical_rows` and
    `horizontal_rows` run over the family's own engine rows, 0..nmax-1 held
    below and 0..nmax+1 streamed above; column 0 of the vertical route reads
    0 below row 0."""
    mr, sign, first, second = LAH_TYPES[family]
    params = {key: families.check_param(key, value) for key, value in point.items()}
    m, r = mr(params)
    if kind == "explicit":
        return (tuple(sign**n * v for v in explicit_row(n, 2 * r, m)) for n in range(nmax + 1))
    if kind == "vertical":
        return vertical_rows(tuple(families.rows(family, params, max(nmax - 1, 0))), nmax, 2 * r, m, sign)
    if kind == "horizontal":
        return horizontal_rows(families.rows(family, params, nmax + 1), nmax, 2 * r, m, sign)
    if kind == "product":
        (_, first), (_, second) = first(nmax, **params), second(nmax, **params)
        return product(first, second, signed=sign == -1)
    raise ValueError(f"unknown Lah-type route {kind!r}")


def partial_bell_rows(nmax: int, x) -> tuple:
    """Rows 0..nmax of the partial Bell polynomials B(n,k) at x_i = x(i),
    i >= 1, by the size i of the block that holds the first element:
    B(0,0) = 1, B(n,0) = 0 for n >= 1, and

        B(n,k) = sum_{i=1}^{n-k+1} C(n-1,i-1) x_i B(n-i,k-1),

    in O(nmax^3) operations on ints; it shares no code with the engine."""
    xs, rows = [x(i) for i in range(1, nmax + 1)], [(1,)]
    for n in range(1, nmax + 1):
        weights = [math.comb(n - 1, i) * xs[i] for i in range(n)]
        rows.append(
            (0, *(sum(weights[i] * rows[n - 1 - i][k - 1] for i in range(n - k + 1)) for k in range(1, n + 1)))
        )
    return tuple(rows)


def whitney_second_benoumhani_rows(nmax: int, alpha) -> tuple:
    """Second-kind Whitney rows as Benoumhani's binomial sums over the
    Stirling rows, W(n,k) = sum_i C(n,i) alpha^(i-k) S(i,k), on ints.  The
    `whitney2` reference it is compared with validates alpha first."""
    alpha, s2 = as_integer(alpha), tuple(families.rows("stirling2", {}, nmax))
    return tuple(
        tuple(
            sum(math.comb(n, i) * alpha ** (i - k) * s2[i][k] for i in range(k, n + 1))
            for k in range(n + 1)
        )
        for n in range(nmax + 1)
    )


def verify_log_concavity(row) -> bool:
    """True iff a row of the r-Whitney-Lah triangle is strictly log-concave,
    L(n,k-1)*L(n,k+1) < L(n,k)^2, and unimodal."""
    n = len(row) - 1
    if n < 2:
        raise ValueError("log-concavity needs a row with interior entries")
    peak = max(range(n + 1), key=row.__getitem__)
    return (
        all(row[k - 1] * row[k + 1] < row[k] ** 2 for k in range(1, n))
        and all(row[k] <= row[k + 1] for k in range(peak))
        and all(row[k] >= row[k + 1] for k in range(peak, n))
    )


def _log_concave(nmax, m, r):
    """The verdict "log-concave" for rows 2..nmax; rows 0 and 1 have no
    interior entry and compare as empty rows."""
    return (("log-concave",) if n > 1 else () for n in range(nmax + 1))


def _verdicts(nmax, m, r):
    """Each r-Whitney-Lah row's verdict by `verify_log_concavity`, over one
    stream of the rows 0..nmax, those without an interior entry empty."""
    for row in families.rows("r-whitney-lah", {"m": m, "r": r}, nmax):
        yield ("log-concave" if verify_log_concavity(row) else "mismatch",) if len(row) > 2 else ()


def _counted(family, ordered, top, sign="as printed", r=0) -> tuple:
    """The cases of a family that stop at row min(nmax, `top`): its
    production rows against `oracle.count_partitions(n + r, k + r, r,
    ordered)`, the brute-force counts of partitions of n + r elements into
    k + r blocks, `ordered` or not, the first r elements apart, and
    unordered, its row sums against `oracle.count_all_partitions(n + r, r)`,
    the counts of all of them."""
    point, last = {"r": r} if r else {}, partial(min, top)

    def counts(nmax):
        return (
            tuple(oracle.count_partitions(n + r, k + r, r, ordered) for k in range(n + 1))
            for n in range(last(nmax) + 1)
        )

    rows = Tables(lambda nmax: _rows(family)(last(nmax), **point), ((counts, 0),), sign)
    if ordered:
        return (rows,)
    return rows, _sequences(
        lambda nmax: _sums(family)(last(nmax), **point),
        lambda nmax: [oracle.count_all_partitions(n + r, r) for n in range(last(nmax) + 1)],
    )


# Brute-force partition counts against the production families and their row
# sums; the ordered-block counts are the signless Lah numbers (-1)^n L(n,k).
# The enumeration stops at its size guard, 12 elements, so `stirling2` and the
# Bell numbers stop at n = 12, `lah` at 9 and the r-families at min(11 - r, 9).
_ORACLE = (
    *_counted("stirling2", False, oracle.SIZE_GUARD),
    *_counted("lah", True, 9, "(-1)^n"),
    *(
        case
        for r in (1, 2, 3)
        for family, ordered in (("r-stirling2", False), ("r-lah", True))
        for case in _counted(family, ordered, min(11 - r, 9), r=r)
    ),
)


# ---------------------------------------------------------------------------
# the registry


_IDENTITY_FIELDS = (
    "name",
    "defaults",  # nmax and the parameters a caller may set, in report order
    "check",  # a shape, or a tuple of shapes
    "grid",  # default points of the parameter group, if any
    "fixed",  # parameters a caller may not set, or functions of nmax
    "needs_oracle",
    "notes",  # what the report records of the check, if anything
)


class Identity(namedtuple("Identity", _IDENTITY_FIELDS, defaults=((), MappingProxyType({}), False, None))):
    __slots__ = ()

    @property
    def accepts(self) -> tuple:
        """The parameters a caller may set."""
        return tuple(self.grid[0] if self.grid else (key for key in self.defaults if key != "nmax"))


def _lah_routes(family, **columns) -> tuple:
    """The `lah_route`s of a family by kind, each with the first column it
    is compared from, in the order given."""
    return tuple((partial(lah_route, kind, family), kmin) for kind, kmin in columns.items())


def _times_factorial(rows, width):
    """Rows of k! T(n,k), k < width, from rows of T(n,k), 0 where k > n."""
    return (tuple(math.factorial(k) * v for k, v in enumerate((*row, *[0] * width)[:width])) for row in rows)


_HS_GRID = tuple(
    {"alpha": a, "beta": b, "gamma": g}
    for a, b, g in ((0, 1, 2), (0, 2, 2), (1, 0, 0), (Fraction(1, 2), Fraction(1, 3), 2))
)
_MR_GRID = ({"m": 1, "r": 1}, {"m": 2, "r": 2}, {"m": 3, "r": 1})
_W = {"nmax": 12, "alpha": 3}
_R = {"nmax": 10, "r": 2}
_RW = {"nmax": 12, "m": 2, "r": 2}
_LAH = _rows("lah")
_W_LAH = _rows("whitney-lah")
_RW_LAH = _rows("r-whitney-lah")
_W_LAH_SQUARE = Inverse(_scaled("whitney-lah"), _scaled("whitney-lah"))  # its own inverse
_R_WHITNEY_PAIR = Inverse(_signed(_solved("r-whitney1")), _scaled("r-whitney2"))
# The partial Bell reductions: (engine family, x_i, the sign taking B(n,k) to it).
_PARTIAL_BELL = tuple(
    Tables(_rows(family), ((partial(partial_bell_rows, x=x), 0),), sign, family)
    for family, x, sign in (
        ("stirling2", lambda i: 1, "as printed"),
        ("lah", math.factorial, "(-1)^n"),
        ("stirling1", lambda i: math.factorial(i - 1), "(-1)^(n-k)"),
    )
)
# W(n,k) = S(n+1,k+1) at alpha = 1, so the row sums are the Bell numbers B(n+1).
_BELL_REDUCTION = (
    Tables(
        lambda nmax: (row[1:] for row in islice(families.rows("stirling2", {}, nmax + 1), 1, None)),
        ((partial(_rows("whitney2"), alpha=1), 0),),
    ),
    _sequences(lambda nmax: _sums("stirling2")(nmax + 1)[1:], partial(_sums("whitney2"), alpha=1)),
)
# The engine's w1 W2 at alpha and (-1)^(n-k) r-w1 times r-W2 at (m, r).
_ENGINE_ORTHO = (
    Inverse(_scaled("whitney1"), _scaled("whitney2"), "whitney1"),
    Inverse(_signed(_scaled("r-whitney1")), _scaled("r-whitney2"), "r-whitney1"),
)
# The EGF powers k <= kmax (Lah) and k <= nmax (r-Stirling) by `basis.egf_rows` against k! T(n,k).
_LGF = Tables(
    lambda nmax, kmax: _times_factorial(families.rows("lah", {}, nmax), min(kmax, nmax) + 1),
    ((lambda nmax, kmax: basis.egf_rows("lah", {}, nmax, kmax), 0),),
)
_WEIGHTED_EGF = Tables(
    lambda nmax, r, order: _times_factorial(families.rows("r-stirling2", {"r": r}, nmax), nmax + 1),
    ((lambda nmax, r, order: basis.egf_rows("r-stirling2", {"r": r}, nmax), 0),),
)
_PARTIAL_BELL_NOTES = "B(n,k) at x_i = 1, i!, (i-1)! against S(n,k), (-1)^n L(n,k), (-1)^(n-k) s(n,k)"
_BELL_REDUCTION_NOTES = "unit-step Dowling numbers against shifted Bell/Stirling values"
_HORILAH = "angle-bracket weights resolved as the ascending product x(x+1)...(x+i-1)"
_TRIWLAH = "vertical, horizontal and product routes against the triangular recurrence"
_RWLAH = "explicit, product, vertical and horizontal routes against the recurrence"
_LOG_CONCAVE = "product-form strict log-concavity; the sum form is implied at these sizes"
_CONVENTIONS = "; ".join(f"{name}: {convention}" for name, convention, *_ in SPECIALIZATIONS)

REGISTRY = {
    ident.name: ident
    for ident in (
        Identity("lef", {"nmax": 30}, Tables(_LAH, _lah_routes("lah", explicit=0))),
        Identity("verlah", {"nmax": 20}, Tables(_LAH, _lah_routes("lah", vertical=0))),
        Identity("horilah", {"nmax": 20}, Tables(_LAH, _lah_routes("lah", horizontal=0)), notes=_HORILAH),
        Identity("lgf", {"nmax": 20}, _LGF, fixed={"kmax": 5}),
        Identity("qi", {"nmax": 25}, _sequences(_sums("stirling2"), _explicit("bell"))),
        Identity("ordlahstirling", {"nmax": 15}, Tables(_LAH, _lah_routes("lah", product=0))),
        Identity("stirling-inverse", {"nmax": 9}, Inverse(_scaled("stirling2"), _scaled("stirling1"))),
        Identity("partial-bell", {"nmax": 10}, _PARTIAL_BELL, notes=_PARTIAL_BELL_NOTES),
        Identity("ortho", {"nmax": 12, "alpha": 3}, _W_LAH_SQUARE),
        Identity("inv1", {"nmax": 9, "alpha": 3}, _W_LAH_SQUARE),
        Identity("wla1", _W, Tables(_W_LAH, _lah_routes("whitney-lah", explicit=0, product=0))),
        Identity(
            "triwlah",
            {"nmax": 15, "alpha": 3},
            Tables(_W_LAH, _lah_routes("whitney-lah", vertical=1, horizontal=0, product=0)),
            notes=_TRIWLAH,
        ),
        Identity("whitney-ortho", _W, Inverse(_solved("whitney1"), _scaled("whitney2"))),
        Identity(
            "benoumhani",
            {"nmax": 15, "alpha": 3},
            Tables(_rows("whitney2"), ((whitney_second_benoumhani_rows, 0),)),
        ),
        Identity("dow1", {"nmax": 10, "alpha": 3}, _sequences(_sums("whitney2"), _explicit("dowling"))),
        Identity("bell-reduction", {"nmax": 12}, _BELL_REDUCTION, notes=_BELL_REDUCTION_NOTES),
        Identity("lah1", _R, Tables(_rows("r-lah"), _lah_routes("r-lah", explicit=0, product=0))),
        Identity("lah4", {"nmax": 7, "r": 2}, Inverse(_scaled("r-stirling1"), _signed(_scaled("r-stirling2")))),
        Identity("expb", _R, _sequences(_sums("r-stirling2"), _explicit("r-bell"))),
        Identity(
            "weighted-egf",
            {"nmax": 12, "r": 2},
            _WEIGHTED_EGF,
            fixed={"order": partial(max, 12)},  # read by no route; its report bytes are pinned
        ),
        Identity("rw-ortho", {"nmax": 8, "m": 2, "r": 2}, _R_WHITNEY_PAIR),
        Identity("rw-inv", {"nmax": 7, "m": 2, "r": 2}, _R_WHITNEY_PAIR),
        Identity("engine-ortho", {"nmax": 12, "alpha": 3, "m": 2, "r": 2}, _ENGINE_ORTHO),
        Identity("rwhitneylah", _RW, Tables(_RW_LAH, _lah_routes("r-whitney-lah", product=0))),
        Identity("exprwlah", _RW, Tables(_RW_LAH, _lah_routes("r-whitney-lah", explicit=0))),
        Identity(
            "rwlah-routes",
            _RW,
            Tables(_RW_LAH, _lah_routes("r-whitney-lah", explicit=0, product=0, vertical=1, horizontal=0)),
            notes=_RWLAH,
        ),
        Identity("expl-rdow", _RW, _sequences(_sums("r-whitney2"), _explicit("r-dowling"))),
        Identity("ugexp", {"nmax": 10}, _sequences(_sums("hs1"), _explicit("hs-bell")), _HS_GRID),
        Identity("cakic-bell", {"nmax": 10, "alpha": 2}, _sequences(_sums("cakic"), _explicit("cakic-bell"))),
        Identity("hs-ortho", {"nmax": 8}, Inverse(_scaled("hs1"), _solved("hs2")), _HS_GRID),
        Identity("invrel", {"nmax": 9}, Inverse(_solved("hs1"), _scaled("hs2")), _HS_GRID),
        Identity("log-concavity", {"nmax": 20}, Tables(_log_concave, ((_verdicts, 0),)), _MR_GRID, notes=_LOG_CONCAVE),
        Identity("specializations", {"nmax": 6}, _REDUCTIONS, notes=_CONVENTIONS),
        Identity("oracle", {"nmax": 8}, _ORACLE, needs_oracle=True),
    )
}


# ---------------------------------------------------------------------------
# the paper's reference tables and worked checks


def _printed(family, params, rows, label=None):
    """The printed `rows` against a family's production rows at `params`."""
    return Tables(lambda nmax: rows, ((partial(_rows(family), **params), 0),), label=label)


def _column(terms, route):
    """The printed `terms` at n = 0.. against route(nmax), as `_sequences`."""
    return _sequences(lambda nmax: terms, route)


def _worked(value, route):
    """A worked check: `value` against route(nmax), a one-entry sequence."""
    return _column((value,), lambda nmax: (route(nmax),))


def _explicit_at(name, **params):
    """The sum `name` of `families.SUMS` at n by `families.explicit_sum`."""
    return lambda n: families.explicit_sum(name, params, n)


# Whitney-Lah rows 0..3 as printed: each entry a polynomial in alpha, by its
# coefficients.  Its degree is at most 3, so agreement at alpha = 1..4 pins it.
_WHITNEY_LAH_POLYS = (
    ((1,),),
    ((-2,), (-1,)),
    ((4, 2), (4, 2), (1,)),
    ((-8, -12, -4), (-12, -18, -6), (-6, -6), (-1,)),
)


def _whitney_lah_at(alpha):
    """The printed Whitney-Lah rows at one step against the production rows."""
    rows = tuple(tuple(sum(c * alpha**i for i, c in enumerate(p)) for p in row) for row in _WHITNEY_LAH_POLYS)
    return _printed("whitney-lah", {"alpha": alpha}, rows, f"alpha={alpha}")


# What `dowling paper-tables` checks, in the order it prints them: (label,
# nmax, cases), each case a shape called at nmax against the printed values.
PAPER_TABLES = (
    ("whitney-lah rows 0..3, symbolic step (4 points + interpolation)", 3, tuple(map(_whitney_lah_at, (1, 2, 3, 4)))),
    ("whitney2 alpha=3 rows 0..3", 3, (_printed("whitney2", {"alpha": 3}, ((1,), (1, 1), (1, 5, 1), (1, 21, 12, 1))),)),
    ("dowling alpha=3 column", 3, (_column((1, 2, 7, 35), partial(_sums("whitney2"), alpha=3)),)),
    ("r-lah r=2 rows 0..5", 5, (_printed("r-lah", {"r": 2}, (
        (1,), (4, 1), (20, 10, 1), (120, 90, 18, 1), (840, 840, 252, 28, 1), (6720, 8400, 3360, 560, 40, 1))),)),
    ("r-stirling2 r=2 rows 0..5", 5, (_printed("r-stirling2", {"r": 2}, (
        (1,), (2, 1), (4, 5, 1), (8, 19, 9, 1), (16, 65, 55, 14, 1), (32, 211, 285, 125, 20, 1))),)),
    ("r-bell r=2 column", 5, (_column((1, 3, 10, 37, 151, 674), partial(_sums("r-stirling2"), r=2)),)),
    ("r-whitney2 m=2 r=2 rows 0..4", 4, (_printed("r-whitney2", {"m": 2, "r": 2}, (
        (1,), (2, 1), (4, 6, 1), (8, 28, 12, 1), (16, 120, 100, 20, 1))),)),
    ("r-dowling m=2 r=2 column", 4, (_column((1, 3, 11, 49, 257), partial(_sums("r-whitney2"), m=2, r=2)),)),
    ("r-whitney-lah m=2 r=2 rows 0..4", 4, (_printed("r-whitney-lah", {"m": 2, "r": 2}, (
        (1,), (4, 1), (24, 12, 1), (192, 144, 24, 1), (1920, 1920, 480, 40, 1))),)),
    ("r-whitney-lah m=2 r=2 row sums", 4, (_column((1, 5, 37, 361, 4361), partial(_sums("r-whitney-lah"), m=2, r=2)),)),
    ("worked check: dowling-explicit(3, alpha=3) = 35", 3, (_worked(35, _explicit_at("dowling", alpha=3)),)),
    ("worked check: bell(4) = 15 via unit-step dowling", 3, (
        _worked(15, lambda n: families.row_sum("stirling2", {}, n + 1)),
        _worked(15, lambda n: families.row_sum("whitney2", {"alpha": 1}, n)))),
    ("worked check: r-bell-explicit(3, r=2) = 37", 3, (_worked(37, _explicit_at("r-bell", r=2)),)),
    ("worked check: r-dowling-explicit(4, m=2, r=2) = 257", 4, (_worked(257, _explicit_at("r-dowling", m=2, r=2)),)),
)

# ---------------------------------------------------------------------------
# running


def taken(ident: Identity, given: dict) -> dict:
    """The parameters among `given` that `ident` takes when every identity
    runs at once: those it declares, and a grid group only when whole."""
    mine = {key: value for key, value in given.items() if key in ident.accepts}
    return mine if not ident.grid or len(mine) == len(ident.accepts) else {}


def report(ident: Identity, given: dict | None = None, nmax: int | None = None) -> dict:
    """Run one identity and return its verification report: the failures of
    its check, case by case where it is a tuple of shapes, at each point.

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
    cases = (ident.check,) if callable(ident.check) else ident.check
    failures = []
    for point in points:
        bad = [item for case in cases for item in case(nmax, **point)]
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
    if ident.notes:
        out["notes"] = ident.notes
    return out
