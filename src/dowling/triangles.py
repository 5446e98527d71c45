"""The exact lower-triangular table every number family is stored in, the
one recurrence engine that builds integer tables, the paper's alternating
Lah/Stirling sum and the triangular matrix product over streamed rows, the
whole-table transform, and the closed-form Lah-type row of the verification
routes."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain, count

from .exactmath import as_integer

_EXACT = {int, Fraction}


class Triangle(namedtuple("Triangle", ("rows", "family", "params"))):
    """Immutable lower-triangular table of exact entries (ints or Fractions,
    stored as given) indexed (n, k) with 0 <= k <= n <= nmax: the connection
    coefficients between two graded bases, optionally named by the family
    and parameters they belong to.

    Entries outside that range read as zero; rows beyond nmax are an error
    because the table simply does not know them.

    A named tuple rather than a dataclass, like `families.Family`: importing
    `dataclasses`, and with it `inspect`, costs every CLI call about 12 ms.
    Every construction, `_replace` included, runs `__post_init__`, which the
    per-layer tracer in `perfbench` wraps by name.
    """

    __slots__ = ()

    def __new__(cls, rows, family: str = "", params: dict | None = None):
        self = super().__new__(cls, tuple(map(tuple, rows)), family, {} if params is None else params)
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __post_init__(self):
        rows = self.rows
        if not set(map(type, chain.from_iterable(rows))) <= _EXACT:
            bad = next(v for v in chain.from_iterable(rows) if type(v) not in _EXACT)
            raise TypeError(f"triangle entries must be ints or Fractions, got {bad!r}")
        for n, row in enumerate(rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} has {len(row)} entries, expected {n + 1}")

    @property
    def nmax(self) -> int:
        return len(self.rows) - 1

    def value(self, n: int, k: int):
        if n < 0 or k < 0 or k > n:
            return 0
        if n > self.nmax:
            raise IndexError(f"row {n} beyond nmax={self.nmax}")
        return self.rows[n][k]

    def row(self, n: int) -> tuple:
        return self.rows[n]

    def mul(self, other: "Triangle") -> "Triangle":
        """Triangular matrix product: out(n,m) = sum_j self(n,j) * other(j,m)."""
        if self.nmax != other.nmax:
            raise ValueError("matrix sizes differ")
        return Triangle(product(self.rows, other.rows))

    def is_identity(self) -> bool:
        return all(v == (n == k) for n, row in enumerate(self.rows) for k, v in enumerate(row))

    def transform(self, seq) -> list:
        """Apply as a lower-triangular matrix to a (short enough) sequence."""
        return transform(self, seq)

    def to_triangle(self, family: str, params: dict | None = None) -> "Triangle":
        """The same entries as ints under a family name; raises
        IntegralityError on any denominator."""
        rows = tuple(tuple(map(as_integer, row)) for row in self.rows)
        return Triangle(rows, family, dict(params or {}))


def recurrence_rows(nmax: int, d: int, a: int, b: int, c: int, one=1):
    """Yield rows 0..nmax, as tuples, of the triangle with T(0,0) = 1 and

        T(n,k) = d*T(n-1,k-1) + (a*n + b*k + c)*T(n-1,k),    d = +1 or -1,

    where n is the index of the row being built and terms falling outside
    the triangle contribute nothing.  Each row is built from the previous
    one alone, so a caller that keeps only the latest row needs O(nmax)
    memory.  The entries have the type of `one`: Python ints by default, or
    `decimal.Decimal(1)` for rows that print in time linear in their digits
    (exact only in a context that never rounds).
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    if d not in (1, -1):
        raise ValueError(f"the diagonal weight must be 1 or -1, got {d!r}")
    row = (one,)
    yield row
    for n in range(1, nmax + 1):
        w = a * n + c
        # zip stops at the shorter operand: the weights of k = 1..n-1.
        weights = count(one * (w + b), one * b)
        if d == 1:
            inner = [p + x * q for x, p, q in zip(weights, row, row[1:])]
        else:
            inner = [x * q - p for x, p, q in zip(weights, row, row[1:])]
        row = (w * row[0], *inner, d * row[-1])
        yield row


def recurrence_triangle(
    family: str, params: dict, nmax: int, d: int, a: int, b: int, c: int
) -> Triangle:
    """The whole triangle of `recurrence_rows` up to row nmax."""
    return Triangle(tuple(recurrence_rows(nmax, d, a, b, c)), family, params)


def alternating_sums(second_rows, lah_rows, sign: int = 1):
    """Yield (-1)^n sum_k W(n,k) sign^k [sum_j L(k,j)] for each row W(n,.) in
    `second_rows`, the paper's sum for a Bell-type number; it keeps the row
    sums of L alone, read from `lah_rows` as far as the widest row so far."""
    lah_rows, sums = iter(lah_rows), []
    for row in second_rows:
        while len(sums) < len(row):
            sums.append(sign ** len(sums) * sum(next(lah_rows)))
        total = sum(v * s for v, s in zip(row, sums))
        yield total if len(row) % 2 else -total


def product(first, second, signed: bool = False):
    """Yield the rows of the triangular matrix product sum_j first(n,j)
    second(j,k), with the terms of odd j negated when `signed`, for each row
    of `first`; `second` is read as far as the widest row so far."""
    second, seen = iter(second), []
    for row in first:
        while len(seen) < len(row):
            seen.append(next(second))
        if signed:
            row = [-v if j % 2 else v for j, v in enumerate(row)]
        n = len(row) - 1
        yield tuple(sum(row[j] * seen[j][k] for j in range(k, n + 1)) for k in range(n + 1))


# ---------------------------------------------------------------------------
# whole-table algorithms over prebuilt rows


def transform(table, seq) -> list:
    """Apply a lower-triangular table as a matrix to a sequence no longer
    than the table."""
    seq = list(seq)
    rows = table.rows
    if len(seq) > len(rows):
        raise ValueError("sequence longer than the table")
    return [sum(v * s for v, s in zip(rows[n], seq)) for n in range(len(seq))]


def explicit_row(n: int, c: int, h: int) -> tuple:
    """Row n of the closed form of a Lah-type triangle,

        T(n,k) = C(n,k) prod_{i=k}^{n-1} (c + i*h),

    the quotient C(n,k) [c|h]_n / [c|h]_k telescoped, so that it has no 0/0
    where a factor c + i*h vanishes.  It is walked from T(n,n) = 1 down,
    T(n,k) = T(n,k+1) (k+1)(c + k*h) / (n-k), each division asserted exact."""
    entry, row = 1, [1]
    for k in range(n - 1, -1, -1):
        entry, remainder = divmod(entry * (k + 1) * (c + k * h), n - k)
        if remainder:
            raise AssertionError("explicit Lah-type row failed to divide by n - k")
        row.append(entry)
    return tuple(reversed(row))
