"""Lower-triangular integer tables shared by every number family, and the
one recurrence engine that builds them."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count


@dataclass(frozen=True)
class Triangle:
    """Immutable table of integers indexed (n, k) with 0 <= k <= n <= nmax.

    Entries outside that range read as zero; rows beyond nmax are an error
    because the table simply does not know them.
    """

    family: str
    params: dict = field(default_factory=dict)
    nmax: int = 0
    rows: tuple = ((1,),)

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.nmax + 1:
            raise ValueError(f"expected {self.nmax + 1} rows, got {len(rows)}")
        for n, row in enumerate(rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} has {len(row)} entries, expected {n + 1}")

    def value(self, n: int, k: int) -> int:
        if n < 0 or k < 0 or k > n:
            return 0
        if n > self.nmax:
            raise IndexError(f"row {n} beyond nmax={self.nmax}")
        return self.rows[n][k]

    def row(self, n: int) -> tuple:
        return self.rows[n]

    def row_sum(self, n: int) -> int:
        return sum(self.rows[n])


def recurrence_rows(nmax: int, d: int, a: int, b: int, c: int):
    """Yield rows 0..nmax, as tuples, of the triangle with T(0,0) = 1 and

        T(n,k) = d*T(n-1,k-1) + (a*n + b*k + c)*T(n-1,k),    d = +1 or -1,

    where n is the index of the row being built and terms falling outside
    the triangle contribute nothing.  Each row is built from the previous
    one alone, so a caller that keeps only the latest row needs O(nmax)
    memory.  All arithmetic is on Python ints.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    if d not in (1, -1):
        raise ValueError(f"the diagonal weight must be 1 or -1, got {d!r}")
    row = (1,)
    yield row
    for n in range(1, nmax + 1):
        w = a * n + c
        # zip stops at the shorter operand: the weights of k = 1..n-1.
        weights = count(w + b, b)
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
    return Triangle(family, params, nmax, tuple(recurrence_rows(nmax, d, a, b, c)))


def recurrence_row(n: int, d: int, a: int, b: int, c: int) -> tuple:
    """Row n of `recurrence_rows` alone, keeping one row at a time."""
    return deque(recurrence_rows(n, d, a, b, c), maxlen=1)[0]


def transform(triangle: Triangle, seq) -> list:
    """Apply the triangle as a lower-triangular matrix to a sequence."""
    seq = list(seq)
    if len(seq) > triangle.nmax + 1:
        raise ValueError("sequence longer than the triangle")
    return [sum(triangle.value(n, k) * seq[k] for k in range(n + 1)) for n in range(len(seq))]
