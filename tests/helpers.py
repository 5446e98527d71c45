"""Small helpers that several test modules share: tables as plain rows, a
Hsu-Shiue triple as parameters, and rows read off the connection solve."""

from dowling import basis, families


def named(params) -> dict:
    """A Hsu-Shiue triple as the family table's parameters."""
    return dict(zip(("alpha", "beta", "gamma"), params))


def identity_rows(nmax: int) -> tuple:
    return tuple(tuple(int(n == k) for k in range(n + 1)) for n in range(nmax + 1))


def transform(rows, seq) -> list:
    """f(n) = sum_k T(n,k) seq(k)."""
    return [sum(v * seq[k] for k, v in enumerate(row)) for row in rows]


def solved(family, params, nmax) -> tuple:
    """Rows 0..nmax of T(n,k) = U(n,k) / D^(n-k) read off the integer
    connection solve: ints, or exact rationals where the parameters have
    denominators."""
    scale, rows = basis.scaled_solve(family, params, nmax)
    return tuple(families._read_off(rows, scale))
