"""An oracle that shares no code with this package: sampled entries of the
CLI's triangles up to n = 200, and Bell numbers from two sums, against
sympy's own Stirling, Bell, binomial and factorial functions.  Skipped
where sympy is not installed."""

import random

import pytest

pytest.importorskip("sympy")

from sympy import bell, binomial, factorial  # noqa: E402
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

from dowling.cli import main  # noqa: E402

NMAX = 200


def _signed_stirling1(n, k):
    return stirling(n, k, kind=1, signed=True)


def _lah(n, k):
    """Signed Lah number (-1)^n C(n-1, k-1) n!/k!, with L(0,0) = 1."""
    if n == 0:
        return int(k == 0)
    return (-1) ** n * binomial(n - 1, k - 1) * factorial(n) / factorial(k)


# family: (its parameters on the command line, the sympy oracle)
ORACLES = {
    "stirling1": ((), _signed_stirling1),
    "stirling2": ((), lambda n, k: stirling(n, k, kind=2)),
    "lah": ((), _lah),
    # s1 at (1, 0, 0) has the weight -(n-1): the signed Stirling numbers of the first kind.
    "hs1": (("--alpha", "1", "--beta", "0", "--gamma", "0"), _signed_stirling1),
}


def _samples() -> list:
    """The corners of the triangle and 40 seeded random entries."""
    rng = random.Random(NMAX)
    corners = [(0, 0), (1, 0), (1, 1), (NMAX, 0), (NMAX, 1), (NMAX, NMAX // 2), (NMAX, NMAX - 1), (NMAX, NMAX)]
    return corners + [(n, rng.randint(0, n)) for n in rng.sample(range(NMAX + 1), 40)]


def _cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("family", sorted(ORACLES))
def test_sampled_entries_match_sympy(capsys, family):
    params, oracle = ORACLES[family]
    out = _cli(capsys, "triangle", "--family", family, "--nmax", str(NMAX), "--format", "csv", *params)
    header, *lines = out.splitlines()
    assert header == "n,k,value" and len(lines) == (NMAX + 1) * (NMAX + 2) // 2
    entries = {}
    for line in lines:
        n, k, value = line.split(",")
        entries[int(n), int(k)] = value
    for n, k in _samples():
        assert entries[n, k] == str(oracle(n, k)), (n, k)


@pytest.mark.parametrize("family, n", (("bell", 200), ("qi-bell", 120), ("bell", 1000), ("qi-bell", 1000)))
def test_bell_sums_match_sympy(capsys, family, n):
    assert _cli(capsys, "sum", "--family", family, "--n", str(n)) == f"{bell(n)}\n"
