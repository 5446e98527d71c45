"""The two-parameter-plus-shift Stirling pair of Hsu and Shiue, the Lah-type
numbers built from it, generalized Bell sums, Cakic numbers, and the
cross-module specialization report.

The pair (s1, s2) consists of the connection coefficients

    step-alpha factorial of t   =  sum_k s1(n,k) * step-beta factorial of (t - gamma)
    step-beta  factorial of t   =  sum_k s2(n,k) * step-alpha factorial of (t + gamma)

which are mutually inverse.  Specializing (alpha, beta, gamma) recovers every
other family in this package; `verify_specializations` checks those
reductions entrywise and records the sign conventions that actually hold
instead of trusting loose bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import basis, families, rnumbers, whitney
from .basis import CoeffMatrix, connection_matrix, factorial_basis


@dataclass(frozen=True)
class HSParams:
    """Step sizes alpha, beta and shift gamma, stored as exact rationals."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "gamma", Fraction(self.gamma))

    def as_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma}


@dataclass(frozen=True)
class HSPair:
    """The mutually inverse matrices s1 and s2 for one parameter triple."""

    s1: CoeffMatrix
    s2: CoeffMatrix
    params: HSParams
    nmax: int


def _coerce_params(params) -> HSParams:
    if isinstance(params, HSParams):
        return params
    return HSParams(*params)


def hs_pair(nmax: int, params) -> HSPair:
    """Both matrices of the pair for one parameter triple, from the scaled
    integer recurrences s1: k*beta - (n-1)*alpha + gamma and
    s2: k*alpha - (n-1)*beta - gamma.  Mutual inversion is asserted because it
    is the defining invariant of the pair."""
    p = _coerce_params(params)
    scale, u1, u2 = families.hs_scaled_pair(p.as_dict(), nmax)
    s1 = CoeffMatrix(families.read_off(u1, scale))
    s2 = CoeffMatrix(families.read_off(u2, scale))
    return HSPair(s1, s2, p, nmax)


def hs_pair_by_solve(nmax: int, params) -> HSPair:
    """Verification route: both connection matrices, solved exactly.

    Both target bases have unit leading scale, so they are always graded and
    the solve cannot degenerate.  Mutual inversion is asserted as in
    `hs_pair`.
    """
    p = _coerce_params(params)
    source1 = factorial_basis(1, 0, p.alpha, nmax)
    target1 = factorial_basis(1, -p.gamma, p.beta, nmax)
    source2 = factorial_basis(1, 0, p.beta, nmax)
    target2 = factorial_basis(1, p.gamma, p.alpha, nmax)
    s1 = connection_matrix(source1, target1)
    s2 = connection_matrix(source2, target2)
    if not s1.mul(s2).is_identity():
        raise AssertionError("connection pair failed to be mutually inverse")
    return HSPair(s1, s2, p, nmax)


def verify_hs_orthogonality(pair: HSPair) -> bool:
    """True iff s1 and s2 are mutually inverse in both product orders."""
    return basis.verify_orthogonality(pair.s1, pair.s2)


def hs_lah_matrix(nmax: int, params) -> CoeffMatrix:
    """Lah-type matrix L(n,j) = sum_k (-1)^k s2(n,k) s1(k,j), as the product
    of the two scaled integer recurrences."""
    return families.triangle("hs-lah", _coerce_params(params).as_dict(), nmax)


def hs_lah_matrix_by_solve(nmax: int, params) -> CoeffMatrix:
    """Verification route: the same product over the solved pair."""
    pair = hs_pair_by_solve(nmax, params)
    rows = []
    for n in range(nmax + 1):
        row = []
        for j in range(n + 1):
            total = Fraction(0)
            for k in range(j, n + 1):
                term = pair.s2.entry(n, k) * pair.s1.entry(k, j)
                total += -term if k % 2 else term
            row.append(total)
        rows.append(tuple(row))
    return CoeffMatrix(tuple(rows))


def hs_lah(n: int, j: int, params) -> Fraction:
    """Single Lah-type value; see hs_lah_matrix for the whole table."""
    if j < 0 or j > n:
        return Fraction(0)
    return hs_lah_matrix(n, params).entry(n, j)


def hs_bell(n: int, params) -> Fraction:
    """Generalized Bell number: row sum of s1."""
    return families.row_sum("hs1", _coerce_params(params).as_dict(), n)


def hs_bell_explicit(n: int, params) -> Fraction:
    """Generalized Bell number through the alternating Lah-type sum:
    W_n = (-1)^n sum_k [sum_j L(k,j)] s1(n,k), over the solved pair."""
    pair = hs_pair_by_solve(n, params)
    lah = hs_lah_matrix_by_solve(n, params)
    total = Fraction(0)
    for k in range(n + 1):
        inner = sum(lah.entry(k, j) for j in range(k + 1))
        total += inner * pair.s1.entry(n, k)
    return -total if n % 2 else total


def cakic(nmax: int, alpha) -> CoeffMatrix:
    """Cakic numbers: coefficients of the step-alpha factorial of x in the
    plain falling-factorial basis, i.e. the s1 matrix at (alpha, 1, 0)."""
    return families.triangle("cakic", {"alpha": alpha}, nmax)


def cakic_bell(n: int, alpha) -> Fraction:
    """Row sum of the Cakic triangle."""
    return families.row_sum("cakic", {"alpha": alpha}, n)


def cakic_bell_explicit(n: int, alpha) -> Fraction:
    """Cakic row sum through the alternating Lah-type route."""
    return hs_bell_explicit(n, HSParams(alpha, 1, 0))


@dataclass(frozen=True)
class SpecializationCheck:
    """Result of matching one cross-module reduction against candidates."""

    name: str
    params: dict
    convention: str
    passed: bool
    mismatches: tuple = ()

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "params": {key: str(value) for key, value in self.params.items()},
            "convention": self.convention,
            "pass": self.passed,
            "mismatches": [
                {"n": n, "k": k, "expected": str(e), "actual": str(a)}
                for n, k, e, a in self.mismatches
            ],
        }


@dataclass(frozen=True)
class SpecializationReport:
    nmax: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def as_dict(self) -> dict:
        return {
            "nmax": self.nmax,
            "pass": self.passed,
            "checks": [check.as_dict() for check in self.checks],
        }


def _match(name, params, nmax, expected, candidates) -> SpecializationCheck:
    """Try sign conventions in order; record the first that matches everywhere.

    `expected` and each candidate map (n, k) to a value.  If no candidate
    fits, the mismatches against the first (as-printed) candidate are kept so
    a failure is visible rather than silently corrected.
    """
    for label, candidate in candidates:
        bad = []
        for n in range(nmax + 1):
            for k in range(n + 1):
                want = expected(n, k)
                got = candidate(n, k)
                if want != got:
                    bad.append((n, k, want, got))
        if not bad:
            return SpecializationCheck(name, params, label, True)
    label, candidate = candidates[0]
    bad = tuple(
        (n, k, expected(n, k), candidate(n, k))
        for n in range(nmax + 1)
        for k in range(n + 1)
        if expected(n, k) != candidate(n, k)
    )
    return SpecializationCheck(name, params, f"no candidate matches (tried {label} first)", False, bad)


def verify_specializations(
    nmax: int, whitney_alpha: int = 3, r: int = 2, rw=(2, 2), cakic_alpha: int = 2
) -> SpecializationReport:
    """Check every reduction of the unified pair against the triangles the
    other modules build, recording the sign convention that holds.  The
    unified side comes from the connection solve, the other side from the
    recurrences, so every match is also a match between two routes."""
    checks = []

    beta = whitney_alpha
    w1 = whitney.whitney_first(nmax, beta)
    w2 = whitney.whitney_second(nmax, beta)
    wlah = whitney.whitney_lah(nmax, beta)
    s_b01 = hs_pair_by_solve(nmax, HSParams(beta, 0, -1)).s1
    s_0b1 = hs_pair_by_solve(nmax, HSParams(0, beta, 1)).s1
    l_0b1 = hs_lah_matrix_by_solve(nmax, HSParams(0, beta, 1))
    checks.append(
        _match(
            "whitney-first",
            {"beta": beta},
            nmax,
            w1.value,
            [
                ("w(n,k) = S(n,k; beta, 0, -1) as printed", s_b01.entry),
                ("w(n,k) = (-1)^(n-k) S(n,k; beta, 0, -1)", lambda n, k: (-1) ** (n - k) * s_b01.entry(n, k)),
            ],
        )
    )
    checks.append(
        _match(
            "whitney-second",
            {"beta": beta},
            nmax,
            w2.value,
            [("W(n,k) = S(n,k; 0, beta, 1) as printed", s_0b1.entry)],
        )
    )
    checks.append(
        _match(
            "whitney-lah",
            {"beta": beta},
            nmax,
            wlah.value,
            [("L^W(n,k) = L(n,k; 0, beta, 1) as printed", l_0b1.entry)],
        )
    )

    rs1 = rnumbers.r_stirling1(nmax, r)
    rs2 = rnumbers.r_stirling2(nmax, r)
    rlah = rnumbers.r_lah(nmax, r)
    s_10r = hs_pair_by_solve(nmax, HSParams(1, 0, -r)).s1
    s_01r = hs_pair_by_solve(nmax, HSParams(0, 1, r)).s1
    l_01r = hs_lah_matrix_by_solve(nmax, HSParams(0, 1, r))
    checks.append(
        _match(
            "r-stirling-first",
            {"r": r},
            nmax,
            rs1.value,
            [
                ("A(n,k) = S(n,k; 1, 0, -r) as printed", s_10r.entry),
                ("A(n,k) = (-1)^(n-k) S(n,k; 1, 0, -r)", lambda n, k: (-1) ** (n - k) * s_10r.entry(n, k)),
            ],
        )
    )
    checks.append(
        _match(
            "r-stirling-second",
            {"r": r},
            nmax,
            rs2.value,
            [("S(n,k) = S(n,k; 0, 1, r) as printed", s_01r.entry)],
        )
    )
    checks.append(
        _match(
            "r-lah",
            {"r": r},
            nmax,
            rlah.value,
            [("L(n,k) = (-1)^n L(n,k; 0, 1, r) as printed", lambda n, k: (-1) ** n * l_01r.entry(n, k))],
        )
    )

    m, rr = rw
    rw1 = rnumbers.r_whitney_first(nmax, m, rr)
    rw2 = rnumbers.r_whitney_second(nmax, m, rr)
    rwlah = rnumbers.r_whitney_lah(nmax, m, rr)
    s_m0r = hs_pair_by_solve(nmax, HSParams(m, 0, -rr)).s1
    s_0mr = hs_pair_by_solve(nmax, HSParams(0, m, rr)).s1
    l_0mr = hs_lah_matrix_by_solve(nmax, HSParams(0, m, rr))
    checks.append(
        _match(
            "r-whitney-first",
            {"m": m, "r": rr},
            nmax,
            rw1.value,
            [
                ("w(n,k) = (-1)^(n-k) S(n,k; m, 0, -r) as printed", lambda n, k: (-1) ** (n - k) * s_m0r.entry(n, k)),
                ("w(n,k) = S(n,k; m, 0, -r)", s_m0r.entry),
            ],
        )
    )
    checks.append(
        _match(
            "r-whitney-second",
            {"m": m, "r": rr},
            nmax,
            rw2.value,
            [("W(n,k) = S(n,k; 0, m, r) as printed", s_0mr.entry)],
        )
    )
    checks.append(
        _match(
            "r-whitney-lah",
            {"m": m, "r": rr},
            nmax,
            rwlah.value,
            [("L(n,k) = (-1)^n L(n,k; 0, m, r) as printed", lambda n, k: (-1) ** n * l_0mr.entry(n, k))],
        )
    )

    defining = connection_matrix(
        factorial_basis(1, 0, cakic_alpha, nmax), factorial_basis(1, 0, 1, nmax)
    )
    pos = hs_pair_by_solve(nmax, HSParams(cakic_alpha, 1, 0)).s1
    neg = hs_pair_by_solve(nmax, HSParams(-cakic_alpha, 1, 0)).s1
    checks.append(
        _match(
            "cakic",
            {"alpha": cakic_alpha},
            nmax,
            defining.entry,
            [
                ("c(n,k) = S(n,k; +alpha, 1, 0); the printed reduction negates alpha", pos.entry),
                ("c(n,k) = S(n,k; -alpha, 1, 0) as printed", neg.entry),
            ],
        )
    )

    return SpecializationReport(nmax, tuple(checks))
