"""Command-line interface: emit triangles and Bell-type sums, run identity
verification suites, reproduce the bundled reference tables, and benchmark
triangle generation.

Exit codes: 0 success, 1 verification/table failure, 2 usage or parameter
error.  All numeric output is decimal strings (rationals as "p/q") so
arbitrary precision survives serialization.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from . import basis, classic, families, oracle, rnumbers, unified, whitney
from .exactmath import interpolate
from .families import FAMILIES
from .triangles import Triangle, transform
from .unified import HSParams


class UsageError(Exception):
    """Bad family, identity, or parameter combination (exit code 2)."""


@dataclass
class JobConfig:
    command: str
    family: str = ""
    identity: str = ""
    nmax: int | None = None
    params: dict = field(default_factory=dict)
    fmt: str = "table"
    out: str | None = None
    with_oracle: bool = False


# ---------------------------------------------------------------------------
# families and sums: the table in `families`, plus Qi's alternating double
# sum for the Bell numbers, which is no row sum of one family


SUMS = {**families.SUMS, "qi-bell": None}


def _sum_needs(name: str) -> tuple:
    family = SUMS[name]
    return () if family is None else FAMILIES[family].needs


def _sum_value(name: str, params: dict, n: int):
    family = SUMS[name]
    if family is None:
        return classic.qi_bell(n)
    return families.row_sum(family, params, n)


_INT_PARAMS = {"m", "r"}


def _collect_params(needs, args) -> dict:
    params = {}
    for name in needs:
        raw = getattr(args, name, None)
        if raw is None:
            raise UsageError(f"missing required parameter --{name}")
        try:
            value = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"cannot parse --{name}={raw!r}: {exc}") from None
        if name in _INT_PARAMS:
            if value.denominator != 1:
                raise UsageError(f"--{name} must be an integer, got {raw}")
            value = value.numerator
        params[name] = value
    return params


def _params_as_strings(params: dict) -> dict:
    return {key: str(value) for key, value in params.items()}


# ---------------------------------------------------------------------------
# rendering


@contextmanager
def unlimited_int_digits():
    """Lift CPython's limit on int <-> decimal str conversion (4300 digits by
    default) inside the block, so entries of any size print and parse.
    Interpreters without the limit have no `sys.set_int_max_str_digits`."""
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None:
        yield
        return
    previous = sys.get_int_max_str_digits()
    setter(0)
    try:
        yield
    finally:
        setter(previous)


def _value_rows(table) -> list:
    """Rows of decimal strings for either a Triangle or a CoeffMatrix."""
    return [[str(v) for v in row] for row in table.rows]


def render_table(table) -> str:
    rows = _value_rows(table)
    width = max(len(v) for row in rows for v in row)
    label_width = len(str(len(rows) - 1))
    lines = []
    for n, row in enumerate(rows):
        cells = "  ".join(v.rjust(width) for v in row)
        lines.append(f"{str(n).rjust(label_width)} | {cells}")
    return "\n".join(lines) + "\n"


def render_csv(table) -> str:
    lines = ["n,k,value"]
    for n, row in enumerate(_value_rows(table)):
        for k, value in enumerate(row):
            lines.append(f"{n},{k},{value}")
    return "\n".join(lines) + "\n"


def triangle_json(table, family: str, params: dict) -> str:
    obj = {
        "family": family,
        "params": _params_as_strings(params),
        "nmax": len(table.rows) - 1,
        "rows": _value_rows(table),
    }
    return json.dumps(obj, indent=2) + "\n"


def triangle_from_json(text: str) -> Triangle:
    obj = json.loads(text)
    with unlimited_int_digits():
        rows = tuple(tuple(int(v) for v in row) for row in obj["rows"])
        params = {key: Fraction(value) for key, value in obj["params"].items()}
    params = {
        key: value.numerator if value.denominator == 1 else value
        for key, value in params.items()
    }
    return Triangle(obj["family"], params, obj["nmax"], rows)


# ---------------------------------------------------------------------------
# identity verification registry


def _table_failures(pairs) -> list:
    """pairs: iterable of (n, k, expected, actual); collect the mismatches."""
    return [
        {"n": n, "k": k, "expected": str(expected), "actual": str(actual)}
        for n, k, expected, actual in pairs
        if expected != actual
    ]


def _triangle_route_pairs(tri, route, kmin=0):
    for n in range(tri.nmax + 1):
        for k in range(kmin, n + 1):
            yield n, k, tri.value(n, k), route(n, k)


def _matrix_delta_failures(mat) -> list:
    bad = []
    for n in range(mat.nmax + 1):
        for k in range(n + 1):
            want = 1 if n == k else 0
            if mat.entry(n, k) != want:
                bad.append({"n": n, "k": k, "expected": str(want), "actual": str(mat.entry(n, k))})
    return bad


def _roundtrip_failures(run_roundtrip, length, seeds) -> list:
    bad = []
    for seed in range(seeds):
        rng = random.Random(seed)
        seq = [rng.randint(-50, 50) for _ in range(length)]
        recovered = run_roundtrip(seq)
        if recovered != seq:
            bad.append({"n": seed, "k": None, "expected": str(seq), "actual": str(recovered)})
    return bad


def _ident_lef(p):
    tri = classic.lah_signed_triangle(p["nmax"])
    return _table_failures(_triangle_route_pairs(tri, classic.lah_explicit)), None


def _ident_verlah(p):
    tri = classic.lah_signed_triangle(p["nmax"])
    return _table_failures(_triangle_route_pairs(tri, classic.lah_vertical)), None


def _ident_horilah(p):
    tri = classic.lah_signed_triangle(p["nmax"])
    note = "angle-bracket weights resolved as the ascending product x(x+1)...(x+i-1)"
    return _table_failures(_triangle_route_pairs(tri, classic.lah_horizontal)), note


def _ident_lgf(p):
    order = p["nmax"]
    bad = []
    for k in range(min(p.get("kmax", 5), order) + 1):
        if not classic.lah_egf_check(k, order):
            bad.append({"n": order, "k": k, "expected": "series == triangle", "actual": "mismatch"})
    return bad, None


def _ident_qi(p):
    bad = []
    for n in range(p["nmax"] + 1):
        want, got = classic.bell(n), classic.qi_bell(n)
        if want != got:
            bad.append({"n": n, "k": None, "expected": str(want), "actual": str(got)})
    return bad, None


def _ident_ordlahstirling(p):
    tri = classic.lah_signed_triangle(p["nmax"])
    return _table_failures(_triangle_route_pairs(tri, classic.lah_from_stirlings)), None


def _ident_stirling_inverse(p):
    s2 = classic.stirling2_triangle(p["nmax"])
    s1 = classic.stirling1_by_expansion(p["nmax"])

    def roundtrip(seq):
        return transform(s1, transform(s2, seq))

    return _roundtrip_failures(roundtrip, p["nmax"] + 1, p.get("seeds", 5)), None


def _ident_ortho(p):
    mat = basis.CoeffMatrix.from_triangle(whitney.whitney_lah(p["nmax"], p["alpha"]))
    return _matrix_delta_failures(mat.mul(mat)), None


def _ident_inv1(p):
    alpha = p["alpha"]

    def roundtrip(seq):
        tri = whitney.whitney_lah(len(seq) - 1, alpha)
        return transform(tri, transform(tri, seq))

    return _roundtrip_failures(roundtrip, p["nmax"] + 1, p.get("seeds", 5)), None


def _ident_wla1(p):
    tri = whitney.whitney_lah(p["nmax"], p["alpha"])
    route = lambda n, k: whitney.whitney_lah_from_whitney(n, k, p["alpha"])
    return _table_failures(_triangle_route_pairs(tri, route)), None


def _ident_triwlah(p):
    tri = whitney.whitney_lah(p["nmax"], p["alpha"])
    bad = _table_failures(
        _triangle_route_pairs(
            tri, lambda n, k: whitney.whitney_lah_vertical(n, k, p["alpha"]), kmin=1
        )
    )
    bad += _table_failures(
        _triangle_route_pairs(tri, lambda n, k: whitney.whitney_lah_horizontal(n, k, p["alpha"]))
    )
    bad += _table_failures(
        _triangle_route_pairs(tri, lambda n, k: whitney.whitney_lah_from_whitney(n, k, p["alpha"]))
    )
    return bad, "vertical, horizontal and product routes against the triangular recurrence"


def _ident_whitney_ortho(p):
    w = basis.CoeffMatrix.from_triangle(whitney.whitney_first_by_expansion(p["nmax"], p["alpha"]))
    second = basis.CoeffMatrix.from_triangle(whitney.whitney_second(p["nmax"], p["alpha"]))
    return _matrix_delta_failures(w.mul(second)) + _matrix_delta_failures(second.mul(w)), None


def _ident_benoumhani(p):
    tri = whitney.whitney_second(p["nmax"], p["alpha"])
    route = lambda n, k: whitney.whitney_second_benoumhani(n, k, p["alpha"])
    return _table_failures(_triangle_route_pairs(tri, route)), None


def _ident_dow1(p):
    bad = []
    for n in range(p["nmax"] + 1):
        want = whitney.dowling(n, p["alpha"])
        got = whitney.dowling_explicit(n, p["alpha"])
        if want != got:
            bad.append({"n": n, "k": None, "expected": str(want), "actual": str(got)})
    return bad, None


def _ident_bell_reduction(p):
    bad = []
    s2 = classic.stirling2_triangle(p["nmax"] + 1)
    w1 = whitney.whitney_second(p["nmax"], 1)
    for n in range(p["nmax"] + 1):
        want, got = classic.bell(n + 1), whitney.bell_via_dowling(n)
        if want != got:
            bad.append({"n": n, "k": None, "expected": str(want), "actual": str(got)})
        for j in range(n + 1):
            if w1.value(n, j) != s2.value(n + 1, j + 1):
                bad.append(
                    {
                        "n": n,
                        "k": j,
                        "expected": str(s2.value(n + 1, j + 1)),
                        "actual": str(w1.value(n, j)),
                    }
                )
    return bad, "unit-step Dowling numbers against shifted Bell/Stirling values"


def _ident_lah1(p):
    tri = rnumbers.r_lah(p["nmax"], p["r"])
    route = lambda n, k: rnumbers.r_lah_from_stirlings(n, k, p["r"])
    return _table_failures(_triangle_route_pairs(tri, route)), None


def _ident_lah4(p):
    r = p["r"]
    first = rnumbers.r_stirling1(p["nmax"], r)
    second = rnumbers.r_stirling2(p["nmax"], r)

    def roundtrip(seq):
        b = [sum(first.value(n, j) * seq[j] for j in range(n + 1)) for n in range(len(seq))]
        return [
            sum((-1) ** (n - j) * second.value(n, j) * b[j] for j in range(n + 1))
            for n in range(len(seq))
        ]

    return _roundtrip_failures(roundtrip, p["nmax"] + 1, p.get("seeds", 5)), None


def _ident_expb(p):
    bad = []
    for n in range(p["nmax"] + 1):
        want = rnumbers.r_bell(n, p["r"])
        got = rnumbers.r_bell_explicit(n, p["r"])
        if want != got:
            bad.append({"n": n, "k": None, "expected": str(want), "actual": str(got)})
    return bad, None


def _ident_weighted_egf(p):
    ok = rnumbers.weighted_stirling_egf_check(p["nmax"], p["r"], p.get("order", p["nmax"]))
    bad = [] if ok else [{"n": p["nmax"], "k": None, "expected": "series == triangle", "actual": "mismatch"}]
    return bad, None


def _ident_rw_ortho(p):
    m, r, nmax = p["m"], p["r"], p["nmax"]
    w = rnumbers.r_whitney_first_by_solve(nmax, m, r)
    second = basis.CoeffMatrix.from_triangle(rnumbers.r_whitney_second(nmax, m, r))
    signed = basis.CoeffMatrix(
        tuple(
            tuple((-1) ** (n - j) * w.value(n, j) for j in range(n + 1)) for n in range(nmax + 1)
        )
    )
    return _matrix_delta_failures(signed.mul(second)) + _matrix_delta_failures(second.mul(signed)), None


def _ident_rw_inv(p):
    m, r = p["m"], p["r"]
    nmax = p["nmax"]
    w = rnumbers.r_whitney_first_by_solve(nmax, m, r)
    second = rnumbers.r_whitney_second(nmax, m, r)

    def roundtrip(seq):
        f = [
            sum((-1) ** (n - j) * w.value(n, j) * seq[j] for j in range(n + 1))
            for n in range(len(seq))
        ]
        return [sum(second.value(n, j) * f[j] for j in range(n + 1)) for n in range(len(seq))]

    return _roundtrip_failures(roundtrip, nmax + 1, p.get("seeds", 5)), None


def _ident_rwhitneylah(p):
    tri = rnumbers.r_whitney_lah(p["nmax"], p["m"], p["r"])
    route = lambda n, k: rnumbers.r_whitney_lah_from_whitney(n, k, p["m"], p["r"])
    return _table_failures(_triangle_route_pairs(tri, route)), None


def _ident_exprwlah(p):
    tri = rnumbers.r_whitney_lah(p["nmax"], p["m"], p["r"])
    route = lambda n, k: rnumbers.r_whitney_lah_explicit(n, k, p["m"], p["r"])
    return _table_failures(_triangle_route_pairs(tri, route)), None


def _ident_rwlah_routes(p):
    m, r = p["m"], p["r"]
    tri = rnumbers.r_whitney_lah(p["nmax"], m, r)
    bad = _table_failures(
        _triangle_route_pairs(tri, lambda n, k: rnumbers.r_whitney_lah_explicit(n, k, m, r))
    )
    bad += _table_failures(
        _triangle_route_pairs(tri, lambda n, k: rnumbers.r_whitney_lah_from_whitney(n, k, m, r))
    )
    bad += _table_failures(
        _triangle_route_pairs(tri, lambda n, k: rnumbers.r_whitney_lah_vertical(n, k, m, r), kmin=1)
    )
    bad += _table_failures(
        _triangle_route_pairs(tri, lambda n, k: rnumbers.r_whitney_lah_horizontal(n, k, m, r))
    )
    return bad, "explicit, product, vertical and horizontal routes against the recurrence"


def _ident_expl_rdow(p):
    bad = []
    for n in range(p["nmax"] + 1):
        want = rnumbers.r_dowling(n, p["m"], p["r"])
        got = rnumbers.r_dowling_explicit(n, p["m"], p["r"])
        if want != got:
            bad.append({"n": n, "k": None, "expected": str(want), "actual": str(got)})
    return bad, None


_HS_DEFAULT_GRID = (
    HSParams(0, 1, 2),
    HSParams(0, 2, 2),
    HSParams(1, 0, 0),
    HSParams(Fraction(1, 2), Fraction(1, 3), 2),
)


def _hs_param_sets(p):
    if p.get("alpha") is not None and p.get("beta") is not None and p.get("gamma") is not None:
        return (HSParams(p["alpha"], p["beta"], p["gamma"]),)
    return _HS_DEFAULT_GRID


def _ident_ugexp(p):
    bad = []
    for hp in _hs_param_sets(p):
        for n in range(p["nmax"] + 1):
            want = unified.hs_bell(n, hp)
            got = unified.hs_bell_explicit(n, hp)
            if want != got:
                bad.append(
                    {"n": n, "k": None, "expected": str(want), "actual": f"{got} at {hp.as_dict()}"}
                )
    return bad, None


def _ident_hs_ortho(p):
    bad = []
    for hp in _hs_param_sets(p):
        pair = unified.hs_pair_by_solve(p["nmax"], hp)
        if not unified.verify_hs_orthogonality(pair):
            bad.append(
                {"n": p["nmax"], "k": None, "expected": "identity", "actual": f"not inverse at {hp.as_dict()}"}
            )
    return bad, None


def _ident_invrel(p):
    bad = []
    for hp in _hs_param_sets(p):
        pair = unified.hs_pair_by_solve(p["nmax"], hp)

        def roundtrip(seq, pair=pair):
            return pair.s2.transform(pair.s1.transform(seq))

        bad += _roundtrip_failures(roundtrip, p["nmax"] + 1, p.get("seeds", 5))
    return bad, None


def _ident_log_concavity(p):
    grid = ((1, 1), (2, 2), (3, 1)) if p.get("m") is None else ((p["m"], p["r"]),)
    bad = []
    for m, r in grid:
        for n in range(2, p["nmax"] + 1):
            report = rnumbers.log_concavity_report(n, m, r)
            if not (report["product"] and report["unimodal"]):
                bad.append(
                    {"n": n, "k": None, "expected": "log-concave", "actual": str(report)}
                )
    return bad, "product-form strict log-concavity; the sum form is implied at these sizes"


def _ident_specializations(p):
    report = unified.verify_specializations(p["nmax"])
    bad = []
    for check in report.checks:
        if not check.passed:
            for item in check.as_dict()["mismatches"]:
                item = dict(item)
                item["expected"] = f"{check.name}: {item['expected']}"
                bad.append(item)
    notes = "; ".join(f"{check.name}: {check.convention}" for check in report.checks)
    return bad, notes


def _ident_oracle(p):
    bad = []
    nmax = p["nmax"]
    s2 = classic.stirling2_triangle(nmax)
    for n in range(nmax + 1):
        for k in range(n + 1):
            want = oracle.count_partitions(oracle.PartitionSpec(n, k))
            if want != s2.value(n, k):
                bad.append({"n": n, "k": k, "expected": str(want), "actual": str(s2.value(n, k))})
    lah_top = min(nmax, 9)
    for n in range(lah_top + 1):
        for k in range(n + 1):
            want = oracle.count_partitions(oracle.PartitionSpec(n, k, ordered_blocks=True))
            got = classic.lah_signless(n, k)
            if want != got:
                bad.append({"n": n, "k": k, "expected": str(want), "actual": str(got)})
    for r in (1, 2, 3):
        top = min(nmax, 11 - r, 9)
        rs2 = rnumbers.r_stirling2(top, r)
        rl = rnumbers.r_lah(top, r)
        for n in range(top + 1):
            for k in range(n + 1):
                spec = oracle.PartitionSpec(n + r, k + r, r)
                if oracle.count_partitions(spec) != rs2.value(n, k):
                    bad.append({"n": n, "k": k, "expected": "oracle", "actual": "r-stirling2"})
                spec = oracle.PartitionSpec(n + r, k + r, r, ordered_blocks=True)
                if oracle.count_partitions(spec) != rl.value(n, k):
                    bad.append({"n": n, "k": k, "expected": "oracle", "actual": "r-lah"})
            if oracle.count_all_partitions(n + r, r) != rnumbers.r_bell(n, r):
                bad.append({"n": n, "k": None, "expected": "oracle", "actual": "r-bell"})
    for n in range(nmax + 1):
        if oracle.count_all_partitions(n) != classic.bell(n):
            bad.append({"n": n, "k": None, "expected": "oracle", "actual": "bell"})
    return bad, None


@dataclass(frozen=True)
class Identity:
    name: str
    defaults: dict
    run: object  # (params) -> (failures, notes)
    needs_oracle: bool = False


IDENTITIES = {
    ident.name: ident
    for ident in (
        Identity("lef", {"nmax": 30}, _ident_lef),
        Identity("verlah", {"nmax": 20}, _ident_verlah),
        Identity("horilah", {"nmax": 20}, _ident_horilah),
        Identity("lgf", {"nmax": 20, "kmax": 5}, _ident_lgf),
        Identity("qi", {"nmax": 25}, _ident_qi),
        Identity("ordlahstirling", {"nmax": 15}, _ident_ordlahstirling),
        Identity("stirling-inverse", {"nmax": 9}, _ident_stirling_inverse),
        Identity("ortho", {"nmax": 12, "alpha": 3}, _ident_ortho),
        Identity("inv1", {"nmax": 9, "alpha": 3}, _ident_inv1),
        Identity("wla1", {"nmax": 12, "alpha": 3}, _ident_wla1),
        Identity("triwlah", {"nmax": 15, "alpha": 3}, _ident_triwlah),
        Identity("whitney-ortho", {"nmax": 12, "alpha": 3}, _ident_whitney_ortho),
        Identity("benoumhani", {"nmax": 15, "alpha": 3}, _ident_benoumhani),
        Identity("dow1", {"nmax": 10, "alpha": 3}, _ident_dow1),
        Identity("bell-reduction", {"nmax": 12}, _ident_bell_reduction),
        Identity("lah1", {"nmax": 10, "r": 2}, _ident_lah1),
        Identity("lah4", {"nmax": 7, "r": 2}, _ident_lah4),
        Identity("expb", {"nmax": 10, "r": 2}, _ident_expb),
        Identity("weighted-egf", {"nmax": 12, "r": 2, "order": 12}, _ident_weighted_egf),
        Identity("rw-ortho", {"nmax": 8, "m": 2, "r": 2}, _ident_rw_ortho),
        Identity("rw-inv", {"nmax": 7, "m": 2, "r": 2}, _ident_rw_inv),
        Identity("rwhitneylah", {"nmax": 12, "m": 2, "r": 2}, _ident_rwhitneylah),
        Identity("exprwlah", {"nmax": 12, "m": 2, "r": 2}, _ident_exprwlah),
        Identity("rwlah-routes", {"nmax": 12, "m": 2, "r": 2}, _ident_rwlah_routes),
        Identity("expl-rdow", {"nmax": 12, "m": 2, "r": 2}, _ident_expl_rdow),
        Identity("ugexp", {"nmax": 10}, _ident_ugexp),
        Identity("hs-ortho", {"nmax": 8}, _ident_hs_ortho),
        Identity("invrel", {"nmax": 9}, _ident_invrel),
        Identity("log-concavity", {"nmax": 20}, _ident_log_concavity),
        Identity("specializations", {"nmax": 6}, _ident_specializations),
        Identity("oracle", {"nmax": 8}, _ident_oracle, needs_oracle=True),
    )
}


# ---------------------------------------------------------------------------
# reference tables bundled for the paper-tables command


WHITNEY_LAH_ALPHA_POLYS = (
    ((1,),),
    ((-2,), (-1,)),
    ((4, 2), (4, 2), (1,)),
    ((-8, -12, -4), (-12, -18, -6), (-6, -6), (-1,)),
)

WHITNEY2_ALPHA3_ROWS = ((1,), (1, 1), (1, 5, 1), (1, 21, 12, 1))
DOWLING_ALPHA3_COLUMN = (1, 2, 7, 35)

R_LAH_R2_ROWS = (
    (1,),
    (4, 1),
    (20, 10, 1),
    (120, 90, 18, 1),
    (840, 840, 252, 28, 1),
    (6720, 8400, 3360, 560, 40, 1),
)

R_STIRLING2_R2_ROWS = (
    (1,),
    (2, 1),
    (4, 5, 1),
    (8, 19, 9, 1),
    (16, 65, 55, 14, 1),
    (32, 211, 285, 125, 20, 1),
)
R_BELL_R2_COLUMN = (1, 3, 10, 37, 151, 674)

R_WHITNEY2_M2_R2_ROWS = ((1,), (2, 1), (4, 6, 1), (8, 28, 12, 1), (16, 120, 100, 20, 1))
R_DOWLING_M2_R2_COLUMN = (1, 3, 11, 49, 257)

R_WHITNEY_LAH_M2_R2_ROWS = ((1,), (4, 1), (24, 12, 1), (192, 144, 24, 1), (1920, 1920, 480, 40, 1))
R_WHITNEY_LAH_M2_R2_SUMS = (1, 5, 37, 361, 4361)


def _check_symbolic_whitney_lah() -> list:
    """Verify the small Whitney-Lah entries as polynomials in the step.

    Entries of row n have degree at most n in alpha, so agreement at the four
    points 1..4 plus exact interpolation back to the closed forms pins them.
    """
    problems = []
    sample = (1, 2, 3, 4)
    tables = {a: whitney.whitney_lah(3, a) for a in sample}
    for n, row in enumerate(WHITNEY_LAH_ALPHA_POLYS):
        for k, coeffs in enumerate(row):
            closed = interpolate(
                [(a, sum(c * a ** i for i, c in enumerate(coeffs))) for a in sample]
            )
            for a in sample:
                want = sum(c * a ** i for i, c in enumerate(coeffs))
                got = tables[a].value(n, k)
                if want != got:
                    problems.append(f"whitney-lah({n},{k}) at alpha={a}: expected {want}, got {got}")
            fitted = interpolate([(a, tables[a].value(n, k)) for a in sample])
            if fitted != closed:
                problems.append(f"whitney-lah({n},{k}): interpolated polynomial differs")
    return problems


def run_paper_tables(out=None) -> int:
    """Regenerate every bundled reference table and worked check; return the
    number of mismatches."""
    if out is None:
        out = sys.stdout
    problems = []

    def check(name, ok, detail=""):
        if ok:
            print(f"ok        {name}", file=out)
        else:
            print(f"MISMATCH  {name}  {detail}", file=out)
            problems.append(name)

    symbolic = _check_symbolic_whitney_lah()
    check("whitney-lah rows 0..3, symbolic step (4 points + interpolation)", not symbolic, "; ".join(symbolic))

    w2 = whitney.whitney_second(3, 3)
    check("whitney2 alpha=3 rows 0..3", w2.rows == WHITNEY2_ALPHA3_ROWS, str(w2.rows))
    dowling_col = tuple(whitney.dowling(n, 3) for n in range(4))
    check("dowling alpha=3 column", dowling_col == DOWLING_ALPHA3_COLUMN, str(dowling_col))

    rl = rnumbers.r_lah(5, 2)
    check("r-lah r=2 rows 0..5", rl.rows == R_LAH_R2_ROWS, str(rl.rows))

    rs2 = rnumbers.r_stirling2(5, 2)
    check("r-stirling2 r=2 rows 0..5", rs2.rows == R_STIRLING2_R2_ROWS, str(rs2.rows))
    rbell_col = tuple(rnumbers.r_bell(n, 2) for n in range(6))
    check("r-bell r=2 column", rbell_col == R_BELL_R2_COLUMN, str(rbell_col))

    rw2 = rnumbers.r_whitney_second(4, 2, 2)
    check("r-whitney2 m=2 r=2 rows 0..4", rw2.rows == R_WHITNEY2_M2_R2_ROWS, str(rw2.rows))
    rdow_col = tuple(rnumbers.r_dowling(n, 2, 2) for n in range(5))
    check("r-dowling m=2 r=2 column", rdow_col == R_DOWLING_M2_R2_COLUMN, str(rdow_col))

    rwl = rnumbers.r_whitney_lah(4, 2, 2)
    check("r-whitney-lah m=2 r=2 rows 0..4", rwl.rows == R_WHITNEY_LAH_M2_R2_ROWS, str(rwl.rows))
    sums = tuple(rwl.row_sum(n) for n in range(5))
    check("r-whitney-lah m=2 r=2 row sums", sums == R_WHITNEY_LAH_M2_R2_SUMS, str(sums))

    check("worked check: dowling-explicit(3, alpha=3) = 35", whitney.dowling_explicit(3, 3) == 35)
    check(
        "worked check: bell(4) = 15 via unit-step dowling",
        classic.bell(4) == 15 and whitney.bell_via_dowling(3) == 15,
    )
    check("worked check: r-bell-explicit(3, r=2) = 37", rnumbers.r_bell_explicit(3, 2) == 37)
    check(
        "worked check: r-dowling-explicit(4, m=2, r=2) = 257",
        rnumbers.r_dowling_explicit(4, 2, 2) == 257,
    )

    summary = "all reference tables match" if not problems else f"{len(problems)} mismatch(es)"
    print(summary, file=out)
    return len(problems)


# ---------------------------------------------------------------------------
# commands


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_triangle(cfg: JobConfig) -> int:
    if cfg.family not in FAMILIES:
        raise UsageError(f"unknown family {cfg.family!r}; known: {', '.join(sorted(FAMILIES))}")
    table = families.triangle(cfg.family, cfg.params, cfg.nmax)
    if cfg.fmt == "table":
        text = render_table(table)
    elif cfg.fmt == "csv":
        text = render_csv(table)
    else:
        text = triangle_json(table, cfg.family, cfg.params)
    _emit(text, cfg.out)
    return 0


def cmd_sum(cfg: JobConfig) -> int:
    if cfg.family not in SUMS:
        raise UsageError(f"unknown sum family {cfg.family!r}; known: {', '.join(sorted(SUMS))}")
    value = _sum_value(cfg.family, cfg.params, cfg.nmax)
    _emit(str(value) + "\n", cfg.out)
    return 0


def cmd_verify(cfg: JobConfig) -> int:
    if cfg.identity == "all":
        names = [n for n in IDENTITIES if IDENTITIES[n].needs_oracle <= cfg.with_oracle]
        reports = [_run_identity(IDENTITIES[n], cfg) for n in names]
        ok = all(r["pass"] for r in reports)
        _emit(json.dumps({"pass": ok, "identities": reports}, indent=2) + "\n", cfg.out)
        return 0 if ok else 1
    ident = IDENTITIES.get(cfg.identity)
    if ident is None:
        raise UsageError(
            f"unknown identity {cfg.identity!r}; known: {', '.join(sorted(IDENTITIES))} or 'all'"
        )
    if ident.needs_oracle and not cfg.with_oracle:
        raise UsageError(f"identity {ident.name!r} needs --with-oracle")
    report = _run_identity(ident, cfg)
    _emit(json.dumps(report, indent=2) + "\n", cfg.out)
    return 0 if report["pass"] else 1


def _run_identity(ident: Identity, cfg: JobConfig) -> dict:
    params = dict(ident.defaults)
    for key, value in cfg.params.items():
        params[key] = value
    if cfg.nmax is not None:
        params["nmax"] = cfg.nmax
    failures, notes = ident.run(params)
    report = {
        "identity": ident.name,
        "params": _params_as_strings({k: v for k, v in params.items() if k != "nmax"}),
        "nmax": params["nmax"],
        "pass": not failures,
        "failures": failures,
    }
    if notes:
        report["notes"] = notes
    return report


def cmd_paper_tables(cfg: JobConfig) -> int:
    return 1 if run_paper_tables() else 0


def cmd_bench(cfg: JobConfig) -> int:
    family = FAMILIES.get(cfg.family)
    if family is None:
        raise UsageError(f"unknown family {cfg.family!r}")
    start = time.perf_counter()
    table = families.triangle(cfg.family, cfg.params, cfg.nmax)
    elapsed = time.perf_counter() - start
    entries = sum(len(row) for row in table.rows)
    if family.rational:
        peak = max(
            max(v.numerator.bit_length(), v.denominator.bit_length())
            for row in table.rows
            for v in row
        )
    else:
        peak = max(abs(v).bit_length() for row in table.rows for v in row)
    print(f"family        {cfg.family}")
    print(f"nmax          {cfg.nmax}")
    print(f"entries       {entries}")
    print(f"peak bits     {peak}")
    print(f"elapsed (s)   {elapsed:.3f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dowling",
        description="Exact Stirling/Lah/Whitney/Dowling number families, their "
        "Bell-type sums, and identity verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, nmax_aliases=("--nmax",)):
        p.add_argument(*nmax_aliases, dest="nmax", type=int, default=None)
        p.add_argument("--m")
        p.add_argument("--r")
        p.add_argument("--alpha")
        p.add_argument("--beta")
        p.add_argument("--gamma")
        p.add_argument("--out", default=None)

    p_tri = sub.add_parser("triangle", help="emit one family triangle")
    p_tri.add_argument("--family", required=True)
    p_tri.add_argument("--format", dest="fmt", choices=("table", "csv", "json"), default="table")
    add_common(p_tri)

    p_sum = sub.add_parser("sum", help="emit one Bell-type row sum")
    p_sum.add_argument("--family", required=True)
    add_common(p_sum, nmax_aliases=("--nmax", "--n"))

    p_ver = sub.add_parser("verify", help="run one identity check (or 'all')")
    p_ver.add_argument("--identity", required=True)
    p_ver.add_argument("--with-oracle", action="store_true")
    add_common(p_ver)

    sub.add_parser("paper-tables", help="regenerate the bundled reference tables")

    p_bench = sub.add_parser("bench", help="time triangle generation")
    p_bench.add_argument("--family", required=True)
    add_common(p_bench, nmax_aliases=("--nmax", "--n"))

    return parser


def _config_from_args(args) -> JobConfig:
    cfg = JobConfig(command=args.command)
    cfg.nmax = getattr(args, "nmax", None)
    cfg.fmt = getattr(args, "fmt", "table")
    cfg.out = getattr(args, "out", None)
    cfg.with_oracle = getattr(args, "with_oracle", False)
    cfg.family = getattr(args, "family", "") or ""
    cfg.identity = getattr(args, "identity", "") or ""
    if cfg.command in ("triangle", "bench"):
        family = FAMILIES.get(cfg.family)
        if family is not None:
            cfg.params = _collect_params(family.needs, args)
    elif cfg.command == "sum":
        if cfg.family in SUMS:
            cfg.params = _collect_params(_sum_needs(cfg.family), args)
    elif cfg.command == "verify":
        for name in ("m", "r", "alpha", "beta", "gamma"):
            raw = getattr(args, name, None)
            if raw is not None:
                value = Fraction(raw)
                if name in _INT_PARAMS:
                    value = value.numerator if value.denominator == 1 else value
                cfg.params[name] = value
    if cfg.command in ("triangle", "sum", "bench"):
        if cfg.nmax is None:
            raise UsageError("--nmax is required")
        if cfg.nmax < 0:
            raise UsageError("--nmax must be nonnegative")
    return cfg


_DISPATCH = {
    "triangle": cmd_triangle,
    "sum": cmd_sum,
    "verify": cmd_verify,
    "paper-tables": cmd_paper_tables,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with unlimited_int_digits():
            cfg = _config_from_args(args)
            return _DISPATCH[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
