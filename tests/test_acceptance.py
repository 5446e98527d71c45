"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import io
import time
from fractions import Fraction

from dowling import families, identities, rnumbers, unified, whitney
from dowling.cli import run_paper_tables
from dowling.identities import REGISTRY


def _report(number, label, ok):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_reference_tables():
    sink = io.StringIO()
    start = time.perf_counter()
    mismatches = run_paper_tables(out=sink)
    elapsed = time.perf_counter() - start
    _report(1, f"reference tables regenerate with zero mismatches in {elapsed:.3f}s",
            mismatches == 0 and elapsed < 1.0)


def test_criterion_2_worked_verifications():
    ok = (
        whitney.dowling_explicit(3, 3) == 35
        and families.row_sum("stirling2", {}, 4) == 15
        and families.row_sum("whitney2", {"alpha": 1}, 3) == 15
        and rnumbers.r_bell_explicit(3, 2) == 37
        and rnumbers.r_dowling_explicit(4, 2, 2) == 257
    )
    _report(2, "worked checks 35 / 15 / 37 / 257 hold exactly", ok)


def _all_pass(points) -> bool:
    """Run each (identity, nmax, parameters) point through the registry."""
    ok = True
    for name, nmax, params in points:
        report = identities.report(REGISTRY[name], params, nmax)
        if not report["pass"]:
            print(f"  {name} nmax={nmax} {params}: {report['failures'][:3]}")
        ok &= report["pass"]
    return ok


def test_criterion_3_two_route_equivalences():
    start = time.perf_counter()
    ok = _all_pass(
        [
            ("lef", 30, {}),
            *(("triwlah", 15, {"alpha": alpha}) for alpha in (1, 2, 3, 5)),
            *(("rwlah-routes", 12, {"m": m, "r": r}) for m, r in ((1, 1), (2, 2), (3, 2))),
            ("qi", 25, {}),
            *(("expb", 12, {"r": r}) for r in range(4)),
            ("ugexp", 10, {}),
        ]
    )
    elapsed = time.perf_counter() - start
    _report(3, f"two-route equivalence suites agree exactly in {elapsed:.1f}s",
            ok and elapsed < 30.0)


def test_criterion_4_orthogonality_and_inverses():
    hs_points = (
        {"alpha": 0, "beta": 1, "gamma": 2},
        {"alpha": 2, "beta": 3, "gamma": 1},
        {"alpha": Fraction(1, 2), "beta": Fraction(1, 3), "gamma": 2},
    )
    ok = _all_pass(
        [
            *(("ortho", 12, {"alpha": alpha}) for alpha in (3, 1)),
            *(("whitney-ortho", 12, {"alpha": alpha}) for alpha in (1, 3)),
            *(("hs-ortho", 8, point) for point in hs_points),
            ("stirling-inverse", 9, {}),
            ("inv1", 9, {"alpha": 3}),
            ("lah4", 9, {"r": 2}),
            ("rw-inv", 9, {"m": 2, "r": 2}),
            ("invrel", 9, {"alpha": 0, "beta": 2, "gamma": 2}),
        ]
    )
    _report(4, "orthogonality and inverse round-trips hold exactly", ok)


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    ok = _all_pass([("oracle", 11, {})])
    elapsed = time.perf_counter() - start
    _report(5, f"brute-force partition counts match all families in {elapsed:.1f}s",
            ok and elapsed < 60.0)


def test_criterion_6_egf_checks():
    ok = _all_pass([("lgf", 20, {}), *(("weighted-egf", 12, {"r": r}) for r in range(4))])
    _report(6, "generating-function coefficients match the triangles exactly", ok)


def test_criterion_7_log_concavity():
    ok = _all_pass([("log-concavity", 20, {})])
    _report(7, "rows are strictly log-concave and unimodal", ok)


def test_criterion_8_specialization_report():
    failures, _ = unified.verify_specializations(6)
    ok = not failures
    _report(8, "all reductions match cross-module triangles with recorded conventions", ok)


def test_criterion_9_performance():
    start = time.perf_counter()
    s2 = families.triangle("stirling2", {}, 500)
    t_stirling = time.perf_counter() - start
    start = time.perf_counter()
    rwl = families.triangle("r-whitney-lah", {"m": 3, "r": 2}, 500)
    t_rwl = time.perf_counter() - start
    ok = (
        t_stirling < 60.0
        and t_rwl < 60.0
        and s2.value(500, 250).bit_length() > 1000
        and rwl.value(500, 0) > 0
    )
    _report(9, f"nmax=500 triangles in {t_stirling:.2f}s and {t_rwl:.2f}s", ok)
