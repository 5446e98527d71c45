"""The identity registry: every table, sequence and inverse-pair case can
fail, and so can every case of the paper's tables, a failing case lists at
most 20 failures, every specialization fails on a sign error, `verify`
builds every engine family, `verify` takes only the parameters an identity
declares, every identity declares valid sizes and points at scale, the
Lah-type families are what `LAH_TYPES` declares them to be, `triples`
checks both routes of every family's Hsu-Shiue triple, `sums` checks every
Bell-type sum by its routes at the declared rows and each route can fail
there, and a wrong weight of any engine family is caught by the identities
that read it, one right only at the default points by `triples`, and each
of the two parameter-shaped mutants at the defaults and at scale."""

import importlib.util
import json
import math
from fractions import Fraction
from functools import partial

import pytest

from dowling import basis, families, identities, triangles
from dowling.cli import main
from dowling.families import UsageError
from dowling.identities import LAH_TYPES, PAPER_TABLES, REGISTRY, SPECIALIZATIONS, Inverse, Tables, lah_route, report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _default_point(ident):
    """The first point `report` runs `ident` at by default: a fixed value
    that is a function of nmax is taken at the default nmax."""
    if ident.grid:
        return dict(ident.grid[0])
    nmax = ident.defaults["nmax"]
    params = {key: value for key, value in ident.defaults.items() if key != "nmax"}
    return {**params, **{key: value(nmax) if callable(value) else value for key, value in ident.fixed.items()}}


def _cases(ident) -> tuple:
    """The shapes of an identity's check: the check itself, or its tuple."""
    return (ident.check,) if callable(ident.check) else ident.check


def _with_case(ident, i, case):
    """`ident` with case i of its check replaced by `case`."""
    if callable(ident.check):
        return ident._replace(check=case)
    return ident._replace(check=(*ident.check[:i], case, *ident.check[i + 1 :]))


def _sources(monkeypatch, call) -> set:
    """The (family-table entry point, family) pairs that `call()` reads,
    without those an entry point reads for another (`rows` reads
    `scaled_rows`)."""
    seen, depth = set(), [0]
    with monkeypatch.context() as patch:
        for entry in ("rows", "scaled_rows", "row_sum"):
            real = getattr(families, entry)

            def spy(name, *args, entry=entry, real=real):
                if not depth[0]:
                    seen.add((entry, name))
                depth[0] += 1
                try:
                    return real(name, *args)
                finally:
                    depth[0] -= 1

            patch.setattr(families, entry, spy)
        call()
    return seen


def _perturb(patch, entry, family, n0, k0):
    """Make entry (n0, k0) of `family`'s rows or scaled rows, or its row sum
    or explicit sum n0, one more, wherever `families.rows`,
    `families.scaled_rows`, `families.row_sum` or `families.explicit_sum`
    builds it (`family` names the sum for `explicit_sum`); rows stream, one
    held at a time."""
    real = getattr(families, entry)

    def bump(name, nmax, table):
        if name != family or nmax < n0:
            return table
        return ((*row[:k0], row[k0] + 1, *row[k0 + 1 :]) if n == n0 else row for n, row in enumerate(table))

    def rows(name, params, nmax, *args):
        return bump(name, nmax, real(name, params, nmax, *args))

    def scaled_rows(name, params, nmax, *args):
        scale, table = real(name, params, nmax, *args)
        return scale, bump(name, nmax, table)

    def value(name, params, n):
        value = real(name, params, n)
        return value + 1 if name == family and n == n0 else value

    patch.setattr(families, entry, {"rows": rows, "scaled_rows": scaled_rows}.get(entry, value))


def _first_change(before, after) -> tuple:
    """The first (n, k) at which two row streams differ."""
    n, old, new = next((n, old, new) for n, (old, new) in enumerate(zip(before, after)) if old != new)
    return n, next(k for k, (a, b) in enumerate(zip(old, new)) if a != b)


def test_every_table_and_sequence_check_can_fail(capsys, monkeypatch):
    """Perturb the production family behind each reference at one entry,
    wherever it is built, and the check must fail, under the case's label,
    where that changed the reference.  A route that reads the same
    production family instead of computing the entry its own way would be
    perturbed alike and pass, so this also catches a route compared with
    itself.  The cases of a tuple check are perturbed one at a time; a
    reference that reads no production family (`log-concavity`'s verdicts)
    is left out, and so are the tables inside `specializations`' cases,
    which `test_a_wrong_entry_fails_its_specialization` fails alike."""
    cases = [
        (name, ident, case, partial(case.reference, ident.defaults["nmax"], **_default_point(ident)))
        for name, ident in REGISTRY.items()
        for case in _cases(ident)
        if isinstance(case, Tables)
    ]
    cases = [(*case, sources) for case in cases if (sources := _sources(monkeypatch, case[-1]))]
    assert len(cases) == 63 and sum(case[0] == "oracle" for case in cases) == 12
    for name, ident, case, reference, ((entry, family),) in cases:
        n0, k0 = ident.defaults["nmax"], None if entry == "row_sum" else 1
        before = list(reference())
        with monkeypatch.context() as patch:
            _perturb(patch, entry, family, n0, k0)
            where = _first_change(before, reference())
            code, out, _ = run(capsys, "verify", "--identity", name, *["--with-oracle"] * ident.needs_oracle)
        prefix = f"{case.label}: " if isinstance(case, Tables) and case.label else ""
        failures = json.loads(out)["failures"]
        assert code == 1, (name, family)
        assert any((f["n"], f["k"]) == where and f["expected"].startswith(prefix) for f in failures), (name, family)


def test_every_paper_case_can_fail(capsys, monkeypatch):
    """Make one entry of each production family that a case of
    `PAPER_TABLES` reads one more, at the last row or sum its route reads
    (nmax, or nmax + 1 for the Bell number one past the unit-step Dowling
    number): `paper-tables` exits 1, the case's line is a MISMATCH naming
    where its route changed, and the last line counts the MISMATCH lines."""
    failed = set()
    for label, nmax, cases in PAPER_TABLES:
        for case in cases:
            ((route, _),) = case.routes
            read = partial(route, nmax)
            sources, before = _sources(monkeypatch, read), list(read())
            assert sources, label
            for entry, family in sources:
                for n0 in (nmax + 1, nmax):
                    with monkeypatch.context() as patch:
                        _perturb(patch, entry, family, n0, None if entry == "row_sum" else 1)
                        after = list(read())
                        code, out, _ = run(capsys, "paper-tables")
                    if after != before:
                        break
                else:
                    pytest.fail(f"no entry of {family} read by {label!r} changes it")
                n, k = _first_change(before, after)
                *lines, last = out.splitlines()
                mismatches = [line for line in lines if line.startswith("MISMATCH  ")]
                assert code == 1 and last == f"{len(mismatches)} mismatch(es)", (label, family)
                assert any(line.startswith(f"MISMATCH  {label}  ") and f"({n}, {k})" in line for line in mismatches)
                failed.add(label)
    assert failed == {label for label, _, _ in PAPER_TABLES}


def test_qi_streams_the_stirling_rows_once(capsys, monkeypatch):
    """`qi` runs Qi's formula as one pass over the rows 0..nmax, not one
    pass per n."""
    asked, real = [], families.rows

    def rows(name, *args):
        asked.append(name)
        return real(name, *args)

    monkeypatch.setattr(families, "rows", rows)
    code, _, _ = run(capsys, "verify", "--identity", "qi")
    assert code == 0
    assert asked.count("stirling2") == 1


def test_log_concavity_streams_each_grid_point_once(capsys, monkeypatch):
    """`log-concavity` reads one stream of the r-Whitney-Lah rows 0..nmax
    per grid point, not one per n."""
    asked, real = [], families.rows

    def rows(name, params, nmax, *args):
        asked.append((name, tuple(params.items()), nmax))
        return real(name, params, nmax, *args)

    monkeypatch.setattr(families, "rows", rows)
    code, _, _ = run(capsys, "verify", "--identity", "log-concavity", "--nmax", "30")
    grid = REGISTRY["log-concavity"].grid
    assert code == 0
    assert asked == [("r-whitney-lah", tuple(point.items()), 30) for point in grid]


def test_a_row_that_is_not_log_concave_fails_at_its_n(capsys, monkeypatch):
    """An r-Whitney-Lah row 7 with entry 3 set to 0, not log-concave,
    fails `log-concavity` at n = 7 alone, at each grid point, expecting
    "log-concave"."""
    real = families.rows

    def rows(name, params, nmax, *args):
        for n, row in enumerate(real(name, params, nmax, *args)):
            yield (*row[:3], 0, *row[4:]) if name == "r-whitney-lah" and n == 7 else row

    monkeypatch.setattr(families, "rows", rows)
    code, out, _ = run(capsys, "verify", "--identity", "log-concavity")
    points = [", ".join(f"{key}={value}" for key, value in point.items()) for point in REGISTRY["log-concavity"].grid]
    assert code == 1
    assert json.loads(out)["failures"] == [
        {"n": 7, "k": 0, "expected": "log-concave", "actual": f"mismatch at {point}"} for point in points
    ]


def test_hs_pair_checks_read_the_engine(capsys, monkeypatch):
    """hs-ortho multiplies the engine s1 by the solved s2, and invrel the
    solved s1 by the engine s2, so one wrong engine entry fails each of them
    at every grid point."""
    real = families.scaled_rows
    for name, family in (("hs-ortho", "hs1"), ("invrel", "hs2")):

        def scaled_rows(fam, params, nmax, *args, family=family):
            scale, rows = real(fam, params, nmax, *args)
            if fam != family:
                return scale, rows
            rows = [list(row) for row in rows]
            rows[2][1] += 1
            return scale, map(tuple, rows)

        with monkeypatch.context() as patch:
            patch.setattr(families, "scaled_rows", scaled_rows)
            code, out, _ = run(capsys, "verify", "--identity", name)
        points = {f["actual"].rsplit(" at ", 1)[1] for f in json.loads(out)["failures"]}
        assert code == 1, name
        assert len(points) == len(REGISTRY[name].grid) == 4, name


def _failing_reductions(capsys) -> set:
    code, out, _ = run(capsys, "verify", "--identity", "specializations")
    failing = {f["expected"].split(": ", 1)[0] for f in json.loads(out)["failures"]}
    assert (code == 1) == bool(failing)
    return failing


def test_a_sign_error_fails_its_specialization(capsys, monkeypatch):
    """Each reduction declares one sign convention, so an engine family with
    every sign of (-1)^(n-k) flipped fails its reduction instead of passing
    under another convention."""
    real = families.rows
    for name, _, family, *_ in SPECIALIZATIONS:

        def rows(fam, params, nmax, *args, family=family):
            table = real(fam, params, nmax, *args)
            if fam != family:
                return table
            return (tuple((-1) ** (n - k) * v for k, v in enumerate(row)) for n, row in enumerate(table))

        with monkeypatch.context() as patch:
            patch.setattr(families, "rows", rows)
            assert _failing_reductions(capsys) == {name}, name


def test_a_wrong_entry_fails_its_specialization(capsys, monkeypatch):
    """One wrong entry (6, 1) of a reduction's engine table fails that
    reduction alone, there, under its name."""
    for name, _, family, *_ in SPECIALIZATIONS:
        with monkeypatch.context() as patch:
            _perturb(patch, "rows", family, 6, 1)
            code, out, _ = run(capsys, "verify", "--identity", "specializations")
        failures = json.loads(out)["failures"]
        assert code == 1, name
        assert {(f["n"], f["k"], f["expected"].split(": ", 1)[0]) for f in failures} == {(6, 1, name)}, name


@pytest.mark.parametrize(
    "family, weights, reduction",
    (
        ("whitney1", lambda p: (1, p["alpha"], 0, 1 - p["alpha"]), "whitney-first"),
        ("r-whitney1", lambda p: (1, -p["m"], 0, p["m"] - p["r"]), "r-whitney-first"),
        ("cakic", lambda p: (1, -p["alpha"], 1, p["alpha"] + 1), "cakic"),
    ),
    ids=("whitney1-signs", "r-whitney1-signs", "cakic-c-weight"),
)
def test_a_wrong_engine_weight_fails_its_specialization(capsys, monkeypatch, family, weights, reduction):
    monkeypatch.setitem(families.FAMILIES, family, families.FAMILIES[family]._replace(weights=weights))
    assert _failing_reductions(capsys) == {reduction}


@pytest.mark.parametrize("family", ("stirling2", "lah", "stirling1"))
def test_partial_bell_fails_on_each_engine_family(capsys, monkeypatch, family):
    # partial-bell is one Tables case per engine family; one wrong entry of
    # each family fails its own case alone, at that entry.
    real = families.rows

    def rows(name, params, nmax, *args):
        table = real(name, params, nmax, *args)
        if name != family:
            return table
        table = [list(row) for row in table]
        table[4][2] += 1
        return map(tuple, table)

    monkeypatch.setattr(families, "rows", rows)
    code, out, _ = run(capsys, "verify", "--identity", "partial-bell")
    failures = json.loads(out)["failures"]
    assert code == 1
    assert [(f["n"], f["k"]) for f in failures] == [(4, 2)]
    assert failures[0]["expected"].startswith(f"{family}: ")


@pytest.mark.parametrize("name", ("lef", "horilah", "exprwlah", "bell-reduction", "partial-bell", "specializations"))
def test_streamed_identities_build_no_whole_triangle(capsys, no_whole_triangle, name):
    # The reference and every route of these identities are row streams,
    # compared one row at a time; a solve or a brute-force table may be
    # whole, but no engine triangle is.
    for argv in ((), ("--nmax", "60")):
        code, out, _ = run(capsys, "verify", "--identity", name, *argv)
        assert code == 0 and json.loads(out)["pass"] is True, argv


@pytest.mark.parametrize("change, n, expected, actual", ((-1, 10, "a row", "no row"), (1, 11, "no row", "a row")))
def test_a_route_with_a_wrong_row_count_fails(capsys, monkeypatch, change, n, expected, actual):
    """A route that yields one row fewer, or one more, than its reference
    fails once, at the first row that one of the two lacks: a verification
    failure, not a usage error."""
    ident = REGISTRY["lef"]

    def route(nmax):
        return lah_route("explicit", "lah", nmax + change)

    monkeypatch.setitem(REGISTRY, "lef", ident._replace(check=ident.check._replace(routes=((route, 0),))))
    code, out, _ = run(capsys, "verify", "--identity", "lef", "--nmax", "10")
    assert code == 1 and json.loads(out)["pass"] is False
    assert json.loads(out)["failures"] == [{"n": n, "k": None, "expected": expected, "actual": actual}]


@pytest.mark.parametrize("change, n, expected, actual", ((-1, 25, "a row", "no row"), (1, 26, "no row", "a row")))
def test_a_sequence_route_of_the_wrong_length_fails(capsys, monkeypatch, change, n, expected, actual):
    """A sequence route one term short, or one term long, fails once, at
    the first n that one side lacks, with exit code 1: its terms are
    compared as one-entry rows."""
    real = families.explicit_sequence

    def explicit_sequence(name, params, nmax):
        terms = real(name, params, nmax)
        return terms[:change] if change < 0 else terms + [0] * change

    monkeypatch.setattr(families, "explicit_sequence", explicit_sequence)
    code, out, _ = run(capsys, "verify", "--identity", "qi")
    assert code == 1 and json.loads(out)["pass"] is False
    assert json.loads(out)["failures"] == [{"n": n, "k": None, "expected": expected, "actual": actual}]


@pytest.mark.parametrize("name, family, n, k", (("lgf", "lah", 7, 3), ("weighted-egf", "r-stirling2", 6, 2)))
def test_a_wrong_egf_coefficient_is_named(capsys, monkeypatch, name, family, n, k):
    """An EGF check fails at each coefficient n! [t^n] of the k-th power
    that differs from k! T(n,k), expecting the triangle's value."""
    entry = math.factorial(k) * families.triangle(family, {"r": 2} if family == "r-stirling2" else {}, n).value(n, k)
    _perturb(monkeypatch, "scaled_rows", family, n, k)
    code, out, _ = run(capsys, "verify", "--identity", name)
    assert code == 1
    assert json.loads(out)["failures"] == [
        {"n": n, "k": k, "expected": str(entry + math.factorial(k)), "actual": str(entry)}
    ]


@pytest.mark.parametrize("change", (-1, 1))
def test_a_route_row_of_another_length_fails_once(capsys, monkeypatch, change):
    """A route whose row 5 is one entry short, or one entry long, fails at
    row 5 alone, once, naming both lengths; the rows after it still pass."""
    ident = REGISTRY["lef"]
    ((explicit, kmin),) = ident.check.routes

    def route(nmax):
        for n, row in enumerate(explicit(nmax)):
            yield (row + (0,))[: len(row) + change] if n == 5 else row

    monkeypatch.setitem(REGISTRY, "lef", ident._replace(check=ident.check._replace(routes=((route, kmin),))))
    code, out, _ = run(capsys, "verify", "--identity", "lef", "--nmax", "8")
    assert code == 1
    failures = json.loads(out)["failures"]
    assert failures == [{"n": 5, "k": None, "expected": "6 entries", "actual": f"{6 + change} entries"}]


_TRIPLES = tuple(dict.fromkeys(triple for *_, triple, _, _ in SPECIALIZATIONS))


def test_specializations_solve_each_triple_once(capsys, monkeypatch):
    """The cases of `specializations` at one triple, its reductions and its
    solved pair, share one solve of hs1 and one of hs2, made triple by
    triple in the order the triples first appear in `SPECIALIZATIONS`."""
    real, solved = basis.scaled_solve, []

    def scaled_solve(family, params, nmax):
        solved.append((family, tuple(params.values())))
        return real(family, params, nmax)

    monkeypatch.setattr(basis, "scaled_solve", scaled_solve)
    code, _, _ = run(capsys, "verify", "--identity", "specializations")
    assert code == 0 and len(_TRIPLES) == 7
    assert solved == [(kind, triple) for triple in _TRIPLES for kind in ("hs1", "hs2")]


@pytest.mark.parametrize("triple", _TRIPLES, ids=str)
def test_a_wrong_entry_of_a_solved_pair_fails_under_its_label(capsys, monkeypatch, triple):
    """One wrong entry (3, 1) of the hs1 rows solved at one triple fails
    that triple's solved pair in row 3 and at (3, 1), under its label, and
    no other triple's pair."""
    real = basis.scaled_solve

    def scaled_solve(family, params, nmax):
        scale, rows = real(family, params, nmax)
        if family == "hs1" and tuple(params.values()) == triple:
            rows = (*rows[:3], (rows[3][0], rows[3][1] + 1, *rows[3][2:]), *rows[4:])
        return scale, rows

    monkeypatch.setattr(basis, "scaled_solve", scaled_solve)
    code, out, _ = run(capsys, "verify", "--identity", "specializations")
    pairs = [f for f in json.loads(out)["failures"] if f["expected"].startswith("solved pair at ")]
    assert code == 1
    assert {f["expected"].split(": ", 1)[0] for f in pairs} == {f"solved pair at {triple}"}
    assert {f["n"] for f in pairs} == {3} and any(f["k"] == 1 for f in pairs)


def test_the_declarations_build_no_rows_at_import(monkeypatch):
    """Importing the registry builds no rows, sums or solves: every check
    builds its rows when it runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("built rows at import")

    for module, name in ((families, "scaled_rows"), (families, "rows"), (families, "row_sum"), (basis, "scaled_solve")):
        monkeypatch.setattr(module, name, refuse)
    spec = importlib.util.spec_from_file_location("dowling.registry_at_import", identities.__file__)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_every_identity_declares_where_it_is_checked_at_scale():
    """CI runs every `at_scale` entry through `report`; here only the
    declarations are checked: each identity has an entry, none below its
    default nmax, and `report` takes each entry's parameters (run with an
    empty check, so no entry runs)."""
    for name, ident in REGISTRY.items():
        assert ident.at_scale, name
        for entry in ident.at_scale:
            point = {key: value for key, value in entry.items() if key != "nmax"}
            assert isinstance(entry["nmax"], int) and entry["nmax"] >= ident.defaults["nmax"], (name, entry)
            assert report(ident._replace(check=()), point, entry["nmax"])["pass"], (name, entry)


def test_triples_checks_every_family_of_the_triples_table():
    """`triples` has one case per family of `families.TRIPLES`, labelled by
    it, each with the EGF route and the connection solve."""
    cases = REGISTRY["triples"].check
    assert sorted(case.label for case in cases) == sorted(families.TRIPLES)
    assert {len(case.routes) for case in cases} == {2}


def _sum_reads(monkeypatch, case, nmax) -> set:
    """What a case of `sums` reads at `nmax`, with no row built: each call
    of `families.row_sum`, `scaled_rows` or `explicit_sum`, stubbed to a
    zero sum or rows of one zero, as (entry, family or sum, point, n)."""
    reads = set()

    def stub(entry, value):
        def read(name, params, n, *args):
            reads.add((entry, name, tuple(params.items()), n))
            return value(n)

        return read

    with monkeypatch.context() as patch:
        patch.setattr(families, "row_sum", stub("row_sum", lambda n: 0))
        patch.setattr(families, "explicit_sum", stub("explicit_sum", lambda n: 0))
        patch.setattr(families, "scaled_rows", stub("scaled_rows", lambda n: (1, [(0,)] * (n + 1))))
        assert case(nmax) == [], case.label
    return reads


_HS_HALF = (("alpha", Fraction(1, 2)), ("beta", Fraction(1, 3)), ("gamma", 2))
# The rows that `sums` must check at scale, as `_sum_reads` reads them: the
# engine's rows summed, and the paper's formulas.
_SUM_ROWS = {
    ("scaled_rows", "stirling2", (), 1000),
    ("scaled_rows", "r-whitney2", (("m", 2), ("r", 2)), 2000),
    ("scaled_rows", "whitney2", (("alpha", -2),), 1500),
    ("scaled_rows", "hs1", _HS_HALF, 1000),
    ("scaled_rows", "hs1", (("alpha", Fraction(1, 2)), ("beta", 0), ("gamma", Fraction(1, 3))), 1000),
    ("scaled_rows", "cakic", (("alpha", 2),), 2000),
    ("explicit_sum", "bell", (), 1000),
    ("explicit_sum", "dowling", (("alpha", 3),), 1000),
    ("explicit_sum", "r-bell", (("r", 2),), 1000),
    ("explicit_sum", "r-dowling", (("m", 2), ("r", 2)), 1000),
    ("explicit_sum", "hs-bell", _HS_HALF, 200),
    ("explicit_sum", "cakic-bell", (("alpha", 2),), 200),
}


def test_sums_checks_every_sum_of_the_table(monkeypatch):
    """At its `at_scale` nmax, each case of `sums`, labelled by its sum and
    route, reads its route at one row n and the production `row_sum` of the
    sum's family at the same point and n; together they read every row of
    `_SUM_ROWS` and the formula of every sum of `families.SUMS`."""
    ident, routes = REGISTRY["sums"], set()
    (entry,) = ident.at_scale
    for case in ident.check:
        reads = _sum_reads(monkeypatch, case, entry["nmax"])
        (reference,) = {read for read in reads if read[0] == "row_sum"}
        (route,) = reads - {reference}
        name, kind, *_ = case.label.split()
        family = families.SUMS[name].family
        assert route == {"rolled": ("scaled_rows", family), "formula": ("explicit_sum", name)}[kind] + route[2:]
        assert reference == ("row_sum", family, *route[2:]), case.label
        routes.add(route)
    assert routes >= _SUM_ROWS
    assert {name for entry, name, _, _ in routes if entry == "explicit_sum"} == set(families.SUMS)


@pytest.mark.parametrize(
    "route, cheapest",
    (("rolled", "hs-bell rolled at alpha=1/2, beta=0, gamma=1/3"), ("formula", "cakic-bell formula at alpha=2")),
    ids=("rolled", "formula"),
)
def test_a_wrong_sum_route_fails_its_case_at_its_row(monkeypatch, route, cheapest):
    """Make what a route of `sums` reads one more at the row its case
    checks, entry (n, 1) of the engine's scaled row for "rolled" or the
    explicit sum for "formula": the case fails there alone, at (n, 0),
    under its label.  Every case of the route runs at the default nmax,
    where it checks row 30, and `cheapest` also one past its top, where it
    checks row top."""
    ident = REGISTRY["sums"]
    cases = {case.label: case for case in ident.check if case.label.split()[1] == route}
    ((_, _, _, top),) = {read for read in _sum_reads(monkeypatch, cases[cheapest], 10**4) if read[0] != "row_sum"}
    for case, nmax in (*((case, ident.defaults["nmax"]) for case in cases.values()), (cases[cheapest], top + 1)):
        ((entry, name, _, n),) = {read for read in _sum_reads(monkeypatch, case, nmax) if read[0] != "row_sum"}
        with monkeypatch.context() as patch:
            _perturb(patch, entry, name, n, 1)
            failures = case(nmax)
        assert n == min(nmax, top) and [(f["n"], f["k"]) for f in failures] == [(n, 0)], case.label
        assert failures[0]["expected"].startswith(f"{case.label}: "), case.label


def test_a_rational_pair_is_multiplied_on_ints(capsys, monkeypatch):
    """At (1/2, 1/3, 2), hs-ortho and invrel multiply the scaled ints of
    the pair, one product each: no Fraction reaches `triangles.product`."""
    real, seen = triangles.product, []

    def product(first, second, signed=False):
        def spied(rows):
            for row in rows:
                seen.extend(map(type, row))
                yield row

        seen.append("call")
        return real(spied(first), spied(second), signed)

    monkeypatch.setattr(identities, "product", product)
    for name in ("hs-ortho", "invrel"):
        seen.clear()
        code, _, _ = run(capsys, "verify", "--identity", name, "--alpha", "1/2", "--beta", "1/3", "--gamma", "2")
        assert code == 0, name
        assert seen.count("call") == 1 and set(seen) == {"call", int}, name


def test_a_wrong_entry_of_one_factor_fails_at_its_row(capsys, monkeypatch):
    """One wrong entry (3, 1) of the first factor of an inverse pair changes
    row 3 of the product alone, and its column 1 since the second factor's
    diagonal is 1 or -1: each `Inverse` case fails there, in that row, under
    its label.  The solved pairs inside `specializations`' cases are failed
    by `test_a_wrong_entry_of_a_solved_pair_fails_under_its_label`."""
    cases = [
        (name, i, case)
        for name, ident in REGISTRY.items()
        for i, case in enumerate(_cases(ident))
        if isinstance(case, Inverse)
    ]
    assert len(cases) == 11
    for name, i, case in cases:

        def first(nmax, real=case.first, **point):
            return ((row[0], row[1] + 1, *row[2:]) if n == 3 else row for n, row in enumerate(real(nmax, **point)))

        with monkeypatch.context() as patch:
            patch.setitem(REGISTRY, name, _with_case(REGISTRY[name], i, case._replace(first=first)))
            code, out, _ = run(capsys, "verify", "--identity", name)
        failures = json.loads(out)["failures"]
        prefix = f"{case.label}: " if case.label else ""
        assert code == 1, (name, case.label)
        assert {f["n"] for f in failures} == {3} and any(f["k"] == 1 for f in failures), (name, case.label)
        assert all(f["expected"].startswith(prefix) for f in failures), (name, case.label)


def test_a_failing_case_lists_its_first_failures(capsys, monkeypatch):
    """A route or sequence lists at most its first 20 failures, then one
    failure at no (n, k) that counts the rest, under the case's label."""
    real_rows, real_sequence = families.rows, families.explicit_sequence

    def rows(name, params, nmax, *args):
        table = real_rows(name, params, nmax, *args)
        return (tuple(v + 1 for v in row) for row in table) if name == "lah" else table

    monkeypatch.setattr(families, "rows", rows)
    code, out, _ = run(capsys, "verify", "--identity", "partial-bell")
    failures = json.loads(out)["failures"]
    # Rows 0..10 of the lah case are wrong, 66 entries; rows 0..4 and five
    # entries of row 5 are listed.
    assert code == 1 and len(failures) == 21
    assert [(f["n"], f["k"]) for f in failures[:20]] == [(n, k) for n in range(6) for k in range(n + 1)][:20]
    assert all(f["expected"].startswith("lah: ") for f in failures)
    assert failures[20] == {"n": None, "k": None, "expected": "lah: 20 failures listed", "actual": "46 more"}

    monkeypatch.setattr(families, "explicit_sequence", lambda *args: [v + 1 for v in real_sequence(*args)])
    code, out, _ = run(capsys, "verify", "--identity", "qi")
    failures = json.loads(out)["failures"]
    assert code == 1 and [f["n"] for f in failures] == [*range(20), None]
    assert failures[20] == {"n": None, "k": None, "expected": "20 failures listed", "actual": "6 more"}


def test_verify_builds_every_engine_family(capsys, monkeypatch):
    # `families.rows` reads its rows off `scaled_rows`, as the inverse-pair
    # checks and the `hs-lah` product do.
    built = set()
    real = families.scaled_rows

    def scaled_rows(name, *args):
        built.add(name)
        return real(name, *args)

    monkeypatch.setattr(families, "scaled_rows", scaled_rows)
    code, _, _ = run(capsys, "verify", "--identity", "all")
    assert code == 0
    assert built == set(families.FAMILIES) and len(built) == 16


def test_unused_parameter_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--identity", "lef", "--m", "5")
    assert code == 2 and "does not take --m" in err


def test_partial_parameter_group_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--identity", "log-concavity", "--m", "2")
    assert code == 2 and "--m, --r together" in err
    code, _, err = run(capsys, "verify", "--identity", "ugexp", "--alpha", "1", "--nmax", "3")
    assert code == 2 and "--alpha, --beta, --gamma together" in err


@pytest.mark.parametrize("alpha", ("0", "1/2"))
def test_benoumhani_at_an_invalid_alpha_exits_2(capsys, alpha):
    # The `whitney2` reference validates alpha before Benoumhani's sum, which
    # has no check of its own, is asked for a row.
    message = f"error: alpha must be a nonzero integer, got {alpha}\n"
    assert run(capsys, "verify", "--identity", "benoumhani", "--alpha", alpha) == (2, "", message)


def test_whole_parameter_group_replaces_the_grid(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "ugexp", "--alpha", "1", "--beta", "0", "--gamma", "0", "--nmax", "3"
    )
    assert code == 0
    assert json.loads(out)["params"] == {"alpha": "1", "beta": "0", "gamma": "0"}
    code, out, _ = run(capsys, "verify", "--identity", "log-concavity", "--m", "2", "--r", "1", "--nmax", "6")
    assert code == 0 and json.loads(out)["params"] == {"m": "2", "r": "1"}


def test_negative_nmax_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--identity", "qi", "--nmax", "-1")
    assert code == 2 and "nonnegative" in err


def test_all_gives_each_identity_only_its_parameters(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "all", "--r", "3", "--nmax", "3")
    assert code == 0
    params = {report["identity"]: report["params"] for report in json.loads(out)["identities"]}
    assert params["lef"] == {}
    assert params["lah1"] == {"r": "3"}
    assert params["rw-ortho"] == {"m": "2", "r": "3"}
    assert params["weighted-egf"] == {"r": "3", "order": "12"}
    assert params["log-concavity"] == {}  # its group (m, r) was not given whole
    code, _, err = run(capsys, "verify", "--identity", "all", "--beta", "1")
    assert code == 2 and "no identity takes --beta" in err


def test_series_order_follows_nmax(capsys):
    # The series order of weighted-egf is 12 up to nmax 12, and nmax above it.
    code, out, _ = run(capsys, "verify", "--identity", "weighted-egf", "--nmax", "20")
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["params"] == {"r": "2", "order": "20"}
    code, out, _ = run(capsys, "verify", "--identity", "all", "--nmax", "13")
    assert code == 0 and json.loads(out)["pass"] is True


# Points of each Lah-type family: the parameter sets its route tests ran at.
LAH_POINTS = {
    "lah": ({},),
    "whitney-lah": tuple({"alpha": a} for a in (1, 2, 3, 5)),
    "r-lah": tuple({"r": r} for r in range(4)),
    "r-whitney-lah": ({"m": 1, "r": 1}, {"m": 2, "r": 2}, {"m": 3, "r": 2}, {"m": 2, "r": 0}),
}


@pytest.mark.parametrize("family", sorted(LAH_TYPES))
def test_lah_types_are_r_whitney_lah_at_their_declared_point(family):
    """Each family's engine rows are sign^n times the r-Whitney-Lah rows at
    its declared (m, r)."""
    assert set(LAH_POINTS) == set(LAH_TYPES)
    lah = LAH_TYPES[family]
    for point in LAH_POINTS[family]:
        m, r = lah.mr(point)
        base = families.triangle("r-whitney-lah", {"m": m, "r": r}, 12).rows
        signed = tuple(tuple(lah.sign**n * v for v in row) for n, row in enumerate(base))
        assert families.triangle(family, point, 12).rows == signed, point
        assert tuple(lah_route("explicit", family, 12, **point)) == signed, point


def test_explicit_route_at_a_negative_step():
    # 2 + k*alpha vanishes at k = 2 for alpha = -1 and at k = 1 for alpha = -2:
    # the entries from there left are 0, and the walk from k = n down reaches
    # them without a 0/0.
    for alpha in (-1, -2, -7):
        rows = families.triangle("whitney-lah", {"alpha": alpha}, 20).rows
        assert tuple(lah_route("explicit", "whitney-lah", 20, alpha=alpha)) == rows, alpha


@pytest.mark.parametrize(
    "name, columns",
    (
        ("verlah", (("vertical", 0),)),
        ("horilah", (("horizontal", 0),)),
        ("ordlahstirling", (("product", 0),)),
        ("wla1", (("explicit", 0), ("product", 0))),
        ("lah1", (("explicit", 0), ("product", 0))),
        ("rwhitneylah", (("product", 0),)),
        ("triwlah", (("vertical", 1), ("horizontal", 0), ("product", 0))),
        ("rwlah-routes", (("explicit", 0), ("product", 0), ("vertical", 1), ("horizontal", 0))),
        ("lef", (("explicit", 0),)),
        ("exprwlah", (("explicit", 0),)),
    ),
)
def test_lah_type_identities_keep_their_routes(name, columns):
    """The `lah_route` kinds of each Lah-type identity, in order, and the
    first column each is compared from."""
    assert tuple((route.args[0], kmin) for route, kmin in REGISTRY[name].check.routes) == columns


def test_lah_routes_validate_their_parameters():
    """An integral Fraction, as the CLI passes `--alpha 3`, runs on ints; a
    proper one is refused before any route runs."""
    for kind in ("explicit", "vertical", "horizontal", "product"):
        rows = tuple(lah_route(kind, "whitney-lah", 6, alpha=Fraction(3)))
        assert rows == tuple(lah_route(kind, "whitney-lah", 6, alpha=3))
        assert {type(v) for row in rows for v in row} == {int}
        with pytest.raises(UsageError, match="alpha must be a nonzero integer, got 1/2"):
            lah_route(kind, "whitney-lah", 6, alpha=Fraction(1, 2))
        with pytest.raises(UsageError, match="m must be a positive integer, got 0"):
            lah_route(kind, "r-whitney-lah", 6, m=0, r=1)
    with pytest.raises(ValueError, match="unknown Lah-type route"):
        lah_route("diagonal", "lah", 6)


# The identities that catch each engine family with its weight a, b or c
# raised by 1, exactly: every such mutant is caught at least three times,
# always by `triples`, which reads every family but `hs-lah`.  `oracle`
# catches `lah` since it reads the engine table, and `sums` each family that
# one of its formulas reads.  The whitney-lah mutant of weight c is still its
# own inverse, so `ortho` and `inv1` pass it.
_W_LAH_CATCHERS = {"wla1", "triwlah", "dow1", "specializations", "triples", "sums"}
_HS_CATCHERS = {"ugexp", "cakic-bell", "specializations", "triples", "sums"}
MUTANT_CATCHERS = {
    "stirling1": dict.fromkeys("abc", {"partial-bell", "stirling-inverse", "triples"}),
    "stirling2": dict.fromkeys(
        "abc",
        {
            "qi", "ordlahstirling", "stirling-inverse", "partial-bell", "benoumhani", "bell-reduction", "oracle",
            "triples", "sums",
        },
    ),
    "lah": dict.fromkeys(
        "abc", {"lef", "verlah", "horilah", "lgf", "ordlahstirling", "partial-bell", "oracle", "triples"}
    ),
    "whitney1": dict.fromkeys("abc", {"engine-ortho", "specializations", "triples"}),
    "whitney2": dict.fromkeys(
        "abc",
        {
            "wla1", "triwlah", "whitney-ortho", "benoumhani", "dow1", "bell-reduction", "engine-ortho",
            "specializations", "triples", "sums",
        },
    ),
    "whitney-lah": {**dict.fromkeys("ab", _W_LAH_CATCHERS | {"ortho", "inv1"}), "c": _W_LAH_CATCHERS},
    "r-stirling1": dict.fromkeys("abc", {"lah1", "lah4", "specializations", "triples"}),
    "r-stirling2": dict.fromkeys(
        "abc", {"expb", "lah1", "lah4", "oracle", "specializations", "weighted-egf", "triples", "sums"}
    ),
    "r-lah": dict.fromkeys("abc", {"qi", "lah1", "expb", "specializations", "oracle", "triples", "sums"}),
    "r-whitney1": dict.fromkeys("abc", {"engine-ortho", "specializations", "triples"}),
    "r-whitney2": dict.fromkeys(
        "abc", {"rw-ortho", "rw-inv", "engine-ortho", "expl-rdow", "specializations", "triples", "sums"}
    ),
    "r-whitney-lah": dict.fromkeys(
        "abc", {"rwhitneylah", "exprwlah", "rwlah-routes", "expl-rdow", "specializations", "triples", "sums"}
    ),
    "hs1": dict.fromkeys("abc", _HS_CATCHERS | {"hs-ortho"}),
    "hs2": dict.fromkeys("abc", _HS_CATCHERS | {"invrel"}),
    "cakic": dict.fromkeys("abc", {"cakic-bell", "specializations", "triples", "sums"}),
}


def _catches(ident, point=None, nmax=None) -> bool:
    """Whether `ident` fails or raises at `point` and `nmax` (its defaults
    where None).  A `UsageError` is no catch: a refused point has checked
    nothing, so it leaves as itself."""
    try:
        return not report(ident, point, nmax)["pass"]
    except UsageError:
        raise
    except Exception:
        return True


def _catching(monkeypatch, family, weight) -> set:
    """The identities that catch `family` with its engine weight a, b or c
    raised by 1.  Every identity runs at its defaults on the mutant; one
    that fails or raises has caught it."""
    real = families.FAMILIES[family]
    index = " abc".index(weight)

    def weights(p):
        mutated = list(real.weights(p))
        mutated[index] += 1
        return tuple(mutated)

    monkeypatch.setitem(families.FAMILIES, family, real._replace(weights=weights))
    return {name for name, ident in REGISTRY.items() if _catches(ident)}


@pytest.mark.parametrize("weight", "abc")
@pytest.mark.parametrize("family", sorted(MUTANT_CATCHERS))
def test_a_wrong_lah_type_weight_is_caught(monkeypatch, family, weight):
    """The mutation gate, over every engine family (the Lah types were its
    first): each single-weight mutant is caught by exactly its declared
    identities, at least three."""
    assert set(MUTANT_CATCHERS) == {name for name, fam in families.FAMILIES.items() if fam.weights}
    assert len(MUTANT_CATCHERS[family][weight]) >= 3
    assert _catching(monkeypatch, family, weight) == MUTANT_CATCHERS[family][weight]


@pytest.mark.parametrize("weight", "abc")
@pytest.mark.parametrize("family", ("whitney1", "r-whitney1"))
def test_a_wrong_first_kind_weight_is_caught_twice(family, weight):
    """The engine's first kinds are caught by the solved s1 of
    `specializations`, by `engine-ortho`, which multiplies each by its
    engine second kind, and by both routes of `triples`; the gate above
    runs them."""
    assert MUTANT_CATCHERS[family][weight] == {"specializations", "engine-ortho", "triples"}


def _r_whitney_lah_c_as_rm_minus_m(monkeypatch):
    """r-Whitney-Lah with weight c = r*m - m instead of 2r - m: right
    wherever m = 2 (or r = 0)."""
    real = families.FAMILIES["r-whitney-lah"]

    def weights(p):
        return 1, p["m"], p["m"], p["r"] * p["m"] - p["m"]

    monkeypatch.setitem(families.FAMILIES, "r-whitney-lah", real._replace(weights=weights))


def _lah_route_r_squared(monkeypatch):
    """`2 * r` read as `r * r` by the explicit, vertical and horizontal
    routes of `lah_route`: right at r = 0 and r = 2.  Each route's c = 2r
    becomes (c // 2)^2 on the way in."""
    for name, at in (("explicit_row", 1), ("vertical_rows", 2), ("horizontal_rows", 2)):
        real = getattr(identities, name)

        def mutated(*args, real=real, at=at):
            return real(*args[:at], (args[at] // 2) ** 2, *args[at + 1 :])

        monkeypatch.setattr(identities, name, mutated)


# The two mutants that are right at the default points of all but a few
# identities: the catchers at the defaults, exactly, and the `at_scale`
# entries that fail too, so each is caught at least twice.
PARAMETER_MUTANTS = {
    "r-whitney-lah-weight-c": (
        _r_whitney_lah_c_as_rm_minus_m,
        {"triples"},
        [("triples", {"nmax": 60}), ("rwlah-routes", {"nmax": 24, "m": 3, "r": 1})],
    ),
    "lah-route-r-squared": (
        _lah_route_r_squared,
        {"wla1", "triwlah"},
        [("lah1", {"nmax": 30, "r": 3}), ("rwlah-routes", {"nmax": 24, "m": 3, "r": 1})],
    ),
}


@pytest.mark.parametrize("mutant", sorted(PARAMETER_MUTANTS))
def test_a_parameter_shaped_mutant_is_caught_at_the_defaults_and_at_scale(monkeypatch, mutant):
    mutate, at_defaults, at_scale = PARAMETER_MUTANTS[mutant]
    mutate(monkeypatch)
    assert {name for name, ident in REGISTRY.items() if _catches(ident)} == at_defaults
    for name, entry in at_scale:
        assert entry in REGISTRY[name].at_scale
        point = {key: value for key, value in entry.items() if key != "nmax"}
        assert _catches(REGISTRY[name], point, entry["nmax"]), (name, entry)


def test_a_weight_right_only_at_the_default_points_fails_triples(capsys, monkeypatch):
    """The r-Whitney-Lah mutant above is right at (m, r) = (2, 2), where
    every other identity reads it; `triples` reads it at (3, 2) and is the
    one identity that fails."""
    _r_whitney_lah_c_as_rm_minus_m(monkeypatch)
    code, out, _ = run(capsys, "verify", "--identity", "all")
    assert code == 1
    assert [r["identity"] for r in json.loads(out)["identities"] if not r["pass"]] == ["triples"]
