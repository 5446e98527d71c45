"""The identity registry: every table and sequence check can fail, every
specialization fails on a sign error, `verify` builds every engine family,
and `verify` takes only the parameters an identity declares."""

import json

import pytest

from dowling import families
from dowling.cli import main
from dowling.identities import REGISTRY, SPECIALIZATIONS, Sequences, Tables
from dowling.triangles import checkerboard


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _default_point(ident):
    if ident.grid:
        return dict(ident.grid[0])
    params = {key: value for key, value in ident.defaults.items() if key != "nmax"}
    return {**params, **ident.fixed}


def _reference_source(ident, monkeypatch):
    """The (family-table entry point, family) the reference is built from."""
    seen = set()
    with monkeypatch.context() as patch:
        for entry in ("triangle", "row_sum"):
            real = getattr(families, entry)

            def spy(name, *args, entry=entry, real=real):
                seen.add((entry, name))
                return real(name, *args)

            patch.setattr(families, entry, spy)
        ident.check.reference(ident.defaults["nmax"], **_default_point(ident))
    (source,) = seen
    return source


def test_every_table_and_sequence_check_can_fail(capsys, monkeypatch):
    """Perturb the production family behind each reference at one entry,
    wherever it is built, and the check must fail there.  A route that
    reads the same production family instead of computing the entry its own
    way would be perturbed alike and pass, so this also catches a route
    compared with itself."""
    names = [name for name, ident in REGISTRY.items() if isinstance(ident.check, (Tables, Sequences))]
    assert len(names) == 17
    for name in names:
        ident = REGISTRY[name]
        entry, family = _reference_source(ident, monkeypatch)
        n0 = ident.defaults["nmax"]
        k0 = 1 if isinstance(ident.check, Tables) else None
        real = getattr(families, entry)

        def triangle(name, params, nmax):
            table = real(name, params, nmax)
            if name != family or nmax < n0:
                return table
            rows = [list(row) for row in table.rows]
            rows[n0][k0] += 1
            return table._replace(rows=rows)

        def row_sum(name, params, n):
            value = real(name, params, n)
            return value + 1 if name == family and n == n0 else value

        with monkeypatch.context() as patch:
            patch.setattr(families, entry, triangle if entry == "triangle" else row_sum)
            code, out, _ = run(capsys, "verify", "--identity", name)
        failures = json.loads(out)["failures"]
        assert code == 1, name
        assert any(f["n"] == n0 and f["k"] == k0 for f in failures), name


def test_hs_pair_checks_read_the_engine(capsys, monkeypatch):
    """hs-ortho multiplies the engine s1 by the solved s2, and invrel runs the
    solved s1 into the engine s2, so one wrong engine entry fails each of
    them at every grid point."""
    real = families.triangle
    for name, family in (("hs-ortho", "hs1"), ("invrel", "hs2")):

        def triangle(fam, params, nmax, family=family):
            table = real(fam, params, nmax)
            if fam != family:
                return table
            rows = [list(row) for row in table.rows]
            rows[2][1] += 1
            return table._replace(rows=rows)

        with monkeypatch.context() as patch:
            patch.setattr(families, "triangle", triangle)
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
    real = families.triangle
    for name, _, family, *_ in SPECIALIZATIONS:

        def triangle(fam, params, nmax, family=family):
            table = real(fam, params, nmax)
            return checkerboard(table) if fam == family else table

        with monkeypatch.context() as patch:
            patch.setattr(families, "triangle", triangle)
            assert _failing_reductions(capsys) == {name}, name


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
    # partial-bell compares three engine tables, so no one reference covers it
    # in the test above; one wrong entry of each fails it there alone.
    real = families.triangle

    def triangle(name, params, nmax):
        table = real(name, params, nmax)
        if name != family:
            return table
        rows = [list(row) for row in table.rows]
        rows[4][2] += 1
        return table._replace(rows=rows)

    monkeypatch.setattr(families, "triangle", triangle)
    code, out, _ = run(capsys, "verify", "--identity", "partial-bell")
    assert code == 1
    assert [(f["n"], f["k"]) for f in json.loads(out)["failures"]] == [(4, 2)]


def test_verify_builds_every_engine_family(capsys, monkeypatch):
    built = set()
    real = families.triangle

    def triangle(name, params, nmax):
        built.add(name)
        return real(name, params, nmax)

    monkeypatch.setattr(families, "triangle", triangle)
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
