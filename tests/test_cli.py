import decimal
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dowling import basis, families, triangles
from dowling.cli import (
    EXACT_DECIMALS,
    main,
    run_paper_tables,
    triangle_from_json,
    triangle_json,
    unlimited_int_digits,
)
from dowling.rnumbers import r_whitney_lah_explicit
from dowling.unified import hs_pair_by_solve


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triangle_table_format(capsys):
    code, out, _ = run(capsys, "triangle", "--family", "r-lah", "--r", "2", "--nmax", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[2].split("|")[1].split() == ["20", "10", "1"]
    assert lines[5].split("|")[1].split() == ["6720", "8400", "3360", "560", "40", "1"]


def test_triangle_nmax_zero(capsys):
    code, out, _ = run(capsys, "triangle", "--family", "stirling2", "--nmax", "0")
    assert code == 0
    assert out.strip().endswith("1")


def test_triangle_csv_format(capsys):
    code, out, _ = run(
        capsys, "triangle", "--family", "whitney2", "--alpha", "3", "--nmax", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,value"
    assert len(lines) == 1 + 10
    assert "3,1,21" in lines
    assert "3,2,12" in lines


def test_triangle_json_roundtrip_is_byte_identical(capsys):
    code, out, _ = run(
        capsys, "triangle", "--family", "r-lah", "--r", "2", "--nmax", "4", "--format", "json"
    )
    assert code == 0
    tri = triangle_from_json(out)
    assert tri.rows == families.triangle("r-lah", {"r": 2}, 4).rows
    assert triangle_json(tri, tri.family, tri.params) == out
    obj = json.loads(out)
    assert obj["rows"][2] == ["20", "10", "1"]
    assert obj["params"] == {"r": "2"}


def test_rational_triangle_json_roundtrip_is_byte_identical(capsys):
    code, out, _ = run(
        capsys,
        "triangle", "--family", "hs1",
        "--alpha", "1/2", "--beta", "1/3", "--gamma", "2",
        "--nmax", "2", "--format", "json",
    )
    assert code == 0
    mat = triangle_from_json(out)
    assert mat.rows == hs_pair_by_solve(2, (Fraction(1, 2), Fraction(1, 3), 2)).s1.rows
    assert mat.rows[2][1] == Fraction(23, 6)
    assert mat == families.triangle("hs1", mat.params, 2)
    assert triangle_json(mat, mat.family, mat.params) == out


def _int_rendering(table, fmt: str, family: str, params: dict) -> str:
    """A triangle as the CLI printed it from a whole `Triangle`: every entry
    turned into its str first, then formatted."""
    rows = [[str(v) for v in row] for row in table.rows]
    if fmt == "table":
        width = max(len(v) for row in rows for v in row)
        label_width = len(str(len(rows) - 1))
        lines = [
            f"{str(n).rjust(label_width)} | " + "  ".join(v.rjust(width) for v in row)
            for n, row in enumerate(rows)
        ]
    elif fmt == "csv":
        lines = ["n,k,value"]
        lines += [f"{n},{k},{v}" for n, row in enumerate(rows) for k, v in enumerate(row)]
    else:
        strings = {key: str(value) for key, value in params.items()}
        obj = {"family": family, "params": strings, "nmax": len(rows) - 1, "rows": rows}
        return json.dumps(obj, indent=2) + "\n"
    return "\n".join(lines) + "\n"


def _triangle_argv(family: str, params: dict, nmax: int, fmt: str) -> list:
    argv = ["triangle", "--family", family, "--nmax", str(nmax), "--format", fmt]
    return argv + [arg for key, value in params.items() for arg in (f"--{key}", str(value))]


# Parameter points of every family, by the parameters it takes: negative steps
# and r = 0 give the zero columns and negative weights where a decimal -0
# could appear (hs1 at (1, 0, 0) and cakic at 2 among them); the rational
# points give Fraction entries.
_POINTS = {
    (): ({},),
    ("alpha",): ({"alpha": 2}, {"alpha": -3}),
    ("r",): ({"r": 0}, {"r": 2}),
    ("m", "r"): ({"m": 1, "r": 0}, {"m": 3, "r": 2}),
    ("alpha", "beta", "gamma"): (
        {"alpha": 1, "beta": 0, "gamma": 0},
        {"alpha": 0, "beta": 1, "gamma": 2},
        {"alpha": Fraction(1, 2), "beta": Fraction(1, 3), "gamma": 2},
    ),
}
_CAKIC_POINTS = ({"alpha": 2}, {"alpha": -1}, {"alpha": Fraction(1, 2)})


def _family_points(names):
    return [
        (name, params)
        for name in names
        for params in (_CAKIC_POINTS if name == "cakic" else _POINTS[families.FAMILIES[name].needs])
    ]


def _point_id(value):
    return value if isinstance(value, str) else ",".join(f"{k}={v}" for k, v in value.items()) or "none"


@pytest.mark.parametrize("family, params", _family_points(families.FAMILIES), ids=_point_id)
def test_integer_triangles_print_as_their_int_entries(capsys, family, params):
    # The CLI prints every family from `families.rows`, integer entries as
    # decimals; the bytes must be those of the whole `Triangle`, with no "-0"
    # from a negative weight times 0.
    for nmax in (0, 1, 12):
        table = families.triangle(family, params, nmax)
        for fmt in ("table", "csv", "json"):
            code, out, _ = run(capsys, *_triangle_argv(family, params, nmax, fmt))
            assert code == 0
            assert out == _int_rendering(table, fmt, family, params), (nmax, fmt)


@pytest.mark.parametrize(
    "family, params",
    _family_points(name for name in families.FAMILIES if name != "hs-lah"),
    ids=_point_id,
)
def test_engine_families_print_without_a_whole_triangle(monkeypatch, capsys, family, params):
    # Every family but the product `hs-lah` streams from the engine's rows;
    # none may build a `Triangle` to print.
    table = families.triangle(family, params, 6)
    expected = {fmt: _int_rendering(table, fmt, family, params) for fmt in ("table", "csv", "json")}

    def refuse(*args, **kwargs):
        raise AssertionError("built a whole triangle")

    monkeypatch.setattr(families, "triangle", refuse)
    monkeypatch.setattr(triangles, "recurrence_triangle", refuse)
    for fmt, text in expected.items():
        code, out, _ = run(capsys, *_triangle_argv(family, params, 6, fmt))
        assert code == 0 and out == text, fmt


@pytest.mark.parametrize(
    "family, params",
    (
        ("stirling2", {}),
        ("hs1", {"alpha": Fraction(1, 2), "beta": Fraction(1, 3), "gamma": 2}),
        ("cakic", {"alpha": 2}),
    ),
    ids=("no params", "hs1", "cakic"),
)
@pytest.mark.parametrize("nmax", (0, 1, 5))
def test_streamed_json_is_json_dumps(capsys, family, params, nmax):
    table = families.triangle(family, params, nmax)
    expected = _int_rendering(table, "json", family, params)
    assert triangle_json(table, family, params) == expected
    code, out, _ = run(capsys, *_triangle_argv(family, params, nmax, "json"))
    assert code == 0 and out == expected


def test_decimal_rows_never_round():
    assert EXACT_DECIMALS.traps[decimal.Inexact] and EXACT_DECIMALS.traps[decimal.Rounded]
    with decimal.localcontext(EXACT_DECIMALS), pytest.raises(decimal.Inexact):
        decimal.Decimal("0.5").quantize(decimal.Decimal(1))


def test_json_values_are_strings_for_big_entries(capsys):
    code, out, _ = run(
        capsys, "triangle", "--family", "stirling2", "--nmax", "60", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert all(isinstance(v, str) for row in obj["rows"] for v in row)
    assert int(obj["rows"][60][30]) > 2 ** 64


def test_sum_command(capsys):
    code, out, _ = run(capsys, "sum", "--family", "r-dowling", "--m", "2", "--r", "2", "--n", "4")
    assert code == 0 and out.strip() == "257"
    code, out, _ = run(capsys, "sum", "--family", "dowling", "--alpha", "3", "--n", "3")
    assert code == 0 and out.strip() == "35"
    code, out, _ = run(capsys, "sum", "--family", "bell", "--n", "0")
    assert code == 0 and out.strip() == "1"


def test_sum_rational_family(capsys):
    code, out, _ = run(
        capsys, "sum", "--family", "hs-bell", "--alpha", "0", "--beta", "1", "--gamma", "2", "--n", "3"
    )
    assert code == 0 and out.strip() == "37"


def test_triangle_rational_entries_render_as_fractions(capsys):
    code, out, _ = run(
        capsys,
        "triangle", "--family", "hs1",
        "--alpha", "1/2", "--beta", "1/3", "--gamma", "2",
        "--nmax", "3", "--format", "csv",
    )
    assert code == 0
    values = [line.split(",")[2] for line in out.strip().splitlines()[1:]]
    assert any("/" in v for v in values)
    assert values[0] == "1"


def test_rational_table_prints_each_entry_once(monkeypatch, capsys):
    # The column width and the cells of a table read the same str of each
    # rational entry; CPython's int -> str is quadratic in the digits.
    params = {"alpha": Fraction(1, 2), "beta": Fraction(1, 3), "gamma": 2}
    table = families.triangle("hs1", params, 12)
    expected = _int_rendering(table, "table", "hs1", params)
    argv = _triangle_argv("hs1", params, 12, "table")
    printed = []
    real = Fraction.__str__

    def spy(self):
        printed.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "__str__", spy)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == expected
    assert len(printed) == sum(map(len, table.rows))


def test_verify_pass_report(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "dow1", "--alpha", "3", "--nmax", "8")
    assert code == 0
    report = json.loads(out)
    assert report["identity"] == "dow1"
    assert report["pass"] is True
    assert report["failures"] == []
    assert report["nmax"] == 8


def test_verify_trivial_nmax(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "ortho", "--nmax", "0")
    assert code == 0 and json.loads(out)["pass"] is True


def test_verify_expb(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "expb", "--r", "2", "--nmax", "10")
    assert code == 0 and json.loads(out)["pass"] is True


def test_verify_unknown_identity_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--identity", "nonsense")
    assert code == 2
    assert "unknown identity" in err


def test_verify_oracle_needs_flag(capsys):
    code, _, err = run(capsys, "verify", "--identity", "oracle")
    assert code == 2 and "--with-oracle" in err
    code, out, _ = run(capsys, "verify", "--identity", "oracle", "--with-oracle", "--nmax", "6")
    assert code == 0 and json.loads(out)["pass"] is True


def test_unknown_family_exits_2(capsys):
    code, _, err = run(capsys, "triangle", "--family", "nope", "--nmax", "3")
    assert code == 2 and "unknown family" in err


def test_missing_parameter_exits_2(capsys):
    code, _, err = run(capsys, "triangle", "--family", "r-lah", "--nmax", "3")
    assert code == 2 and "--r" in err


def test_invalid_parameter_exits_2(capsys):
    code, _, err = run(capsys, "triangle", "--family", "r-lah", "--r", "x", "--nmax", "3")
    assert code == 2
    code, _, err = run(capsys, "triangle", "--family", "whitney2", "--alpha", "0", "--nmax", "3")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    (
        ("triangle", "--family", "stirling2", "--alpha", "3", "--nmax", "2"),
        ("sum", "--family", "bell", "--m", "7", "--n", "3"),
        ("bench", "--family", "lah", "--r", "5", "--nmax", "3"),
    ),
    ids=lambda argv: argv[0],
)
def test_parameter_the_family_does_not_take_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"does not take {argv[3]}" in err


def test_paper_tables_all_match(capsys):
    code, out, _ = run(capsys, "paper-tables")
    assert code == 0
    assert "MISMATCH" not in out
    assert out.count("ok") == 14
    assert "all reference tables match" in out


def test_run_paper_tables_returns_mismatch_count():
    import io

    sink = io.StringIO()
    assert run_paper_tables(out=sink) == 0


def test_bench_runs(capsys):
    code, out, _ = run(capsys, "bench", "--family", "stirling2", "--nmax", "40")
    assert code == 0
    assert "peak bits" in out and "elapsed" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "tri.json"
    code, out, _ = run(
        capsys,
        "triangle", "--family", "stirling2", "--nmax", "3", "--format", "json", "--out", str(target),
    )
    assert code == 0 and out == ""
    obj = json.loads(target.read_text())
    assert obj["rows"][3] == ["0", "1", "3", "1"]


def test_bench_out_file(tmp_path, capsys):
    target = tmp_path / "bench.txt"
    code, out, _ = run(capsys, "bench", "--family", "stirling2", "--nmax", "40", "--out", str(target))
    assert code == 0 and out == ""
    lines = target.read_text().splitlines()
    assert lines[:4] == ["family        stirling2", "nmax          40", "entries       861", "peak bits     115"]
    assert lines[4].startswith("elapsed (s)   ") and len(lines) == 5


def test_unlimited_int_digits_without_the_setter(monkeypatch, capsys):
    # Interpreters before 3.10.7 have no digit limit and no setter for it.
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    limit = sys.get_int_max_str_digits()
    with unlimited_int_digits():
        assert sys.get_int_max_str_digits() == limit
    assert sys.get_int_max_str_digits() == limit
    code, out, _ = run(capsys, "sum", "--family", "bell", "--n", "10")
    assert code == 0 and out == "115975\n"


@pytest.mark.parametrize(
    "argv",
    (
        ("triangle", "--family", "stirling2", "--nmax", "3"),
        ("sum", "--family", "bell", "--n", "3"),
        ("verify", "--identity", "lef", "--nmax", "3"),
    ),
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("where", ("missing directory", "directory", "full device"))
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, where):
    if where == "missing directory":
        target = tmp_path / "missing" / "x"
    elif where == "directory":
        target = tmp_path
    else:
        # An existing file that opens but fails on write (ENOSPC).
        target = Path("/dev/full")
        if not target.exists():
            pytest.skip("no /dev/full")
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write --out {target}: ")


@pytest.mark.parametrize("existing", (True, False), ids=("existing file", "no file"))
@pytest.mark.parametrize(
    "argv",
    (
        ("--family", "whitney2", "--alpha", "0"),
        ("--family", "r-lah", "--r", "-1"),
        ("--family", "whitney-lah", "--alpha", "1/2"),
    ),
    ids=lambda argv: argv[1],
)
def test_parameter_error_leaves_out_untouched(tmp_path, capsys, argv, existing):
    # Triangles are written as they are built, so the parameters must be
    # checked before the --out file is opened (and truncated).
    target = tmp_path / "out.txt"
    if existing:
        target.write_text("kept\n")
    code, out, err = run(capsys, "triangle", *argv, "--nmax", "3", "--out", str(target))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert target.read_text() == "kept\n" if existing else not target.exists()


def test_importing_the_cli_leaves_the_registry_unloaded():
    # Only `verify` needs the identity registry; every other command skips its
    # import.  Every call pays for what the CLI imports at start, so it loads
    # neither `dataclasses` (which imports `inspect`) nor `json`, and the
    # registry no `dataclasses` either; -S keeps a site hook from loading them.
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    for module, absent in (
        ("dowling.cli", ("dowling.identities",)),
        ("dowling.cli", ("dataclasses", "inspect", "json")),
        ("dowling.identities", ("dataclasses",)),
    ):
        check = f"import sys, {module}; sys.exit(' '.join(m for m in {absent!r} if m in sys.modules) or None)"
        result = subprocess.run([sys.executable, "-S", "-c", check], env=env, capture_output=True, text=True)
        assert result.returncode == 0, (module, result.stderr)
    # The per-layer tracer in `perfbench` wraps `Triangle.__post_init__` and
    # reads `basis.CoeffMatrix`; a triangle stays immutable, and `_replace`
    # validates like any other construction.
    assert "__post_init__" in vars(triangles.Triangle)
    assert basis.CoeffMatrix is triangles.Triangle
    table = triangles.Triangle(((1,),))
    with pytest.raises(AttributeError):
        table.rows = ((2,),)
    with pytest.raises(ValueError):
        table._replace(rows=((1, 2),))


def test_entries_past_the_int_str_digit_limit(capsys):
    # Row 95 at m = 10**50 holds entries of about 4800 digits, past CPython's
    # default limit of 4300 on int <-> str conversion.
    argv = ("triangle", "--family", "r-whitney-lah", "--m", str(10**50), "--r", "0", "--nmax", "95")
    code, csv, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    last = [line.split(",")[2] for line in csv.splitlines()[1:] if line.startswith("95,")]
    assert len(last) == 96 and max(len(value) for value in last) > 4300
    code, text, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    tri = triangle_from_json(text)
    assert tri.row(95) == tuple(r_whitney_lah_explicit(95, k, 10**50, 0) for k in range(96))
    with unlimited_int_digits():
        assert [str(v) for v in tri.row(95)] == last
        assert triangle_json(tri, tri.family, tri.params) == text
