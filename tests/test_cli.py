import decimal
import errno
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dowling
from dowling import basis, cli, families, triangles
from dowling.cli import (
    EXACT_DECIMALS,
    main,
    triangle_json,
    unlimited_int_digits,
)
from dowling.identities import PAPER_TABLES, REGISTRY


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one call."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _subprocess_env() -> dict:
    """The environment of a child Python that imports `dowling` from src,
    with stdout block-buffered as it is by default."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def json_text(table) -> str:
    """What `triangle_json` writes for a table."""
    out = io.StringIO()
    triangle_json(table, out)
    return out.getvalue()


def triangle_from_json(text: str) -> triangles.Triangle:
    """Read back what `triangle_json` wrote; entries of a rational family are
    read as exact rationals, those of any other family as integers."""
    obj = json.loads(text)
    family = families.FAMILIES.get(obj["family"])
    parse = Fraction if family is not None and family.rational else int
    with unlimited_int_digits():
        rows = tuple(tuple(map(parse, row)) for row in obj["rows"])
        params = {key: Fraction(value) for key, value in obj["params"].items()}
    params = {key: value.numerator if value.denominator == 1 else value for key, value in params.items()}
    table = triangles.Triangle(rows, obj["family"], params)
    assert table.nmax == obj["nmax"], (table.nmax, obj["nmax"])
    return table


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
    assert json_text(tri) == out
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
    assert mat.rows[2][1] == Fraction(23, 6)
    assert mat == families.triangle("hs1", mat.params, 2)
    assert json_text(mat) == out


def _int_rendering(rows, fmt: str, family: str, params: dict) -> str:
    """A triangle as the CLI printed it from the rows of a whole `Triangle`:
    every entry turned into its str first, then formatted."""
    rows = [[str(v) for v in row] for row in rows]
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
    for nmax in (0, 1, 2, 12):
        table = families.triangle(family, params, nmax)
        for fmt in ("table", "csv", "json"):
            code, out, _ = run(capsys, *_triangle_argv(family, params, nmax, fmt))
            assert code == 0
            assert out == _int_rendering(table.rows, fmt, family, params), (nmax, fmt)


@pytest.mark.parametrize(
    "family, params",
    (("lah", {}), ("whitney-lah", {"alpha": -1}), ("whitney-lah", {"alpha": 1}), ("whitney-lah", {"alpha": 2})),
    ids=_point_id,
)
def test_table_width_from_a_negative_entry_above_the_last_row(capsys, family, params):
    # A table's column width is read off the largest and smallest entry of
    # each row; here the widest entry is a negative one in row 1, wider than
    # any of row 2 (and lah's row 2 starts with a decimal -0).
    table = families.triangle(family, params, 2)
    widths = [max(len(str(v)) for v in row) for row in table.rows]
    assert widths[1] > widths[2] and len(str(min(table.rows[1]))) == widths[1]
    code, out, _ = run(capsys, *_triangle_argv(family, params, 2, "table"))
    assert code == 0 and out == _int_rendering(table.rows, "table", family, params)


def test_table_streams_in_one_rows_memory(tmp_path):
    # The column width comes from a first pass over the int rows and the
    # lines from the decimal rows, one row at a time.  Holding every decimal
    # row of this triangle takes 11 MB of traced memory; streamed, the peak
    # is under 1 MB.
    target = tmp_path / "table.txt"
    argv = _triangle_argv("r-whitney-lah", {"m": 3, "r": 2}, 300, "table") + ["--out", str(target)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 << 20, peak
    with target.open() as lines:
        assert sum(1 for _ in lines) == 301


@pytest.mark.parametrize("family, params", _family_points(families.FAMILIES), ids=_point_id)
def test_engine_families_print_without_a_whole_triangle(capsys, no_whole_triangle, family, params):
    # Every family streams from the engine's rows, `hs-lah` as the product
    # of two row streams; none may build a `Triangle` to print.
    rows = tuple(families.rows(family, params, 6))
    expected = {fmt: _int_rendering(rows, fmt, family, params) for fmt in ("table", "csv", "json")}
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
    expected = _int_rendering(table.rows, "json", family, params)
    assert json_text(table) == expected
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
    expected = _int_rendering(table.rows, "table", "hs1", params)
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


def test_verify_oracle_needs_flag(capsys):
    code, _, err = run(capsys, "verify", "--identity", "oracle")
    assert code == 2 and "--with-oracle" in err
    code, out, _ = run(capsys, "verify", "--identity", "oracle", "--with-oracle", "--nmax", "6")
    assert code == 0 and json.loads(out)["pass"] is True


def _unknown(kind: str, known, also: str = "") -> str:
    return f"error: unknown {kind} 'nope'; known: {', '.join(sorted(known))}{also}\n"


# Each command's flag of the name it resolves, and the message of an unknown
# one: `bench` lists the known families, as `triangle` and `sum` do.
_UNKNOWN = {
    "triangle": ("--family", _unknown("family", families.FAMILIES)),
    "sum": ("--family", _unknown("sum family", cli.SUMS)),
    "bench": ("--family", _unknown("family", families.FAMILIES)),
    "verify": ("--identity", _unknown("identity", REGISTRY, " or 'all'")),
}


@pytest.mark.parametrize("command", _UNKNOWN)
def test_an_unknown_name_is_refused_with_the_known_names(capsys, command):
    flag, message = _UNKNOWN[command]
    assert run(capsys, command, flag, "nope", "--nmax", "3") == (2, "", message)


@pytest.mark.parametrize("command", _UNKNOWN)
@pytest.mark.parametrize(
    "rest",
    ((), ("--nmax", "-1"), ("--alpha", "x", "--nmax", "3"), ("--alpha", "x", "--nmax", "-1")),
    ids=("no row count", "negative row count", "unparsed parameter", "both"),
)
def test_an_unknown_name_is_refused_before_the_other_checks(capsys, command, rest):
    flag, message = _UNKNOWN[command]
    assert run(capsys, command, flag, "nope", *rest) == (2, "", message)


def test_missing_parameter_exits_2(capsys):
    code, _, err = run(capsys, "triangle", "--family", "r-lah", "--nmax", "3")
    assert code == 2 and "--r" in err


def test_invalid_parameter_exits_2(capsys):
    code, _, err = run(capsys, "triangle", "--family", "r-lah", "--r", "x", "--nmax", "3")
    assert code == 2
    code, _, err = run(capsys, "triangle", "--family", "whitney2", "--alpha", "0", "--nmax", "3")
    assert code == 2


@pytest.mark.parametrize(
    "m, r, message",
    (("1/2", "2", "m must be a positive integer, got 1/2"), ("2", "3/2", "r must be a nonnegative integer, got 3/2")),
    ids=("m", "r"),
)
@pytest.mark.parametrize(
    "argv",
    (
        ("triangle", "--family", "r-whitney-lah", "--nmax", "3"),
        ("sum", "--family", "r-dowling", "--n", "3"),
        ("bench", "--family", "r-whitney2", "--nmax", "3"),
        ("verify", "--identity", "rwlah-routes"),
    ),
    ids=lambda argv: argv[0],
)
def test_a_proper_fraction_for_m_or_r_exits_2(capsys, argv, m, r, message):
    # The family table, or the identity's route, refuses it.
    code, out, err = run(capsys, *argv, "--m", m, "--r", r)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


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
    assert out.splitlines() == [f"ok        {label}" for label, _, _ in PAPER_TABLES] + ["all reference tables match"]


def test_bench_runs(capsys):
    code, out, _ = run(capsys, "bench", "--family", "stirling2", "--nmax", "40")
    assert code == 0
    assert "peak bits" in out and "elapsed" in out


@pytest.mark.parametrize(
    "family, params",
    (
        ("r-whitney-lah", {"m": 3, "r": 2}),
        ("hs1", {"alpha": Fraction(1, 2), "beta": Fraction(1, 3), "gamma": 2}),
    ),
    ids=("r-whitney-lah", "hs1"),
)
def test_bench_streams_rows_without_a_whole_triangle(capsys, no_whole_triangle, family, params):
    # `bench` counts entries and peak bits row by row; the rows held whole
    # are the reference.
    rows = tuple(families.rows(family, params, 30))
    peak = max(max(v.numerator.bit_length(), v.denominator.bit_length()) for row in rows for v in row)
    argv = [f"--{key}={value}" for key, value in params.items()]
    code, out, _ = run(capsys, "bench", "--family", family, *argv, "--n", "30")
    assert code == 0
    assert out.splitlines()[2:4] == [f"entries       {sum(map(len, rows))}", f"peak bits     {peak}"]


def test_main_returns_argparse_exit_codes(capsys):
    # argparse's usage errors and --help come back from `main` as its exit
    # code, not as a SystemExit; the usage error stays on stderr.  A missing
    # subcommand or --family is a usage error, and every subcommand has help.
    missing = ([], ["triangle", "--nmax", "3"])
    for argv in (*missing, ["paper-tables", "--nmax", "0"], ["sum", "--family", "bell", "--n", "x"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: dowling")
        assert sum("error:" in line for line in captured.err.splitlines()) == 1
    assert main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: dowling") and captured.err == ""
    for command in ("triangle", "sum", "verify", "paper-tables", "bench"):
        assert main([command, "--help"]) == 0, command
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: dowling {command}") and captured.err == ""


# Each usage text, whitespace collapsed: the order of the flags and their
# metavars.  (The options section of --help prints aliases differently
# across Python versions; the usage text does not.)
_USAGE = {
    (): "usage: dowling [-h] {triangle,sum,verify,paper-tables,bench} ...",
    ("triangle",): "usage: dowling triangle [-h] --family FAMILY [--format {table,csv,json}] [--nmax NMAX] [--m M] "
    "[--r R] [--alpha ALPHA] [--beta BETA] [--gamma GAMMA] [--out OUT]",
    ("sum",): "usage: dowling sum [-h] --family FAMILY [--nmax NMAX] [--m M] [--r R] [--alpha ALPHA] [--beta BETA] "
    "[--gamma GAMMA] [--out OUT]",
    ("verify",): "usage: dowling verify [-h] --identity IDENTITY [--with-oracle] [--nmax NMAX] [--m M] [--r R] "
    "[--alpha ALPHA] [--beta BETA] [--gamma GAMMA] [--out OUT]",
    ("paper-tables",): "usage: dowling paper-tables [-h]",
    ("bench",): "usage: dowling bench [-h] --family FAMILY [--nmax NMAX] [--m M] [--r R] [--alpha ALPHA] "
    "[--beta BETA] [--gamma GAMMA] [--out OUT]",
}


@pytest.mark.parametrize("command", _USAGE, ids=lambda command: " ".join(command) or "top")
def test_each_usage_text_is_pinned(capsys, command):
    code, out, err = run(capsys, *command, "--help")
    assert (code, err) == (0, "")
    assert " ".join(out.split("\n\n")[0].split()) == _USAGE[command]


# Calls run back to back in one process, each pair of which would tell if
# the first left a parameter, a flag or a name behind for the second.
_BACK_TO_BACK = (
    ("verify --identity all --alpha 2", "verify --identity lef"),
    ("triangle --family r-whitney2 --m 2 --r 1 --nmax 3", "triangle --family r-whitney2 --r 1 --nmax 3"),
)


@pytest.mark.parametrize("calls", _BACK_TO_BACK, ids=lambda calls: calls[0].split()[0])
def test_the_parser_is_built_once_and_passes_nothing_on(capsys, calls):
    fresh = []
    for call in calls:
        result = subprocess.run(
            [sys.executable, "-m", "dowling.cli", *call.split()], capture_output=True, text=True, env=_subprocess_env()
        )
        fresh.append((result.returncode, result.stdout, result.stderr))
    cli._build_parser.cache_clear()
    assert [run(capsys, *call.split()) for call in calls] == fresh
    assert cli._build_parser.cache_info().misses == 1
    # Every value a parse starts from is immutable, and no two parses share
    # their parameters.
    first, second = (cli._build_parser().parse_args(calls[0].split()) for _ in range(2))
    for args in (first, second):
        for value in vars(args).values():
            hash(value)  # a dict or a list raises
        cli._check_args(args)
    assert first.params is not second.params and first.params == second.params
# What CI's "Write large outputs in bounded memory" step runs: its list of
# calls, then its two-process call in each format of its loop.  No size may
# shrink unnoticed.
CI_STREAM_CALLS = [
    "triangle --family hs-lah --alpha 1/2 --beta 1/3 --gamma 2 --nmax 300 --format csv --out $out",
    "triangle --family r-whitney-lah --m 3 --r 2 --nmax 1000 --format csv --out $out",
    "triangle --family cakic --alpha 2 --nmax 1000 --format json --out $out",
    "triangle --family r-whitney-lah --m 3 --r 2 --nmax 1000 --format table --out /dev/null",
    "bench --family r-whitney-lah --m 3 --r 2 --nmax 1000",
    "triangle --family r-whitney-lah --m 3 --r 2 --nmax 600 --format table",
    "triangle --family r-whitney-lah --m 3 --r 2 --nmax 600 --format csv",
    "triangle --family r-whitney-lah --m 3 --r 2 --nmax 600 --format json",
]


def test_ci_stream_calls_are_valid_calls(monkeypatch):
    """Each call of CI's stream step parses and passes `_check_args`, which
    builds no row, so a renamed family or flag in the step fails here; the
    step runs them all under one 200 MB address-space limit."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    step = workflow.read_text(encoding="utf-8").split("- name: Write large outputs in bounded memory\n")[1]
    step = step.split("\n      - name: ")[0]
    listed = step.split("<<EOF\n")[1].split("\n          EOF\n")[0].splitlines()
    calls = [line.strip() for line in listed if not line.lstrip().startswith("#")]
    call, fmts = re.search(r'for fmt in ([\w ]+); do\n *call="([^"$]+)\$fmt"', step).group(2, 1)
    calls += [call + fmt for fmt in fmts.split()]
    assert calls == CI_STREAM_CALLS
    assert step.split("run: |\n")[1].split("\n")[0].strip() == "ulimit -v 200000"
    monkeypatch.setattr(families, "rows", None)
    for call in calls:
        cli._check_args(cli._build_parser().parse_args(cli._attach_negative_values(call.split())))


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
@pytest.mark.parametrize("where", ("missing directory", "directory", "full device", "empty path"))
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, where):
    if where == "missing directory":
        target = tmp_path / "missing" / "x"
    elif where == "directory":
        target = tmp_path
    elif where == "empty path":
        # Refused like any other path, not taken for stdout.
        target = ""
    else:
        # An existing file that opens but fails on write (ENOSPC).
        target = Path("/dev/full")
        if not target.exists():
            pytest.skip("no /dev/full")
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write --out {target}: ")


@pytest.mark.parametrize(
    "argv",
    (
        ("triangle", "--family", "stirling2", "--nmax", "30"),
        ("sum", "--family", "bell", "--n", "3"),
        ("verify", "--identity", "lef", "--nmax", "3"),
        ("paper-tables",),
        ("bench", "--family", "lah", "--nmax", "3"),
    ),
    ids=lambda argv: argv[0],
)
def test_full_stdout_is_a_usage_error(argv):
    # Like a full --out file: one error line, exit 2, and nothing left in
    # the buffer to fail again at interpreter exit.
    if not Path("/dev/full").exists():
        pytest.skip("no /dev/full")
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "dowling.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=_subprocess_env(),
        )
    assert result.returncode == 2
    assert result.stderr.startswith("error: cannot write stdout: ")
    assert result.stderr.count("\n") == 1, result.stderr


@pytest.mark.parametrize("fmt", ("table", "csv"))
def test_closed_stdout_pipe_is_a_usage_error(fmt):
    # `dowling triangle ... | head -1`: the reader goes away long before the
    # triangle is written.
    process = subprocess.Popen(
        [sys.executable, "-m", "dowling.cli", *_triangle_argv("stirling2", {}, 300, fmt)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_subprocess_env(),
    )
    assert process.stdout.readline().startswith("n,k,value" if fmt == "csv" else "  0 | ")
    process.stdout.close()
    err = process.stderr.read()
    process.stderr.close()
    assert process.wait() == 2
    assert err.startswith("error: cannot write stdout: ") and err.count("\n") == 1, err


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


def test_the_cli_loads_five_modules_of_the_package():
    # The package, the CLI and the production path alone: no route module
    # loads before `verify` or `paper-tables`.  -I leaves out PYTHONPATH and
    # the user's site, so src goes on sys.path by hand.
    src = Path(__file__).resolve().parents[1] / "src"
    check = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import dowling.cli; "
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'dowling'))"
    )
    result = subprocess.run([sys.executable, "-I", "-c", check], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = ["dowling", "dowling.cli", "dowling.exactmath", "dowling.families", "dowling.triangles"]
    assert result.stdout.split() == loaded


def test_importing_the_cli_leaves_the_registry_unloaded():
    # Only `verify` and `paper-tables` need the identity registry and the
    # solves of `basis` it reads; every other command skips their import, and
    # the package itself imports only its four exports.  The registry holds
    # its other routes itself, so it loads none of the modules that keep only
    # the names `perfbench/pin.py` calls.  Every call pays for what the CLI imports
    # at start, so it loads neither `dataclasses` (which imports `inspect`)
    # nor `json`, and the registry no `dataclasses` either; -S keeps a site
    # hook from loading them.
    assert sorted(dowling.__all__) == ["Triangle", "explicit_sequence", "explicit_sum", "families"]
    env = _subprocess_env()
    routes = ("dowling.basis", "dowling.unified", "dowling.rnumbers", "dowling.whitney")
    pin_only = ("dowling.classic", "dowling.whitney", "dowling.rnumbers", "dowling.unified")
    for module, absent in (
        ("dowling.cli", ("dowling.identities", *routes)),
        ("dowling.cli", ("dataclasses", "inspect", "json")),
        ("dowling.identities", ("dataclasses", *pin_only)),
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
    code, table, _ = run(capsys, *argv, "--format", "table")
    assert code == 0
    assert table.splitlines()[-1].split(" | ")[1].split() == last
    code, text, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    tri = triangle_from_json(text)
    assert tri.row(95) == triangles.explicit_row(95, 0, 10**50)
    with unlimited_int_digits():
        assert [str(v) for v in tri.row(95)] == last
        assert json_text(tri) == text


# ---------------------------------------------------------------------------
# a large integer triangle written to --out by two processes


@pytest.fixture
def two_cpus(monkeypatch):
    """Let the --out writer split on any host, and check afterwards that no
    worker is left; yields the first row of the worker of each split."""
    if not all(hasattr(os, name) for name in ("fork", "pwrite")):
        pytest.skip("no os.fork or os.pwrite")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    splits = []
    real = cli._write_split

    def spy(out, rows, m, *rest):
        splits.append(m)
        return real(out, rows, m, *rest)

    monkeypatch.setattr(cli, "_write_split", spy)
    yield splits
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "family, params",
    (("lah", {}), ("r-stirling1", {"r": 0}), ("whitney-lah", {"alpha": -1}), ("r-whitney-lah", {"m": 3, "r": 2})),
    ids=_point_id,
)
def test_split_out_file_holds_the_stdout_bytes(tmp_path, capsys, two_cpus, family, params):
    # lah and r-stirling1 at r = 0 have decimal -0 entries, and the widest
    # entry of whitney-lah at alpha = -1 is negative; the crossover nmax is
    # the first that splits.
    target = tmp_path / "out"
    for nmax in (cli._SPLIT_NMAX - 1, cli._SPLIT_NMAX, cli._SPLIT_NMAX + 1):
        for fmt in ("table", "csv", "json"):
            argv = _triangle_argv(family, params, nmax, fmt)
            code, stdout, _ = run(capsys, *argv)
            assert code == 0
            del two_cpus[:]
            code, out, err = run(capsys, *argv, "--out", str(target))
            assert code == 0 and out == err == ""
            assert len(two_cpus) == (nmax >= cli._SPLIT_NMAX) and all(0 < m <= nmax for m in two_cpus)
            assert target.read_text() == stdout, (nmax, fmt)


@pytest.mark.parametrize("cpus, device", (({0}, False), ({0, 1}, True)), ids=("one-cpu", "devnull"))
def test_no_worker_on_one_cpu_or_into_a_device(tmp_path, capsys, monkeypatch, cpus, device):
    # At a size that splits, one CPU or an --out that is not a regular file
    # keeps every row in this process.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(cli, "_write_split", lambda *args: pytest.fail("a worker was forked"))
    target = os.devnull if device else str(tmp_path / "out")
    for fmt in ("table", "csv", "json"):
        argv = _triangle_argv("lah", {}, cli._SPLIT_NMAX, fmt)
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        code, out, err = run(capsys, *argv, "--out", target)
        assert code == 0 and out == err == ""
        if not device:
            assert Path(target).read_text() == stdout, fmt


def test_split_worker_write_error_is_a_usage_error(tmp_path, capsys, monkeypatch, two_cpus):
    # Only the forked worker writes with os.pwrite.
    def full(fd, data, offset):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "pwrite", full)
    target = tmp_path / "out"
    argv = _triangle_argv("stirling2", {}, cli._SPLIT_NMAX, "csv")
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert two_cpus and code == 2 and out == ""
    assert err == f"error: cannot write --out {target}: {os.strerror(errno.ENOSPC)}\n"


def test_split_offset_mismatch_raises(tmp_path, monkeypatch, two_cpus):
    # A wrong length model puts the worker's rows at the wrong offset; the
    # CLI process compares that offset with where its own rows end.
    monkeypatch.setattr(cli, "_digits", lambda row: sum(len(str(v)) for v in row) + 1)
    argv = _triangle_argv("stirling2", {}, cli._SPLIT_NMAX, "json") + ["--out", str(tmp_path / "out")]
    with pytest.raises(RuntimeError, match="were written from byte"):
        main(argv)
    assert two_cpus


def test_split_parent_failure_kills_the_worker(tmp_path, monkeypatch, two_cpus):
    # The worker would sleep for a minute in its first write; the CLI
    # process fails after its own rows, kills the worker and reaps it.
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: time.sleep(60))
    real_lseek = os.lseek
    calls = []

    def lseek(fd, position, how):
        calls.append(fd)
        if len(calls) == 2:
            raise RuntimeError("failed after the rows")
        return real_lseek(fd, position, how)

    monkeypatch.setattr(os, "lseek", lseek)
    argv = _triangle_argv("stirling2", {}, cli._SPLIT_NMAX, "table") + ["--out", str(tmp_path / "out")]
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="failed after the rows"):
        main(argv)
    assert two_cpus and time.monotonic() - start < 30


@pytest.mark.parametrize("unbuffered", (False, True), ids=("buffered", "unbuffered"))
@pytest.mark.parametrize("argv", (("--help",), ("triangle", "--help")), ids=("top", "triangle"))
def test_help_to_a_full_stdout_is_a_usage_error(argv, unbuffered):
    # argparse prints help with its own writer, which drops an OSError;
    # buffered, the write failed only at interpreter exit.
    if not Path("/dev/full").exists():
        pytest.skip("no /dev/full")
    env = _subprocess_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "dowling.cli", *argv], stdout=full, stderr=subprocess.PIPE, text=True, env=env
        )
    assert result.returncode == 2
    assert result.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize(
    "argv, flag",
    (
        (("sum", "--family", "bell", "--n", "-1"), "--n"),
        (("sum", "--family", "bell", "--nmax", "-1"), "--nmax"),
        (("bench", "--family", "lah", "--n", "-1"), "--n"),
        (("triangle", "--family", "lah", "--nmax", "-1"), "--nmax"),
    ),
    ids=("sum --n", "sum --nmax", "bench --n", "triangle --nmax"),
)
def test_negative_row_count_names_the_flag_as_typed(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be nonnegative\n"



@pytest.mark.parametrize(
    "argv, joined",
    (
        (
            "triangle --family hs1 --alpha -1/2 --beta 1 --gamma 0 --nmax 2",
            "triangle --family hs1 --alpha=-1/2 --beta 1 --gamma 0 --nmax 2",
        ),
        (
            "triangle --family hs1 --alpha 1/2 --beta -1e1 --gamma -3/4 --nmax 3 --format csv",
            "triangle --family hs1 --alpha 1/2 --beta=-1e1 --gamma=-3/4 --nmax 3 --format csv",
        ),
        (
            "verify --identity invrel --alpha 1/2 --beta -1/3 --gamma 2 --nmax 4",
            "verify --identity invrel --alpha 1/2 --beta=-1/3 --gamma 2 --nmax 4",
        ),
        ("sum --family cakic-bell --alpha -5/3 --n 6", "sum --family cakic-bell --alpha=-5/3 --n 6"),
    ),
    ids=("alpha", "beta-exponent", "verify", "sum"),
)
def test_negative_rational_given_as_its_own_argument(capsys, argv, joined):
    """argparse reads `-1/2` as an option, unlike `-1` or `-0.5`; after its
    flag it is taken as that flag's value, as in `--alpha=-1/2`."""
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert run(capsys, *joined.split()) == (0, out, "")


def test_a_flag_without_its_value_is_still_refused(capsys):
    code, out, err = run(capsys, "triangle", "--family", "hs1", "--alpha", "--", "-1/2", "--nmax", "2")
    assert code == 2 and out == ""
    assert "error: argument --alpha: expected one argument" in err


# ---------------------------------------------------------------------------
# the exit-code contract, over random calls


def _rows_from_table(text: str) -> list:
    return [line.split("|", 1)[1].split() for line in text.splitlines()]


def _rows_from_csv(text: str) -> list:
    header, *lines = text.splitlines()
    assert header == "n,k,value"
    rows = []
    for line in lines:
        n, k, value = line.split(",")
        if k == "0":
            rows.append([])
        assert (int(n), int(k)) == (len(rows) - 1, len(rows[-1]))
        rows[-1].append(value)
    return rows


_VALUES = st.one_of(
    st.integers(-3, 3),
    st.fractions(-3, 3, max_denominator=6),
    st.sampled_from((10**30, -(10**30), Fraction(10**20, 3), "-0.5", "1e2", "x", "1/0")),
).map(str)
_NAMES = ("m", "r", "alpha", "beta", "gamma")


def _takes(command: str, name: str) -> tuple:
    """The parameters a command takes with a name: an identity's `accepts`,
    all five for `verify --identity all`, the `needs` of a family or of a
    sum's family, and none for an unknown name."""
    if command == "verify":
        return REGISTRY[name].accepts if name in REGISTRY else _NAMES if name == "all" else ()
    family = cli.SUMS[name].family if command == "sum" and name in cli.SUMS else name
    return families.FAMILIES[family].needs if family in families.FAMILIES else ()


@st.composite
def _calls(draw) -> list:
    """A `dowling` argv: a command with a known or unknown family or
    identity, the parameters it takes or any others, each as `--name value`
    or `--name=value`, and a row count in -2..12 or none."""
    command = draw(st.sampled_from(("triangle", "sum", "verify", "paper-tables", "bench")))
    argv, takes = [command], ()
    if command == "verify":
        name = draw(st.sampled_from((*REGISTRY, "all", "nope")))
        argv += ["--identity", name]
        takes = _takes(command, name)
        if draw(st.booleans()):
            argv.append("--with-oracle")
    elif command != "paper-tables":
        name = draw(st.sampled_from((*(cli.SUMS if command == "sum" else families.FAMILIES), "nope")))
        argv += ["--family", name]
        takes = _takes(command, name)
    if command == "triangle":
        argv += ["--format", draw(st.sampled_from(("table", "csv", "json")))]
    given = takes if draw(st.booleans()) else draw(st.lists(st.sampled_from(_NAMES), unique=True))
    for name in given:
        value = draw(_VALUES)
        argv += draw(st.sampled_from(([f"--{name}", value], [f"--{name}={value}"])))
    # The oracle enumerates partitions: at nmax 12 it takes seconds.
    nmax = draw(st.none() | st.integers(-2, 8 if "--with-oracle" in argv else 12))
    if nmax is not None:
        argv += ["--nmax", str(nmax)]
    return argv


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_calls())
def test_exit_code_contract(capsys, argv):
    """0 ok, 1 only from a failed verification, 2 a usage error with one
    `error:` line and no traceback; a triangle printed in each format reads
    back as the family's triangle."""
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert argv[0] in ("verify", "paper-tables")
    if code == 2:
        assert out == "" and sum("error:" in line for line in err.splitlines()) == 1
    if code != 0 or argv[0] != "triangle":
        return
    fmt, call, printed = argv.index("--format") + 1, list(argv), {}
    for form in ("table", "csv", "json"):
        call[fmt] = form
        code, printed[form], err = run(capsys, *call)
        assert (code, err) == (0, "")
    tri = triangle_from_json(printed["json"])
    want = [[Fraction(v) for v in row] for row in families.triangle(tri.family, tri.params, tri.nmax).rows]
    assert [list(row) for row in tri.rows] == want
    assert [[Fraction(v) for v in row] for row in _rows_from_table(printed["table"])] == want
    assert [[Fraction(v) for v in row] for row in _rows_from_csv(printed["csv"])] == want


def test_an_internal_error_in_a_route_leaves_main(capsys, monkeypatch):
    """A `ValueError` from a bug inside a route is no usage error: it leaves
    `main` as itself, with no `error:` line and no exit code 2."""

    def broken(*args, **kwargs):
        raise ValueError("internal route bug")

    monkeypatch.setattr(basis, "scaled_solve", broken)
    with pytest.raises(ValueError, match="internal route bug"):
        main(["verify", "--identity", "hs-ortho"])
    assert "error:" not in capsys.readouterr().err


_PROBE_VALUES = ("0", "-0", "1", "-3", "1/2", "-5/7", "2/3", "x", "1/0")


def _probe_calls(seed: int, count: int):
    """Seeded argvs over all five commands, each with a known name, every
    parameter it takes (all five for `verify --identity all`) drawn from
    `_PROBE_VALUES`, and a row count in 0..7, 0..8 with --with-oracle."""
    rng = random.Random(seed)
    for _ in range(count):
        command = rng.choice(("triangle", "sum", "verify", "paper-tables", "bench"))
        if command == "paper-tables":
            yield [command]
            continue
        if command == "verify":
            name = rng.choice((*REGISTRY, "all"))
            argv = ["--identity", name] + ["--with-oracle"] * (rng.random() < 0.25)
        else:
            name = rng.choice(sorted(cli.SUMS if command == "sum" else families.FAMILIES))
            argv = ["--family", name]
        for key in _takes(command, name):
            argv += [f"--{key}", rng.choice(_PROBE_VALUES)]
        nmax = rng.randint(0, 8 if "--with-oracle" in argv else 7)
        yield [command, *argv, "--nmax", str(nmax)]


def test_seeded_random_calls_exit_0_or_2(capsys):
    """Every odd parameter value is refused as a usage error or computed:
    none reaches a route as an exception, and none fails a verification."""
    for argv in _probe_calls(25, 1000):
        try:
            code, out, err = run(capsys, *argv)
        except Exception as exc:
            pytest.fail(f"{argv} raised {exc!r}")
        assert code == 0 or (code, out, err.count("error:")) == (2, "", 1), argv
