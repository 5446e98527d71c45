import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dowling import families
from dowling.cli import (
    main,
    run_paper_tables,
    triangle_from_json,
    triangle_json,
    unlimited_int_digits,
)
from dowling.rnumbers import r_whitney_lah_explicit
from dowling.unified import hs_pair


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
    assert mat.rows == hs_pair(2, (Fraction(1, 2), Fraction(1, 3), 2)).s1.rows
    assert mat.rows[2][1] == Fraction(23, 6)
    assert mat == families.triangle("hs1", mat.params, 2)
    assert triangle_json(mat, mat.family, mat.params) == out


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


@pytest.mark.parametrize(
    "argv",
    (
        ("triangle", "--family", "stirling2", "--nmax", "3"),
        ("sum", "--family", "bell", "--n", "3"),
        ("verify", "--identity", "lef", "--nmax", "3"),
    ),
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("where", ("missing directory", "directory"))
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, where):
    target = tmp_path / "missing" / "x" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write --out {target}: ")


def test_importing_the_cli_leaves_the_registry_unloaded():
    # Only `verify` needs the identity registry; every other command skips its import.
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    check = "import sys, dowling.cli; sys.exit('dowling.identities' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", check], env=env).returncode == 0


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
