"""The pins of the package's output and of the benchmark's names.

`tests/report_pins.json` holds the sha256 of every `verify` and
`paper-tables` report the package prints, one line each (`tests/repin.py`
rewrites it and says what each line is).  Recompute every line but the
at-scale ones, which CI's at-scale loop checks, and name each line that
differs, so that a changed report byte fails here and names its identity
or case.  Check that the file has one line per identity, `at_scale` entry
and paper-tables case, and that every line `perfbench/expected.json` pins
under the same key has the same digest there; then recompute only the
benchmark's raised-size `verify` ops that the pin file does not hold.

`perfbench/pin.py` checks every pinned benchmark output against second
routes of its own, several of them library calls.  Run those routes here on
small sizes, for every family, sum and parameter set of the benchmark op
spaces, so that a renamed or changed library name fails in the test suite
rather than at the next re-pin.  Run `perfbench/tracer.py`, which wraps
names of the package that it looks up by hand, on a rational build and two
solves, so that a renamed entry point fails here rather than in the next
traced benchmark run."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import ops  # noqa: E402
import pin  # noqa: E402
import repin  # noqa: E402

from dowling import families  # noqa: E402
from dowling.cli import main  # noqa: E402

SIZE = 6


def _strata() -> dict:
    """(command, family, params) of every triangle and sum op, with params
    as pin.py parses them from the argv."""
    strata = {}
    for workload in ("emit", "build"):
        for op in ops.op_space(workload):
            command, family, params, _, _ = pin._parse_op(op)
            strata[(command, family, tuple(sorted(params.items())))] = params
    return strata


def _cli_sum(family: str, params: dict):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(list(ops.sum_op(family, params, SIZE))) == 0
    return pin._number(stdout.getvalue().strip())


def test_pin_routes_agree_with_the_library():
    pytest.importorskip("sympy")
    strata = _strata()
    assert {command for command, _, _ in strata} == {"triangle", "sum"}
    for (command, family, _), params in strata.items():
        if command == "triangle":
            want = [list(row) for row in families.triangle(family, params, SIZE).rows]
            assert pin.reference_triangle(family, params, SIZE) == want, (family, params)
        else:
            assert pin.reference_sum(family, params, SIZE) == _cli_sum(family, params), (family, params)


def test_every_report_matches_its_pin():
    """Each identity's default `verify` report, each line of `paper-tables`
    and both whole outputs hash to their lines of the pin file; the
    failure names every line that differs."""
    pins = repin.read()
    differ = [key for key, digest in repin.default_pins().items() if pins.get(key) != digest]
    assert not differ, differ


def test_the_pin_file_has_one_line_per_report():
    """One line for each identity at its defaults and at each `at_scale`
    entry, for each `PAPER_TABLES` case and for the two whole outputs: an
    identity or case declared without its line is named, as is a line
    that no report has or that is repeated."""
    lines = [key for key, _ in json.loads(repin.PINS.read_text(encoding="utf-8"), object_pairs_hook=list)]
    declared = repin.keys()
    assert len(set(declared)) == len(declared)
    missing = sorted(set(declared) - set(lines))
    extra = sorted(set(lines) - set(declared))
    repeated = sorted({key for key in lines if lines.count(key) > 1})
    assert not (missing or extra or repeated), f"missing {missing}, extra {extra}, repeated {repeated}"


def test_the_benchmark_pins_agree_with_the_pin_file():
    """`expected.json` pins the default report of 31 identities,
    `paper-tables` and `oracle` at nmax 11 under the keys of the pin file;
    each has the same digest in both, so the package output that the test
    above checks against the pin file is the benchmark's too."""
    pinned = json.loads((PERFBENCH / "expected.json").read_text())["verify"]
    pins = repin.read()
    shared = sorted(pinned.keys() & pins.keys())
    assert {key for key in pinned if "--nmax" not in key} <= set(shared)
    differ = [key for key in shared if (pinned[key]["rc"], pinned[key]["sha256"]) != (0, pins[key])]
    assert not differ, differ


def test_verify_and_paper_tables_match_their_pins():
    """The benchmark's raised-size `verify` ops that no test above
    recomputes, `specializations` at nmax 9 and 12 and `oracle` at 9, 10
    and 11, give the exit code and stdout pinned in `expected.json`, which
    this test only reads.  The oracle ops share one in-process census per
    total, so they add little to the census of the default size."""
    pinned = json.loads((PERFBENCH / "expected.json").read_text())["verify"]
    chosen = [ops.verify_op("specializations", nmax) for nmax in (9, 12)]
    chosen += [ops.verify_op("oracle", nmax) for nmax in (9, 10, 11)]
    for op in chosen:
        code, data = pin.run_in_process(op, to_file=False)
        want = pinned[ops.op_key(op)]
        assert (code, hashlib.sha256(data).hexdigest()) == (want["rc"], want["sha256"]), ops.op_key(op)


@pytest.mark.parametrize(
    "argv",
    [
        "triangle --family hs-lah --alpha 1/2 --beta 1/3 --gamma 2 --nmax 6 --format csv",
        "verify --identity rw-inv",
        "verify --identity oracle --with-oracle --nmax 6",
    ],
    ids=["hs-lah", "rw-inv", "oracle"],
)
def test_the_tracer_wraps_every_name_it_looks_up(tmp_path, argv):
    """A name that `tracer.py` wraps and the package no longer has, the
    oracle's `_iter_partition_stats` among them, ends the traced call with
    an `AttributeError` and exit code 1."""
    spans = tmp_path / "spans.json"
    call = [sys.executable, str(PERFBENCH / "tracer.py"), str(ROOT / "src"), str(spans), "0", *argv.split()]
    done = subprocess.run(call, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stderr
    assert "cli.main" in {span[0] for span in json.loads(spans.read_text())["spans"]}
