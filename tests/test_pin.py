"""The pins of the package's output and of the benchmark's names.

`perfbench/pin.py` checks every pinned benchmark output against second
routes of its own, several of them library calls.  Run those routes here on
small sizes, for every family, sum and parameter set of the benchmark op
spaces, so that a renamed or changed library name fails in the test suite
rather than at the next re-pin.  Run the cheap `verify` ops and
`paper-tables` against their pinned digests, and the whole `verify
--identity all --with-oracle` report against its own, so that a changed
report byte fails here too, in an identity the benchmark lists or not.
Run `perfbench/tracer.py`, which wraps names of the package that it looks
up by hand, on a rational build and two solves, so that a renamed entry
point fails here rather than in the next traced benchmark run."""

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


def test_verify_and_paper_tables_match_their_pins():
    """Every default-size `verify` op, `paper-tables`, the raised-size
    specialization reports and all four brute-force `oracle` ops give the
    exit code and stdout pinned in `expected.json`, which this test only
    reads.  The oracle ops share one in-process census per total, so the
    raised sizes add little to the default one."""
    pinned = json.loads((PERFBENCH / "expected.json").read_text())["verify"]
    chosen = [op for op in ops.op_space("verify") if "--nmax" not in op]
    chosen += [ops.verify_op("specializations", nmax) for nmax in (9, 12)]
    chosen += [ops.verify_op("oracle", nmax) for nmax in (9, 10, 11)]
    assert len(chosen) == 37
    for op in chosen:
        code, data = pin.run_in_process(op, to_file=False)
        want = pinned[ops.op_key(op)]
        assert (code, hashlib.sha256(data).hexdigest()) == (want["rc"], want["sha256"]), ops.op_key(op)


# The sha256 of `dowling verify --identity all --with-oracle`.  A change to
# any identity's report, a new identity or case included, changes it: show
# that the rest kept their bytes before re-pinning it.
VERIFY_ALL_SHA256 = "89e46f35dae775c96b9c751e1749f6020e98ab99764e187ed408711f27c150e7"


def test_the_whole_verify_report_matches_its_pin():
    code, data = pin.run_in_process(("verify", "--identity", "all", "--with-oracle"), to_file=False)
    assert (code, hashlib.sha256(data).hexdigest()) == (0, VERIFY_ALL_SHA256)


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
