"""`perfbench/pin.py` checks every pinned benchmark output against second
routes of its own, several of them library calls.  Run those routes here on
small sizes, for every family, sum and parameter set of the benchmark op
spaces, so that a renamed or changed library name fails in the test suite
rather than at the next re-pin.  Also run the cheap `verify` ops against
their pinned digests, so that a changed report byte fails here too."""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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
