"""`perfbench/pin.py` checks every pinned benchmark output against second
routes of its own, several of them library calls.  Run those routes here on
small sizes, for every family, sum and parameter set of the benchmark op
spaces, so that a renamed or changed library name fails in the test suite
rather than at the next re-pin."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

pytest.importorskip("sympy")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

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
    strata = _strata()
    assert {command for command, _, _ in strata} == {"triangle", "sum"}
    for (command, family, _), params in strata.items():
        if command == "triangle":
            want = [list(row) for row in families.triangle(family, params, SIZE).rows]
            assert pin.reference_triangle(family, params, SIZE) == want, (family, params)
        else:
            assert pin.reference_sum(family, params, SIZE) == _cli_sum(family, params), (family, params)
