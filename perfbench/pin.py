"""Pin the expected outcome of every op the benchmark can run.

    python3 perfbench/pin.py

Each op of each workload's op space runs in-process through
`dowling.cli.main`, with CPython's int->str digit limit lifted in this
process only, so the wide-entry ops get the output they should have.  The
sha256 of its output bytes (the `--out` file for `emit`, stdout otherwise)
and its exit code go to `perfbench/expected.json`.

Before a digest is pinned, every value in the output is parsed back and
checked against a second route, a different function from the one the CLI
calls:

- sympy for bell and qi-bell, and for stirling1, stirling2 and lah on every
  entry up to row 60 plus 12 sampled entries of the last row (sympy takes
  about 16 ms per entry at n = 450 on a 2-vCPU VM); the routes below cover
  every entry of those triangles as well;
- `r_whitney_second_recurrence`, `r_whitney_lah_explicit`, `dowling_explicit`,
  `r_dowling_explicit` and `hs_bell_explicit` where they specialise to the
  family;
- the exact inverse of a recurrence-built triangle for the first-kind
  families (stirling1, whitney1, r-whitney1), and a Taylor shift of the
  monomial-route Stirling numbers for r-stirling1;
- the Hsu-Shiue recurrences, written here, for hs1, hs2, hs-lah and cakic;
- `verify` and `paper-tables` reports must say that every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import ops as opspace  # noqa: E402
from ops import op_key  # noqa: E402

SYMPY_FULL_ROWS = 60
SYMPY_ROW_SAMPLES = 12


# ---------------------------------------------------------------------------
# running one op


def run_in_process(op: tuple, to_file: bool) -> tuple:
    """(exit code, output bytes) of one CLI call made in this process."""
    from dowling.cli import main

    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = list(op) + (["--out", out] if to_file else [])
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        if to_file:
            with open(out, "rb") if os.path.exists(out) else contextlib.nullcontext() as fh:
                data = fh.read() if fh else b""
        else:
            data = stdout.getvalue().encode("utf-8")
    return code, data


def _number(text: str):
    return Fraction(text) if "/" in text else int(text)


def parse_rows(data: bytes, fmt: str) -> list:
    """Value rows of a rendered triangle."""
    text = data.decode("utf-8")
    if fmt == "json":
        return [[_number(v) for v in row] for row in json.loads(text)["rows"]]
    if fmt == "csv":
        rows = []
        for line in text.splitlines()[1:]:
            n, k, value = line.split(",")
            if int(k) == 0:
                rows.append([])
            rows[int(n)].append(_number(value))
        return rows
    return [[_number(v) for v in line.split("|", 1)[1].split()] for line in text.splitlines()]


# ---------------------------------------------------------------------------
# second routes


def _inverse(rows: list) -> list:
    """Exact inverse of a lower-triangular matrix with unit diagonal."""
    inv = []
    for n in range(len(rows)):
        row = [0] * (n + 1)
        row[n] = 1
        for k in range(n):
            row[k] = -sum(rows[n][j] * inv[j][k] for j in range(k, n))
        inv.append(row)
    return inv


def _signed(rows: list) -> list:
    return [[(-1) ** (n - k) * v for k, v in enumerate(row)] for n, row in enumerate(rows)]


def _taylor_shift(coeffs: list, r: int) -> list:
    """Coefficients of p(x + r) from those of p(x), constant term first."""
    c = list(coeffs)
    if r == 0:
        return c
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += r * c[j + 1]
    return c


def _hs_triangles(nmax: int, alpha, beta, gamma) -> tuple:
    """(s1, s2) from the Hsu-Shiue recurrences
    s1(n+1,k) = s1(n,k-1) + (k*beta - n*alpha + gamma) s1(n,k),
    s2(n+1,k) = s2(n,k-1) + (k*alpha - n*beta - gamma) s2(n,k)."""
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)

    def build(weight):
        rows = [[Fraction(1)]]
        for n in range(nmax):
            prev = rows[-1] + [Fraction(0)]
            rows.append([(prev[k - 1] if k else 0) + weight(n, k) * prev[k] for k in range(n + 2)])
        return rows

    s1 = build(lambda n, k: k * beta - n * alpha + gamma)
    s2 = build(lambda n, k: k * alpha - n * beta - gamma)
    return s1, s2


def _sympy_check(rows: list, entry) -> None:
    """Compare rows against sympy on the first rows and a sample of the last."""
    last = len(rows) - 1
    for n in range(min(last, SYMPY_FULL_ROWS) + 1):
        for k in range(n + 1):
            if rows[n][k] != entry(n, k):
                raise AssertionError(f"sympy disagrees at ({n},{k})")
    step = max(1, last // SYMPY_ROW_SAMPLES)
    for k in range(0, last + 1, step):
        if rows[last][k] != entry(last, k):
            raise AssertionError(f"sympy disagrees at ({last},{k})")


def _sympy_stirling(kind: int):
    from sympy.functions.combinatorial.numbers import stirling

    return lambda n, k: int(stirling(n, k, kind=kind, signed=True) if kind == 1 else stirling(n, k))


def _sympy_lah(n: int, k: int) -> int:
    from sympy import binomial, factorial

    if n == k == 0:
        return 1
    if k == 0:
        return 0
    return int((-1) ** n * binomial(n - 1, k - 1) * factorial(n) / factorial(k))


def reference_triangle(family: str, params: dict, nmax: int) -> list:
    """Rows 0..nmax of a family by a second route."""
    from dowling import classic, rnumbers

    def explicit_rwl(m, r, sign):
        return [
            [sign(n) * rnumbers.r_whitney_lah_explicit(n, k, m, r) for k in range(n + 1)]
            for n in range(nmax + 1)
        ]

    def rws(m, r):
        return [list(row) for row in rnumbers.r_whitney_second_recurrence(nmax, m, r).rows]

    unsigned = lambda n: 1
    alternating = lambda n: (-1) ** n
    if family == "stirling2":
        rows = rws(1, 0)
        _sympy_check(rows, _sympy_stirling(2))
        return rows
    if family == "stirling1":
        rows = _inverse(rws(1, 0))
        _sympy_check(rows, _sympy_stirling(1))
        return rows
    if family == "lah":
        rows = explicit_rwl(1, 0, alternating)
        _sympy_check(rows, _sympy_lah)
        return rows
    if family == "whitney2":
        return rws(params["alpha"], 1)
    if family == "whitney1":
        return _inverse(rws(params["alpha"], 1))
    if family == "whitney-lah":
        return explicit_rwl(params["alpha"], 1, alternating)
    if family == "r-stirling2":
        return rws(1, params["r"])
    if family == "r-stirling1":
        base = [[abs(v) for v in row] for row in classic.stirling1_triangle(nmax).rows]
        return [_taylor_shift(row, params["r"]) for row in base]
    if family == "r-lah":
        return explicit_rwl(1, params["r"], unsigned)
    if family == "r-whitney-lah":
        return explicit_rwl(params["m"], params["r"], unsigned)
    if family == "r-whitney2":
        return rws(params["m"], params["r"])
    if family == "r-whitney1":
        return _signed(_inverse(rws(params["m"], params["r"])))
    if family in ("hs1", "hs2", "hs-lah"):
        s1, s2 = _hs_triangles(nmax, params["alpha"], params["beta"], params["gamma"])
        if family == "hs1":
            return s1
        if family == "hs2":
            return s2
        return [
            [
                sum((-1) ** k * s2[n][k] * s1[k][j] for k in range(j, n + 1))
                for j in range(n + 1)
            ]
            for n in range(nmax + 1)
        ]
    if family == "cakic":
        return _hs_triangles(nmax, params["alpha"], 1, 0)[0]
    raise ValueError(f"no second route for {family}")


def reference_sum(family: str, params: dict, n: int):
    from sympy import bell

    from dowling import rnumbers, unified, whitney

    if family in ("bell", "qi-bell"):
        return int(bell(n))
    if family == "dowling":
        return whitney.dowling_explicit(n, params["alpha"])
    if family == "r-bell":
        return sum(rnumbers.r_whitney_second_recurrence(n, 1, params["r"]).row(n))
    if family == "r-dowling":
        return rnumbers.r_dowling_explicit(n, params["m"], params["r"])
    if family == "hs-bell":
        return unified.hs_bell_explicit(n, (params["alpha"], params["beta"], params["gamma"]))
    if family == "cakic-bell":
        return unified.hs_bell_explicit(n, (params["alpha"], 1, 0))
    raise ValueError(f"no second route for {family}")


# ---------------------------------------------------------------------------
# checking one group of ops


def _parse_op(op: tuple) -> tuple:
    """(command, family, params, size, format) of a triangle or sum op."""
    args = dict(zip(op[1::2], op[2::2]))
    params = {
        key[2:]: Fraction(value) if "/" in value else int(value)
        for key, value in args.items()
        if key in ("--m", "--r", "--alpha", "--beta", "--gamma")
    }
    size = int(args.get("--nmax", args.get("--n", 0)))
    return op[0], args.get("--family"), params, size, args.get("--format")


def _group_key(op: tuple) -> str:
    command, family, params, _, _ = _parse_op(op)
    return f"{command} {family} {sorted(params.items())}" if command in ("sum", "triangle") else op_key(op)


def pin_group(workload: str, ops: list) -> dict:
    """Run and cross-check ops that share a family and parameters."""
    sys.set_int_max_str_digits(0)
    os.environ.pop("DOWLING_CACHE_DIR", None)
    to_file = workload == "emit"
    pinned = {}
    reference = None
    for op in sorted(ops, key=lambda o: -_parse_op(o)[3]):
        start = time.perf_counter()
        code, data = run_in_process(op, to_file)
        seconds = time.perf_counter() - start
        if code != 0:
            raise AssertionError(f"{op_key(op)} exits {code} with the digit limit lifted")
        command, family, params, size, fmt = _parse_op(op)
        if command == "triangle":
            if reference is None:  # the largest op of the group comes first
                reference = reference_triangle(family, params, size)
            rows = parse_rows(data, fmt)
            if rows != reference[: size + 1]:
                raise AssertionError(f"{op_key(op)} disagrees with its second route")
        elif command == "sum":
            if _number(data.decode().strip()) != reference_sum(family, params, size):
                raise AssertionError(f"{op_key(op)} disagrees with its second route")
        elif command == "verify":
            if json.loads(data)["pass"] is not True:
                raise AssertionError(f"{op_key(op)} reports a failing identity")
        elif data.decode().splitlines()[-1] != "all reference tables match":
            raise AssertionError(f"{op_key(op)} reports a mismatch")
        pinned[op_key(op)] = {
            "rc": code,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "pin_s": round(seconds, 3),
        }
    return pinned


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    expected = {"setup": pin_group("setup", [opspace.SETUP_OP])}
    for workload in opspace.WORKLOADS:
        groups: dict = {}
        for op in opspace.op_space(workload):
            groups.setdefault(_group_key(op), []).append(op)
        pinned = {}
        with ProcessPoolExecutor(os.cpu_count(), mp_context=get_context("spawn")) as pool:
            futures = [pool.submit(pin_group, workload, group) for group in groups.values()]
            for future in futures:
                pinned.update(future.result())
        expected[workload] = dict(sorted(pinned.items()))
        print(f"{workload}: pinned {len(pinned)} ops", flush=True)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
