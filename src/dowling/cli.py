"""Command-line interface: emit triangles and Bell-type sums, run identity
verification suites, reproduce the bundled reference tables, and benchmark
triangle generation.

Exit codes: 0 success, 1 verification/table failure, 2 usage or parameter
error.  All numeric output is decimal strings (rationals as "p/q") so
arbitrary precision survives serialization.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from . import classic, families, rnumbers, whitney
from .exactmath import interpolate
from .families import FAMILIES
from .triangles import Triangle


class UsageError(Exception):
    """Bad family, identity, or parameter combination (exit code 2)."""


# ---------------------------------------------------------------------------
# families and sums: the table in `families`, plus Qi's alternating double
# sum for the Bell numbers, which is no row sum of one family


SUMS = {**families.SUMS, "qi-bell": None}


def _sum_needs(name: str) -> tuple:
    family = SUMS[name]
    return () if family is None else FAMILIES[family].needs


def _sum_value(name: str, params: dict, n: int):
    family = SUMS[name]
    if family is None:
        return classic.qi_bell(n)
    return families.row_sum(family, params, n)


_PARAMS = ("m", "r", "alpha", "beta", "gamma")
_INT_PARAMS = {"m", "r"}


def _parse_param(name: str, raw: str):
    try:
        value = Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse --{name}={raw!r}: {exc}") from None
    if name in _INT_PARAMS:
        if value.denominator != 1:
            raise UsageError(f"--{name} must be an integer, got {raw}")
        value = value.numerator
    return value


def _collect_params(needs, args) -> dict:
    params = {}
    for name in needs:
        raw = getattr(args, name, None)
        if raw is None:
            raise UsageError(f"missing required parameter --{name}")
        params[name] = _parse_param(name, raw)
    return params


def _params_as_strings(params: dict) -> dict:
    return {key: str(value) for key, value in params.items()}


# ---------------------------------------------------------------------------
# rendering


@contextmanager
def unlimited_int_digits():
    """Lift CPython's limit on int <-> decimal str conversion (4300 digits by
    default) inside the block, so entries of any size print and parse.
    Interpreters without the limit have no `sys.set_int_max_str_digits`."""
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None:
        yield
        return
    previous = sys.get_int_max_str_digits()
    setter(0)
    try:
        yield
    finally:
        setter(previous)


def _value_rows(table) -> list:
    """Rows of decimal strings; rationals read "p/q"."""
    return [[str(v) for v in row] for row in table.rows]


def render_table(table) -> str:
    rows = _value_rows(table)
    width = max(len(v) for row in rows for v in row)
    label_width = len(str(len(rows) - 1))
    lines = []
    for n, row in enumerate(rows):
        cells = "  ".join(v.rjust(width) for v in row)
        lines.append(f"{str(n).rjust(label_width)} | {cells}")
    return "\n".join(lines) + "\n"


def render_csv(table) -> str:
    lines = ["n,k,value"]
    for n, row in enumerate(_value_rows(table)):
        for k, value in enumerate(row):
            lines.append(f"{n},{k},{value}")
    return "\n".join(lines) + "\n"


def triangle_json(table, family: str, params: dict) -> str:
    obj = {
        "family": family,
        "params": _params_as_strings(params),
        "nmax": len(table.rows) - 1,
        "rows": _value_rows(table),
    }
    return json.dumps(obj, indent=2) + "\n"


def triangle_from_json(text: str) -> Triangle:
    """Read back what `triangle_json` wrote; entries of a rational family are
    read as exact rationals, those of any other family as integers."""
    obj = json.loads(text)
    family = FAMILIES.get(obj["family"])
    parse = Fraction if family is not None and family.rational else int
    with unlimited_int_digits():
        rows = tuple(tuple(map(parse, row)) for row in obj["rows"])
        params = {key: Fraction(value) for key, value in obj["params"].items()}
    params = {
        key: value.numerator if value.denominator == 1 else value
        for key, value in params.items()
    }
    table = Triangle(rows, obj["family"], params)
    if table.nmax != obj["nmax"]:
        raise ValueError(f"expected {obj['nmax'] + 1} rows, got {len(rows)}")
    return table


# ---------------------------------------------------------------------------
# reference tables bundled for the paper-tables command


WHITNEY_LAH_ALPHA_POLYS = (
    ((1,),),
    ((-2,), (-1,)),
    ((4, 2), (4, 2), (1,)),
    ((-8, -12, -4), (-12, -18, -6), (-6, -6), (-1,)),
)

WHITNEY2_ALPHA3_ROWS = ((1,), (1, 1), (1, 5, 1), (1, 21, 12, 1))
DOWLING_ALPHA3_COLUMN = (1, 2, 7, 35)

R_LAH_R2_ROWS = (
    (1,),
    (4, 1),
    (20, 10, 1),
    (120, 90, 18, 1),
    (840, 840, 252, 28, 1),
    (6720, 8400, 3360, 560, 40, 1),
)

R_STIRLING2_R2_ROWS = (
    (1,),
    (2, 1),
    (4, 5, 1),
    (8, 19, 9, 1),
    (16, 65, 55, 14, 1),
    (32, 211, 285, 125, 20, 1),
)
R_BELL_R2_COLUMN = (1, 3, 10, 37, 151, 674)

R_WHITNEY2_M2_R2_ROWS = ((1,), (2, 1), (4, 6, 1), (8, 28, 12, 1), (16, 120, 100, 20, 1))
R_DOWLING_M2_R2_COLUMN = (1, 3, 11, 49, 257)

R_WHITNEY_LAH_M2_R2_ROWS = ((1,), (4, 1), (24, 12, 1), (192, 144, 24, 1), (1920, 1920, 480, 40, 1))
R_WHITNEY_LAH_M2_R2_SUMS = (1, 5, 37, 361, 4361)


def _check_symbolic_whitney_lah() -> list:
    """Verify the small Whitney-Lah entries as polynomials in the step.

    Entries of row n have degree at most n in alpha, so agreement at the four
    points 1..4 plus exact interpolation back to the closed forms pins them.
    """
    problems = []
    sample = (1, 2, 3, 4)
    tables = {a: families.triangle("whitney-lah", {"alpha": a}, 3) for a in sample}
    for n, row in enumerate(WHITNEY_LAH_ALPHA_POLYS):
        for k, coeffs in enumerate(row):
            closed = interpolate(
                [(a, sum(c * a ** i for i, c in enumerate(coeffs))) for a in sample]
            )
            for a in sample:
                want = sum(c * a ** i for i, c in enumerate(coeffs))
                got = tables[a].value(n, k)
                if want != got:
                    problems.append(f"whitney-lah({n},{k}) at alpha={a}: expected {want}, got {got}")
            fitted = interpolate([(a, tables[a].value(n, k)) for a in sample])
            if fitted != closed:
                problems.append(f"whitney-lah({n},{k}): interpolated polynomial differs")
    return problems


def run_paper_tables(out=None) -> int:
    """Regenerate every bundled reference table and worked check; return the
    number of mismatches."""
    if out is None:
        out = sys.stdout
    problems = []

    def check(name, ok, detail=""):
        if ok:
            print(f"ok        {name}", file=out)
        else:
            print(f"MISMATCH  {name}  {detail}", file=out)
            problems.append(name)

    symbolic = _check_symbolic_whitney_lah()
    check("whitney-lah rows 0..3, symbolic step (4 points + interpolation)", not symbolic, "; ".join(symbolic))

    w2 = families.triangle("whitney2", {"alpha": 3}, 3)
    check("whitney2 alpha=3 rows 0..3", w2.rows == WHITNEY2_ALPHA3_ROWS, str(w2.rows))
    dowling_col = tuple(_sum_value("dowling", {"alpha": 3}, n) for n in range(4))
    check("dowling alpha=3 column", dowling_col == DOWLING_ALPHA3_COLUMN, str(dowling_col))

    rl = families.triangle("r-lah", {"r": 2}, 5)
    check("r-lah r=2 rows 0..5", rl.rows == R_LAH_R2_ROWS, str(rl.rows))

    rs2 = families.triangle("r-stirling2", {"r": 2}, 5)
    check("r-stirling2 r=2 rows 0..5", rs2.rows == R_STIRLING2_R2_ROWS, str(rs2.rows))
    rbell_col = tuple(_sum_value("r-bell", {"r": 2}, n) for n in range(6))
    check("r-bell r=2 column", rbell_col == R_BELL_R2_COLUMN, str(rbell_col))

    rw2 = families.triangle("r-whitney2", {"m": 2, "r": 2}, 4)
    check("r-whitney2 m=2 r=2 rows 0..4", rw2.rows == R_WHITNEY2_M2_R2_ROWS, str(rw2.rows))
    rdow_col = tuple(_sum_value("r-dowling", {"m": 2, "r": 2}, n) for n in range(5))
    check("r-dowling m=2 r=2 column", rdow_col == R_DOWLING_M2_R2_COLUMN, str(rdow_col))

    rwl = families.triangle("r-whitney-lah", {"m": 2, "r": 2}, 4)
    check("r-whitney-lah m=2 r=2 rows 0..4", rwl.rows == R_WHITNEY_LAH_M2_R2_ROWS, str(rwl.rows))
    sums = tuple(rwl.row_sum(n) for n in range(5))
    check("r-whitney-lah m=2 r=2 row sums", sums == R_WHITNEY_LAH_M2_R2_SUMS, str(sums))

    check("worked check: dowling-explicit(3, alpha=3) = 35", whitney.dowling_explicit(3, 3) == 35)
    check(
        "worked check: bell(4) = 15 via unit-step dowling",
        _sum_value("bell", {}, 4) == 15 and _sum_value("dowling", {"alpha": 1}, 3) == 15,
    )
    check("worked check: r-bell-explicit(3, r=2) = 37", rnumbers.r_bell_explicit(3, 2) == 37)
    check(
        "worked check: r-dowling-explicit(4, m=2, r=2) = 257",
        rnumbers.r_dowling_explicit(4, 2, 2) == 257,
    )

    summary = "all reference tables match" if not problems else f"{len(problems)} mismatch(es)"
    print(summary, file=out)
    return len(problems)


# ---------------------------------------------------------------------------
# commands


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def cmd_triangle(args) -> int:
    if args.family not in FAMILIES:
        raise UsageError(f"unknown family {args.family!r}; known: {', '.join(sorted(FAMILIES))}")
    table = families.triangle(args.family, args.params, args.nmax)
    if args.fmt == "table":
        text = render_table(table)
    elif args.fmt == "csv":
        text = render_csv(table)
    else:
        text = triangle_json(table, args.family, args.params)
    _emit(text, args.out)
    return 0


def cmd_sum(args) -> int:
    if args.family not in SUMS:
        raise UsageError(f"unknown sum family {args.family!r}; known: {', '.join(sorted(SUMS))}")
    value = _sum_value(args.family, args.params, args.nmax)
    _emit(str(value) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    # Imported here: building the registry costs every other command ~5 ms.
    from . import identities
    from .identities import REGISTRY

    if args.identity == "all":
        chosen = [ident for ident in REGISTRY.values() if ident.needs_oracle <= args.with_oracle]
        given = [identities.taken(ident, args.params) for ident in chosen]
        unused = set(args.params).difference(*given)
        if unused:
            raise UsageError(f"no identity takes --{min(unused)} as given")
        reports = [identities.report(ident, g, args.nmax) for ident, g in zip(chosen, given)]
        ok = all(r["pass"] for r in reports)
        _emit(json.dumps({"pass": ok, "identities": reports}, indent=2) + "\n", args.out)
        return 0 if ok else 1
    ident = REGISTRY.get(args.identity)
    if ident is None:
        raise UsageError(
            f"unknown identity {args.identity!r}; known: {', '.join(sorted(REGISTRY))} or 'all'"
        )
    if ident.needs_oracle and not args.with_oracle:
        raise UsageError(f"identity {ident.name!r} needs --with-oracle")
    report = identities.report(ident, args.params, args.nmax)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["pass"] else 1


def cmd_paper_tables(args) -> int:
    return 1 if run_paper_tables() else 0


def cmd_bench(args) -> int:
    if args.family not in FAMILIES:
        raise UsageError(f"unknown family {args.family!r}")
    start = time.perf_counter()
    table = families.triangle(args.family, args.params, args.nmax)
    elapsed = time.perf_counter() - start
    entries = sum(len(row) for row in table.rows)
    peak = max(
        max(v.numerator.bit_length(), v.denominator.bit_length()) for row in table.rows for v in row
    )
    print(f"family        {args.family}")
    print(f"nmax          {args.nmax}")
    print(f"entries       {entries}")
    print(f"peak bits     {peak}")
    print(f"elapsed (s)   {elapsed:.3f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dowling",
        description="Exact Stirling/Lah/Whitney/Dowling number families, their "
        "Bell-type sums, and identity verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, nmax_aliases=("--nmax",)):
        p.add_argument(*nmax_aliases, dest="nmax", type=int, default=None)
        for name in _PARAMS:
            p.add_argument(f"--{name}")
        p.add_argument("--out", default=None)

    p_tri = sub.add_parser("triangle", help="emit one family triangle")
    p_tri.add_argument("--family", required=True)
    p_tri.add_argument("--format", dest="fmt", choices=("table", "csv", "json"), default="table")
    add_common(p_tri)

    p_sum = sub.add_parser("sum", help="emit one Bell-type row sum")
    p_sum.add_argument("--family", required=True)
    add_common(p_sum, nmax_aliases=("--nmax", "--n"))

    p_ver = sub.add_parser("verify", help="run one identity check (or 'all')")
    p_ver.add_argument("--identity", required=True)
    p_ver.add_argument("--with-oracle", action="store_true")
    add_common(p_ver)

    sub.add_parser("paper-tables", help="regenerate the bundled reference tables")

    p_bench = sub.add_parser("bench", help="time triangle generation")
    p_bench.add_argument("--family", required=True)
    add_common(p_bench, nmax_aliases=("--nmax", "--n"))

    return parser


def _check_args(args) -> None:
    """Refuse a bad argument combination and set `args.params` to the parsed
    parameters the command takes."""
    args.params = {}
    family = getattr(args, "family", None)
    nmax = getattr(args, "nmax", None)
    given = [name for name in _PARAMS if getattr(args, name, None) is not None]
    if args.command == "verify":
        args.params = _collect_params(given, args)
    elif family in (SUMS if args.command == "sum" else FAMILIES):
        needs = _sum_needs(family) if args.command == "sum" else FAMILIES[family].needs
        extra = [name for name in given if name not in needs]
        if extra:
            raise UsageError(f"family {family!r} does not take --{extra[0]}")
        args.params = _collect_params(needs, args)
    if nmax is None and args.command in ("triangle", "sum", "bench"):
        raise UsageError("--nmax is required")
    if nmax is not None and nmax < 0:
        raise UsageError("--nmax must be nonnegative")


_DISPATCH = {
    "triangle": cmd_triangle,
    "sum": cmd_sum,
    "verify": cmd_verify,
    "paper-tables": cmd_paper_tables,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with unlimited_int_digits():
            _check_args(args)
            return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
