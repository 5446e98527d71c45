"""Command-line interface: emit triangles and Bell-type sums, run identity
verification suites, reproduce the bundled reference tables, and benchmark
triangle generation.

Exit codes: 0 success, 1 verification/table failure, 2 usage or parameter
error.  All numeric output is decimal strings (rationals as "p/q") so
arbitrary precision survives serialization.
"""

from __future__ import annotations

import argparse
import decimal
import io
import sys
import time
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction

from . import classic, families, rnumbers, whitney
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


# Integer + and * on decimals are exact in this context: full precision and
# exponent range, with any rounding or overflow raising instead.
EXACT_DECIMALS = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)

# A triangle whose rows are still to be built: the writers read `nmax` and
# iterate `rows` once, as they do a `Triangle`.
_Rows = namedtuple("_Rows", ("nmax", "rows"))


def _decimal_rows(family: str, params: dict, nmax: int) -> _Rows:
    """Rows of a family from `families.rows`, to be iterated in the
    `EXACT_DECIMALS` context: the engine builds integer entries on
    `decimal.Decimal`; rational entries, and those of the product `hs-lah`,
    come as Fractions or ints.  libmpdec stores base-10**19 limbs, so the
    str of an entry takes time linear in its digits, where that of an int is
    quadratic.  The parameters are validated here, before any output is
    opened, and a zero is replaced by its absolute value, so that one that
    came out as -0 (a negative weight times 0) prints as 0 and each row
    still holds Decimals only or none."""
    rows = families.rows(family, params, nmax, decimal.Decimal(1))
    return _Rows(nmax, (row if all(row) else tuple(v or abs(v) for v in row) for row in rows))


def _width(value) -> int:
    """Printed length of an entry kept by `render_table`: a str, or a
    Decimal integer, whose length is read off its exponent and sign without
    printing it."""
    if isinstance(value, str):
        return len(value)
    return value.adjusted() + 1 + value.is_signed()


# The writers below stream a triangle to `out` one row at a time: each entry
# prints as its str, so a rational reads "p/q".


def render_table(table, out) -> None:
    # The column width needs every entry first.  A row of ints or Fractions
    # is kept as its strs, so that each entry is printed once (an int's str
    # is quadratic in its digits); a Decimal row is kept as it is, since its
    # strs would take more than twice its memory.
    rows = [row if isinstance(row[0], decimal.Decimal) else tuple(map(str, row)) for row in table.rows]
    width = max(max(map(_width, row)) for row in rows)
    label_width = len(str(table.nmax))
    for n, row in enumerate(rows):
        cells = "  ".join(str(v).rjust(width) for v in row)
        out.write(f"{str(n).rjust(label_width)} | {cells}\n")


def render_csv(table, out) -> None:
    out.write("n,k,value\n")
    for n, row in enumerate(table.rows):
        out.write("".join([f"{n},{k},{v}\n" for k, v in enumerate(map(str, row))]))


def triangle_json(table, family: str, params: dict, out=None):
    """Write the triangle as the bytes of `json.dumps(obj, indent=2) + "\\n"`
    for obj = {"family", "params", "nmax", "rows"}, its values strings; with
    no `out`, return that text."""
    import json

    if out is None:
        out = io.StringIO()
        triangle_json(table, family, params, out)
        return out.getvalue()
    head = {"family": family, "params": _params_as_strings(params), "nmax": table.nmax}
    # Drop the closing "\n}" and go on with the rows; an entry's str needs no
    # JSON escape.
    out.write(json.dumps(head, indent=2)[:-2] + ',\n  "rows": [')
    separator = "\n"
    for row in table.rows:
        out.write(separator + '    [\n      "' + '",\n      "'.join(map(str, row)) + '"\n    ]')
        separator = ",\n"
    out.write("\n  ]\n}\n")


def triangle_from_json(text: str) -> Triangle:
    """Read back what `triangle_json` wrote; entries of a rational family are
    read as exact rationals, those of any other family as integers."""
    import json

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


# Whitney-Lah rows 0..3: each entry a polynomial in alpha, by its coefficients.
WHITNEY_LAH_ALPHA_POLYS = (
    ((1,),),
    ((-2,), (-1,)),
    ((4, 2), (4, 2), (1,)),
    ((-8, -12, -4), (-12, -18, -6), (-6, -6), (-1,)),
)


def _paper_tables() -> tuple:
    """(label, computed, bundled) of every reference table and worked check.

    The Whitney-Lah rows are checked as polynomials in the step: each entry
    of rows 0..3 is a polynomial of degree at most 3 in alpha, so agreement
    at the four steps 1..4 pins it, and its interpolant is the bundled one.
    """

    def rows(family, params, nmax):
        return families.triangle(family, params, nmax).rows

    def column(name, params, count):
        return tuple(_sum_value(name, params, n) for n in range(count))

    def polys_at(alpha):
        polys = WHITNEY_LAH_ALPHA_POLYS
        return tuple(tuple(sum(c * alpha**i for i, c in enumerate(p)) for p in row) for row in polys)

    steps = (1, 2, 3, 4)
    rwl = rows("r-whitney-lah", {"m": 2, "r": 2}, 4)
    return (
        (
            "whitney-lah rows 0..3, symbolic step (4 points + interpolation)",
            tuple(rows("whitney-lah", {"alpha": a}, 3) for a in steps),
            tuple(map(polys_at, steps)),
        ),
        (
            "whitney2 alpha=3 rows 0..3",
            rows("whitney2", {"alpha": 3}, 3),
            ((1,), (1, 1), (1, 5, 1), (1, 21, 12, 1)),
        ),
        ("dowling alpha=3 column", column("dowling", {"alpha": 3}, 4), (1, 2, 7, 35)),
        (
            "r-lah r=2 rows 0..5",
            rows("r-lah", {"r": 2}, 5),
            ((1,), (4, 1), (20, 10, 1), (120, 90, 18, 1), (840, 840, 252, 28, 1), (6720, 8400, 3360, 560, 40, 1)),
        ),
        (
            "r-stirling2 r=2 rows 0..5",
            rows("r-stirling2", {"r": 2}, 5),
            ((1,), (2, 1), (4, 5, 1), (8, 19, 9, 1), (16, 65, 55, 14, 1), (32, 211, 285, 125, 20, 1)),
        ),
        ("r-bell r=2 column", column("r-bell", {"r": 2}, 6), (1, 3, 10, 37, 151, 674)),
        (
            "r-whitney2 m=2 r=2 rows 0..4",
            rows("r-whitney2", {"m": 2, "r": 2}, 4),
            ((1,), (2, 1), (4, 6, 1), (8, 28, 12, 1), (16, 120, 100, 20, 1)),
        ),
        ("r-dowling m=2 r=2 column", column("r-dowling", {"m": 2, "r": 2}, 5), (1, 3, 11, 49, 257)),
        (
            "r-whitney-lah m=2 r=2 rows 0..4",
            rwl,
            ((1,), (4, 1), (24, 12, 1), (192, 144, 24, 1), (1920, 1920, 480, 40, 1)),
        ),
        ("r-whitney-lah m=2 r=2 row sums", tuple(map(sum, rwl)), (1, 5, 37, 361, 4361)),
        ("worked check: dowling-explicit(3, alpha=3) = 35", whitney.dowling_explicit(3, 3), 35),
        (
            "worked check: bell(4) = 15 via unit-step dowling",
            (_sum_value("bell", {}, 4), _sum_value("dowling", {"alpha": 1}, 3)),
            (15, 15),
        ),
        ("worked check: r-bell-explicit(3, r=2) = 37", rnumbers.r_bell_explicit(3, 2), 37),
        ("worked check: r-dowling-explicit(4, m=2, r=2) = 257", rnumbers.r_dowling_explicit(4, 2, 2), 257),
    )


def run_paper_tables(out=None) -> int:
    """Regenerate every bundled reference table and worked check; return the
    number of mismatches."""
    if out is None:
        out = sys.stdout
    problems = 0
    for label, computed, bundled in _paper_tables():
        if computed == bundled:
            print(f"ok        {label}", file=out)
        else:
            print(f"MISMATCH  {label}  {computed}", file=out)
            problems += 1
    print("all reference tables match" if not problems else f"{problems} mismatch(es)", file=out)
    return problems


# ---------------------------------------------------------------------------
# commands


@contextmanager
def _output(out_path: str | None):
    """The --out file, or stdout without one; failing to open or write the
    file is a usage error."""
    if not out_path:
        yield sys.stdout
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write --out {out_path}: {exc.strerror or exc}") from None


def _emit(text: str, out_path: str | None):
    with _output(out_path) as out:
        out.write(text)


def cmd_triangle(args) -> int:
    """Write a triangle as it is built (see `_decimal_rows`)."""
    if args.family not in FAMILIES:
        raise UsageError(f"unknown family {args.family!r}; known: {', '.join(sorted(FAMILIES))}")
    table = _decimal_rows(args.family, args.params, args.nmax)
    with _output(args.out) as out, decimal.localcontext(EXACT_DECIMALS):
        if args.fmt == "table":
            render_table(table, out)
        elif args.fmt == "csv":
            render_csv(table, out)
        else:
            triangle_json(table, args.family, args.params, out)
    return 0


def cmd_sum(args) -> int:
    if args.family not in SUMS:
        raise UsageError(f"unknown sum family {args.family!r}; known: {', '.join(sorted(SUMS))}")
    value = _sum_value(args.family, args.params, args.nmax)
    _emit(str(value) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    # Imported here, like `json` in the JSON writers: every other command
    # would pay for them at start.
    import json

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
    text = (
        f"family        {args.family}\n"
        f"nmax          {args.nmax}\n"
        f"entries       {entries}\n"
        f"peak bits     {peak}\n"
        f"elapsed (s)   {elapsed:.3f}\n"
    )
    _emit(text, args.out)
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
