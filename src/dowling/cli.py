"""Command-line interface: emit triangles and Bell-type sums, run identity
verification suites, reproduce the bundled reference tables, and time the
library's build of a family's rows (`bench`: `families.rows`, whose entries
are ints for an integer family, where `triangle` prints rows that the engine
builds on `decimal.Decimal`).

Exit codes: 0 success, 1 verification/table failure, 2 usage or parameter
error.  All numeric output is decimal strings (rationals as "p/q") so
arbitrary precision survives serialization.
"""

from __future__ import annotations

import argparse
import decimal
import os
import stat
import sys
import time
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from itertools import chain, islice

from . import families
from .families import FAMILIES


class UsageError(Exception):
    """Bad family, identity, or parameter combination (exit code 2)."""


# ---------------------------------------------------------------------------
# the sums the CLI prints, each as the parameters it takes and its value at
# (params, n): the row sum of its `families.SUMS` family, and `qi-bell`, the
# Bell numbers by the explicit formula of `families.SUMS["bell"]` (Qi's),
# which is no row sum


_Sum = namedtuple("_Sum", ("needs", "value"))

SUMS = {
    name: _Sum(FAMILIES[entry.family].needs, partial(families.row_sum, entry.family))
    for name, entry in families.SUMS.items()
}
SUMS["qi-bell"] = _Sum((), partial(families.explicit_sum, "bell"))


_PARAMS = ("m", "r", "alpha", "beta", "gamma")


def _parse_param(name: str, raw: str):
    """A parameter as an exact rational; the family or identity that takes
    it checks whether it must be an integer."""
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse --{name}={raw!r}: {exc}") from None


def _collect_params(needs, args) -> dict:
    params = {}
    for name in needs:
        raw = getattr(args, name, None)
        if raw is None:
            raise UsageError(f"missing required parameter --{name}")
        params[name] = _parse_param(name, raw)
    return params


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
# iterate `rows` once; `int_rows()` builds the same rows again as ints, for
# the column width of a table.
_Rows = namedtuple("_Rows", ("nmax", "rows", "int_rows"))


def _decimal_rows(family: str, params: dict, nmax: int) -> _Rows:
    """Rows of a family from `families.rows`, to be iterated in the
    `EXACT_DECIMALS` context: the engine builds integer entries on
    `decimal.Decimal`; rational entries come as Fractions, and those of the
    streamed product `hs-lah` as Fractions or ints.  libmpdec stores
    base-10**19 limbs, so the str of an entry takes time linear in its
    digits, where that of an int is quadratic.  The parameters are
    validated here, before any output is opened, and a zero is replaced by
    its absolute value, so that one that came out as -0 (a negative weight
    times 0) prints as 0 and each row still holds Decimals only or none."""
    rows = families.rows(family, params, nmax, decimal.Decimal(1))
    return _Rows(
        nmax,
        (row if all(row) else tuple(v or abs(v) for v in row) for row in rows),
        lambda: families.rows(family, params, nmax),
    )


# The writers below stream a triangle to `out` one row at a time, each format
# as a head, the line of row n and a tail; an entry prints as its str, so a
# rational reads "p/q".  With `split`, the caller opened `out` to write from
# its start, and a large triangle of decimal rows may be written by two
# processes (see `_split_row`).


def render_table(table, out, split: bool = False) -> None:
    """Write lines "n | T(n,0)  T(n,1) ...", every entry right-aligned to
    the width of the widest.  Decimal rows (see `_decimal_rows`) are written
    as they come, each line by one %-format: the width is read first off
    the largest and smallest entry of `table.int_rows()`, since the printed
    length of an integer grows with its absolute value, plus one for a
    minus sign.  Every line's length is then known in closed form.  Any
    other rows, of Fractions or of `hs-lah`'s ints, are kept as their strs,
    so that each entry is printed once (an int's str is quadratic in its
    digits, and a second pass over `hs-lah` would rebuild its product)."""
    rows = iter(table.rows)
    first = next(rows)
    rows = chain((first,), rows)
    if isinstance(first[0], decimal.Decimal):
        hi = lo = 0
        for row in table.int_rows():
            hi = max(hi, max(row))
            lo = min(lo, min(row))
        width = max(len(str(hi)), len(str(lo)))
    else:
        rows = [tuple(map(str, row)) for row in rows]
        width = max(len(v) for row in rows for v in row)
    label = len(str(table.nmax))
    start, cell = f"%{label}d | %{width}s", f"  %{width}s"

    def line(n, row):
        return (start + cell * n + "\n") % (n, *row)

    def size(n, row):
        return label + 3 + width + n * (width + 2) + 1

    _write(out, table.nmax, rows, "", line, "", size if split else None, 1)


def render_csv(table, out, split: bool = False) -> None:
    """Write the header "n,k,value" and a line "n,k,T(n,k)" per entry."""

    def line(n, row):
        return "".join([f"{n},{k},{v}\n" for k, v in enumerate(map(str, row))])

    def size(n, row):
        return (n + 1) * (len(str(n)) + 3) + len("".join(map(str, range(n + 1)))) + _digits(row)

    _write(out, table.nmax, table.rows, "n,k,value\n", line, "", size if split else None, 2)


def triangle_json(table, family: str, params: dict, out, split: bool = False) -> None:
    """Write the triangle as the bytes of `json.dumps(obj, indent=2) + "\\n"`
    for obj = {"family", "params", "nmax", "rows"}, its values strings."""
    import json

    params = {key: str(value) for key, value in params.items()}
    head = {"family": family, "params": params, "nmax": table.nmax}
    # Drop the closing "\n}" and go on with the rows; an entry's str needs no
    # JSON escape.
    head = json.dumps(head, indent=2)[:-2] + ',\n  "rows": ['

    start, comma, end = '    [\n      "', '",\n      "', '"\n    ]'

    def line(n, row):
        return ("\n" if n == 0 else ",\n") + start + comma.join(map(str, row)) + end

    def size(n, row):
        return (1 if n == 0 else 2) + len(start) + n * len(comma) + len(end) + _digits(row)

    _write(out, table.nmax, table.rows, head, line, "\n  ]\n}\n", size if split else None, 2)


def _digits(row) -> int:
    """The printed length of a row of decimals, told without printing it:
    each entry's digits, plus one for a minus sign (no entry is -0, see
    `_decimal_rows`)."""
    return sum([v.adjusted() + 1 + v.is_signed() for v in row])


def _write(out, nmax: int, rows, head: str, line, tail: str, size, growth: int) -> None:
    """Write `head`, `line(n, row)` for each row and `tail` to `out`.  Given
    `size(n, row)`, the length of `line(n, row)` told without printing it
    (None to write in this process), the rows may be shared with a forked
    worker (see `_split_row`); that length grows about like n^growth."""
    out.write(head)
    rows = enumerate(rows)
    if size is not None:
        first = next(rows)
        rows = chain((first,), rows)
        m = _split_row(out, nmax, growth) if isinstance(first[1][0], decimal.Decimal) else None
        if m is not None:
            _write_split(out, rows, m, line, tail, size)
            return
    for n, row in rows:
        out.write(line(n, row))
    out.write(tail)


# Where a forked worker takes over, row m.  The cost model: a row costs in
# proportion to its bytes, and line n is about (n + 1)^g bytes long, g = 1
# for a table (every cell has one width) and g = 2 for csv and json (n + 1
# entries whose digits grow about linearly in n).  So the rows [0, m) cost
# C(m) ~ m^(g + 1) of the whole C.  This process spends C(m).  The worker
# spends b C(m) on its own pass over those rows, to find its offset, and
# C - C(m) on the rest; the two finish together at C(m) = C / (2 - b).  The
# build is about a quarter of a row's cost, but the worker's pass also sums
# the lengths and copies the pages the fork shares: timed on a 2-vCPU VM, b
# came to 0.2-0.4, and b = 0.4 (m at 0.79 (nmax + 1) for a table, 0.85 for
# csv and json) left neither process waiting on the other beyond noise.
_SPLIT_PASS = 0.4
# Below this nmax the fork, its copied pages and the rebuilt rows cost as
# much as the second CPU saves: on a 2-vCPU VM a split call took 5-15 ms
# longer at nmax 100-150, broke even at 175-200 and gained about 10 ms at
# 250, 0.13 s at 450.
_SPLIT_NMAX = 200


def _split_row(out, nmax: int, growth: int):
    """The first row that a forked worker writes, or None to write every row
    in this process: only a large triangle, on at least two CPUs, into a
    regular file, since the worker writes at its own byte offsets."""
    if nmax < _SPLIT_NMAX or not all(hasattr(os, name) for name in ("fork", "pwrite", "sched_getaffinity")):
        return None
    if len(os.sched_getaffinity(0)) < 2 or not stat.S_ISREG(os.fstat(out.fileno()).st_mode):
        return None
    return round((nmax + 1) * (2 - _SPLIT_PASS) ** (-1 / (growth + 1)))


def _write_split(out, rows, m: int, line, tail: str, size) -> None:
    """Write the rows [0, m) of `rows`, pairs (n, row), to `out` here, while
    a forked worker (see `_worker`) writes the rest and `tail` at their byte
    offsets.  The worker sends the offset it found and then 0, or the errno
    of a failed write, which is raised here as an OSError; an offset other
    than where this process's rows end raises too.  The worker is reaped
    before this returns, and killed first if this process fails."""
    out.flush()
    fd = out.fileno()
    start = os.lseek(fd, 0, os.SEEK_CUR)
    reader, writer = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(reader)
        _worker(fd, writer, rows, m, start, line, tail, size)
    os.close(writer)
    try:
        for n, row in islice(rows, m):
            out.write(line(n, row))
        out.flush()
        end = os.lseek(fd, 0, os.SEEK_CUR)
        report = b""
        while chunk := os.read(reader, 16):
            report += chunk
    except BaseException:
        os.kill(pid, 9)  # SIGKILL
        raise
    finally:
        os.close(reader)
        os.waitpid(pid, 0)
    offset, status = (int.from_bytes(report[i : i + 8], "little", signed=True) for i in (0, 8))
    if len(report) != 16 or status < 0:
        raise RuntimeError(f"the worker writing rows {m}.. failed")
    if status:
        raise OSError(status, os.strerror(status))
    if offset != end:
        raise RuntimeError(f"rows {m}.. were written from byte {offset}, but the rows before end at byte {end}")


def _worker(fd: int, pipe: int, rows, m: int, start: int, line, tail: str, size):
    """The forked worker of `_write_split`.  It reads the lengths of the
    rows before m off its own copy of `rows` and writes each later line
    with `os.pwrite`.  It leaves only through `os._exit`, so no frame of its
    caller runs on in this process."""
    status = -1
    try:
        offset = start + sum(size(n, row) for n, row in islice(rows, m))
        os.write(pipe, offset.to_bytes(8, "little", signed=True))
        for text in chain((line(n, row) for n, row in rows), (tail,)):
            data = memoryview(text.encode())
            while data:
                written = os.pwrite(fd, data, offset)
                data, offset = data[written:], offset + written
        status = 0
    except OSError as exc:
        status = exc.errno or -1
    except BaseException:
        import traceback

        traceback.print_exc()
        raise
    finally:
        try:
            os.write(pipe, status.to_bytes(8, "little", signed=True))
        finally:
            os._exit(0 if status == 0 else 1)


# ---------------------------------------------------------------------------
# the paper's reference tables and worked checks


def run_paper_tables(out) -> int:
    """Run every case of `identities.PAPER_TABLES`, writing one line each to
    `out`: "ok", or "MISMATCH" with the failures its shapes list; return the
    number of mismatches."""
    # Imported here, like the registry in `cmd_verify`: every other command
    # would pay for it at start.
    from .identities import PAPER_TABLES

    problems = 0
    for label, nmax, cases in PAPER_TABLES:
        failures = [item for case in cases for item in case(nmax)]
        if failures:
            listed = "; ".join("({n}, {k}) expected {expected}, actual {actual}".format(**item) for item in failures)
            print(f"MISMATCH  {label}  {listed}", file=out)
            problems += 1
        else:
            print(f"ok        {label}", file=out)
    print("all reference tables match" if not problems else f"{problems} mismatch(es)", file=out)
    return problems


# ---------------------------------------------------------------------------
# commands


@contextmanager
def _output(out_path: str | None):
    """The --out file, or stdout without one; failing to open or write
    either is a usage error.  Stdout is flushed before the block ends, so a
    closed pipe or a full disk is seen here, not at interpreter exit."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                yield fh
        except OSError as exc:
            raise UsageError(f"cannot write --out {out_path}: {exc.strerror or exc}") from None
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except OSError as exc:
        # What is left in the buffer would fail again at the flush of
        # interpreter exit: point stdout at the null device instead.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise UsageError(f"cannot write stdout: {exc.strerror or exc}") from None


def _emit(text: str, out_path: str | None):
    with _output(out_path) as out:
        out.write(text)


def cmd_triangle(args) -> int:
    """Write a triangle as it is built (see `_decimal_rows`), in every
    format one row at a time, `hs-lah` too; only a table whose rows are not
    decimals (rational or `hs-lah` entries) keeps its strs until the column
    width is known (see `render_table`).
    The --out file is opened here to be written from its start, so a large
    integer triangle may go out from two processes (see `_split_row`)."""
    table = _decimal_rows(args.family, args.params, args.nmax)
    split = bool(args.out)
    with _output(args.out) as out, decimal.localcontext(EXACT_DECIMALS):
        if args.fmt == "table":
            render_table(table, out, split)
        elif args.fmt == "csv":
            render_csv(table, out, split)
        else:
            triangle_json(table, args.family, args.params, out, split)
    return 0


def cmd_sum(args) -> int:
    _emit(str(args.entry.value(args.params, args.nmax)) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    """Write the report of the identity `_check_args` resolved, or with
    `all` {"pass", "identities"} over every identity the oracle flag allows."""
    # Imported here, like `json` in the JSON writers: every other command
    # would pay for them at start.
    import json

    from . import identities

    if args.entry is None:
        chosen = [ident for ident in identities.REGISTRY.values() if ident.needs_oracle <= args.with_oracle]
        given = [identities.taken(ident, args.params) for ident in chosen]
    else:
        if args.entry.needs_oracle and not args.with_oracle:
            raise UsageError(f"identity {args.entry.name!r} needs --with-oracle")
        chosen, given = [args.entry], [args.params]
    unused = set(args.params).difference(*given)
    if unused:
        raise UsageError(f"no identity takes --{min(unused)} as given")
    reports = [identities.report(ident, g, args.nmax) for ident, g in zip(chosen, given)]
    ok = all(r["pass"] for r in reports)
    result = {"pass": ok, "identities": reports} if args.entry is None else reports[0]
    _emit(json.dumps(result, indent=2) + "\n", args.out)
    return 0 if ok else 1


def cmd_paper_tables(args) -> int:
    with _output(None) as out:
        problems = run_paper_tables(out)
    return 1 if problems else 0


def cmd_bench(args) -> int:
    """Build a family's rows one at a time, timing only the build, and count
    their entries and the bits of the widest numerator or denominator.  The
    rows are those of `families.rows`, ints or Fractions, not the `Decimal`
    rows `triangle` prints for an integer family (see `_decimal_rows`)."""
    elapsed = entries = peak = 0
    start = time.perf_counter()
    for row in families.rows(args.family, args.params, args.nmax):
        elapsed += time.perf_counter() - start
        entries += len(row)
        peak = max(peak, *(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in row))
        start = time.perf_counter()
    elapsed += time.perf_counter() - start
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


class _Parser(argparse.ArgumentParser):
    """Help and usage on stdout are written through `_output`, so a stdout
    that fails is a usage error here as it is for every command."""

    def _print_message(self, message, file=None):
        if file is not sys.stdout:
            super()._print_message(message, file)
            return
        with _output(None) as out:
            out.write(message)


class _Nmax(argparse.Action):
    """Store the row count with the flag it was given by (`sum` and `bench`
    take --nmax or --n), so that a message names the flag as typed."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.nmax = values
        namespace.nmax_flag = option_string


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dowling",
        description="Exact Stirling/Lah/Whitney/Dowling number families, their "
        "Bell-type sums, and identity verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, nmax_aliases=("--nmax",)):
        p.add_argument(*nmax_aliases, dest="nmax", type=int, default=None, action=_Nmax)
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

    p_bench = sub.add_parser("bench", help="time families.rows (not the Decimal rows of triangle)")
    p_bench.add_argument("--family", required=True)
    add_common(p_bench, nmax_aliases=("--nmax", "--n"))

    return parser


def _lookup(kind: str, name: str, table: dict, also: str = ""):
    entry = table.get(name)
    if entry is None:
        raise UsageError(f"unknown {kind} {name!r}; known: {', '.join(sorted(table))}{also}")
    return entry


def _check_args(args) -> None:
    """Resolve the name the command is given, as `args.entry`: a family of
    `FAMILIES`, a sum of `SUMS`, or an identity of the registry (None for
    `all` and for `paper-tables`).  Then refuse a bad argument combination
    and set `args.params` to the parsed parameters the command takes."""
    args.entry, args.params = None, {}
    nmax = getattr(args, "nmax", None)
    given = [name for name in _PARAMS if getattr(args, name, None) is not None]
    if args.command == "verify":
        # Imported here, as in `run_paper_tables`: every other command would
        # pay for it at start.
        from .identities import REGISTRY

        if args.identity != "all":
            args.entry = _lookup("identity", args.identity, REGISTRY, " or 'all'")
        args.params = _collect_params(given, args)
    elif args.command != "paper-tables":
        kind, table = ("sum family", SUMS) if args.command == "sum" else ("family", FAMILIES)
        args.entry = _lookup(kind, args.family, table)
        extra = [name for name in given if name not in args.entry.needs]
        if extra:
            raise UsageError(f"family {args.family!r} does not take --{extra[0]}")
        args.params = _collect_params(args.entry.needs, args)
        if nmax is None:
            raise UsageError("--nmax is required")
    if nmax is not None and nmax < 0:
        raise UsageError(f"{args.nmax_flag} must be nonnegative")


_DISPATCH = {
    "triangle": cmd_triangle,
    "sum": cmd_sum,
    "verify": cmd_verify,
    "paper-tables": cmd_paper_tables,
    "bench": cmd_bench,
}


def _attach_negative_values(argv) -> list:
    """Each `--flag -1/2` as `--flag=-1/2`: argparse reads a token that starts
    with '-' as an option unless it looks like a negative int or decimal."""
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if token[:1] == "-" and token[1:2].isdecimal() and flag[:2] == "--" and "=" not in flag and flag != "--":
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
        with unlimited_int_digits():
            _check_args(args)
            return _DISPATCH[args.command](args)
    except SystemExit as exc:
        # argparse's own exit, once it has written the help (0) or its usage
        # error (2).
        return exc.code
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
