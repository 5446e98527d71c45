"""Run one `dowling` CLI call with spans around each layer's entry points.

    python3 perfbench/tracer.py SRC SPANFILE OPID ARGV...

Imports `dowling.cli` from SRC (timed as the `cli.import` span), wraps the
public entry points of every module, calls `dowling.cli.main(ARGV)` and,
on the way out, writes the spans to SPANFILE as JSON.  Exits with the
CLI's exit code.  The program's own files are not changed: wrappers rebind
module and class attributes in this process only, including the names other
modules bound with `from .x import y`.

A span is `[name, start, end, parent, info]`: `parent` is the index of the
enclosing span (-1 at the top) and `info` carries a size where a metric
needs one.  Per-entry helpers (`Triangle.value`, `CoeffMatrix.entry`,
`binomial`, the factorial helpers, `lah_explicit`, `lah_signless`, ...) are
never wrapped: they run inside the loops of the routes that call them, and
a span per call would cost more than the call.
"""

from __future__ import annotations

import json
import sys
import time
import types

# Public functions that compute a single entry in O(1) big-int operations
# and are called inside hot loops.
PER_ENTRY = {"lah_explicit", "lah_signless"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.enumerated_totals = []

    def add(self, name, start, end, info=None):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, info])

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, info(args, result) if info else None]

        return wrapper

    def dump(self, path, op_id):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "op": op_id,
                    "spans": self.spans,  # None marks a span cut off by an abrupt exit
                    "enumerated_totals": self.enumerated_totals,
                },
                fh,
            )


def _rebind(modules, original, wrapper):
    """Point every module-level name bound to `original` at `wrapper`."""
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


def install(tracer: Tracer, dowling) -> None:
    from dowling import basis, classic, cli, exactmath, oracle, rnumbers, triangles, unified, whitney

    modules = [dowling, basis, classic, cli, exactmath, oracle, rnumbers, triangles, unified, whitney]

    def function(module, name, info=None):
        original = getattr(module, name)
        short = module.__name__.rsplit(".", 1)[1]
        _rebind(modules, original, tracer.wrap(f"{short}.{name}", original, info))

    def method(module, cls, name, info=None):
        short = module.__name__.rsplit(".", 1)[1]
        original = vars(cls)[name]
        setattr(cls, name, tracer.wrap(f"{short}.{cls.__name__}.{name}", original, info))

    text_size = lambda args, result: len(result) if isinstance(result, str) else None
    for name in ("render_table", "render_csv", "triangle_json"):
        function(cli, name, text_size)

    function(triangles, "recurrence_triangle")
    function(triangles, "transform")
    method(
        triangles,
        triangles.Triangle,
        "__post_init__",
        lambda args, result: [
            f"{args[0].family} {sorted((k, str(v)) for k, v in args[0].params.items())}",
            args[0].nmax,
        ],
    )

    function(basis, "connection_matrix", lambda args, result: args[0].size - 1)
    for name in ("expand_in_monomials", "factorial_basis", "power_basis", "monomial_basis"):
        function(basis, name)
    for name in ("verify_orthogonality", "verify_tauber_product", "identity_matrix"):
        function(basis, name)
    for name in ("__post_init__", "mul", "is_identity", "transform", "to_triangle"):
        method(basis, basis.CoeffMatrix, name)

    method(exactmath, exactmath.Poly, "__mul__")
    method(exactmath, exactmath.Poly, "__pow__")
    for name in ("__add__", "__sub__", "__mul__", "__pow__", "inverse"):
        method(exactmath, exactmath.Series, name)
    function(exactmath, "exp_series")
    function(exactmath, "interpolate")

    for module in (classic, whitney, rnumbers, unified):
        for name, value in list(vars(module).items()):
            if (
                isinstance(value, types.FunctionType)
                and value.__module__ == module.__name__
                and not name.startswith("_")
                and name not in PER_ENTRY
            ):
                function(module, name)

    function(oracle, "count_partitions")
    function(oracle, "count_all_partitions")
    enumerate_partitions = oracle._iter_partition_stats

    def counted(total):
        tracer.enumerated_totals.append(total)
        return enumerate_partitions(total)

    oracle._iter_partition_stats = counted


def main() -> int:
    src, span_file, op_id, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    tracer = Tracer()
    start = time.perf_counter()
    import dowling
    import dowling.cli

    tracer.add("cli.import", start, time.perf_counter())
    install(tracer, dowling)
    code = 1
    try:
        code = tracer.wrap("cli.main", dowling.cli.main)(argv)
    finally:
        tracer.dump(span_file, op_id)
    return code


if __name__ == "__main__":
    sys.exit(main())
