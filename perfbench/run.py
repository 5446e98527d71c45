"""Closed-loop benchmark of the `dowling` CLI.

    python3 perfbench/run.py --workload emit|build|verify --seed N \\
        --seconds S --trace 0|1

One client runs one child process per op and starts the next op only when
the previous child has exited.  The ops come from a seeded list
(`ops.py`); the CLI sees nothing but the generated argv.  A run holds a
fixed number of whole passes over the workload's strata, sized to take
about `--seconds` seconds on the parent of this benchmark (half as long with
`--trace 1`, where each op runs twice), so every run of a workload attempts
and fails as many ops.  Every op's exit code and output digest are checked
against `expected.json`; an op fails on a nonzero exit or a digest
mismatch, and the result is `correct` unless an op exited 0 with wrong
output.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
each op runs twice, first plainly and then under `tracer.py`, and the run
reports per-layer metrics from the spans plus the tracing overhead.  The
last line of stdout is the result as JSON; the line before it is a report
with the seed, a digest of the op list and the bases of every ratio.

Run it from the repository root; it reads `src/` and writes only under
`.perfbench_work/`, which it removes on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import ops as opspace  # noqa: E402

SETUP_REPEATS = 15  # setup calls before the loop, and as many again after it
OP_TIMEOUT_S = 60
# A run on a host far slower than the one its length was sized on stops here,
# so that it still ends within its time limit; the report says so.
LOOP_LIMIT_S = 120
TAIL_BEYOND = 10
PROBE_LOOPS = 2_000_000
# Equivalent of the `dowling` console script, with the source tree on sys.path.
CLI_STUB = "import sys; sys.path.insert(0, sys.argv.pop(1)); from dowling.cli import main; sys.exit(main())"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "rss_p50_mb": "MB",
    "rss_max_mb": "MB",
}


class Outcome:
    """One child run: wall time, exit code, resource use, check result."""

    def __init__(self, op, wall, code, usage, sha256, expected):
        self.op = op
        self.wall = wall
        self.rss_mb = usage.ru_maxrss / 1024
        self.cpu = usage.ru_utime + usage.ru_stime
        self.failed = code != expected["rc"] or sha256 != expected["sha256"]
        self.wrong = code == 0 and sha256 != expected["sha256"]


def _python() -> list:
    # -I keeps the child clear of PYTHON* variables and the user site; the
    # bytecode cache lives in the work directory, warmed before timing.
    return [sys.executable, "-I", "-X", f"pycache_prefix={WORK / 'pycache'}"]


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("DOWLING_CACHE_DIR", None)  # a cache file must never stand in for a build
    return env


def _sha256(path: Path) -> str | None:
    if not path.exists():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Runner:
    def __init__(self, workload: str, expected: dict):
        self.workload = workload
        self.expected = expected
        self.env = _child_env()
        self.stdout = WORK / "stdout"
        self.out = WORK / "out"
        self.spans = WORK / "spans.json"

    def run(self, op: tuple, traced: bool = False, op_id: int = 0, section: str | None = None):
        section = section or self.workload
        to_file = section == "emit"
        argv = list(op) + (["--out", str(self.out)] if to_file else [])
        if traced:
            cmd = _python() + [str(HERE / "tracer.py"), str(SRC), str(self.spans), str(op_id), *argv]
        else:
            cmd = _python() + ["-c", CLI_STUB, str(SRC), *argv]
        for path in (self.out, self.spans):
            path.unlink(missing_ok=True)
        with open(self.stdout, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.DEVNULL, cwd=WORK, env=self.env
            )
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sha256 = _sha256(self.out if to_file else self.stdout)
        outcome = Outcome(op, wall, proc.returncode, usage, sha256, self.expected[section][opspace.op_key(op)])
        if traced:
            outcome.spans = json.loads(self.spans.read_text()) if self.spans.exists() else None
        return outcome


# ---------------------------------------------------------------------------
# statistics


def _ranked_walls(outcomes: list) -> list:
    """Wall times ordered so that every failed op ranks above every success."""
    return [o.wall for o in sorted(outcomes, key=lambda o: (o.failed, o.wall))]


def _nearest_rank(values: list, percentile: float) -> float:
    return values[max(0, math.ceil(percentile / 100 * len(values)) - 1)]


def _tail(values: list) -> tuple:
    """(percentile, value, samples beyond): the highest nearest-rank
    percentile with TAIL_BEYOND samples beyond it, the median in runs too
    short to have one.  The percentile moves smoothly with the sample count,
    so runs of slightly different length report comparable tails."""
    rank = len(values) - TAIL_BEYOND
    if rank < math.ceil(len(values) / 2):
        rank = math.ceil(len(values) / 2)
    return 100 * rank / len(values), values[rank - 1], len(values) - rank


def host_probe() -> float:
    """Time a fixed pure-Python loop; recorded beside the run, never used to rescale."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# per-layer metrics from spans

RENDER = {"cli.render_table", "cli.render_csv", "cli.triangle_json"}
EXPAND = {"basis.expand_in_monomials", "basis.factorial_basis", "basis.power_basis", "basis.monomial_basis"}
SERIES_PREFIX = ("exactmath.Series.", "exactmath.exp_series")
ROUTE_MODULES = ("classic", "whitney", "rnumbers", "unified", "oracle")
INVERSE_CHECK = {"basis.CoeffMatrix.mul", "basis.CoeffMatrix.is_identity"}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.render_s": "s",
    "cli.render_mb": "MB",
    "cli.render_share": "ratio",
    "cli.self_s": "s",
    "triangles.build_calls": "count",
    "triangles.build_s": "s",
    "triangles.entries_built": "count",
    "triangles.validate_s": "s",
    "triangles.redundant_build_ratio": "ratio",
    "triangles.transform_s": "s",
    "basis.solve_calls": "count",
    "basis.solve_s": "s",
    "basis.solve_max_n": "count",
    "basis.expand_s": "s",
    "basis.matmul_calls": "count",
    "basis.matmul_s": "s",
    "basis.coerce_s": "s",
    "exactmath.poly_mul_calls": "count",
    "exactmath.poly_mul_s": "s",
    "exactmath.series_s": "s",
    **{f"{m}.{k}": u for m in ROUTE_MODULES for k, u in (("calls", "count"), ("self_s", "s"))},
    "unified.inverse_check_s": "s",
    "oracle.partitions_enumerated": "count",
    "proc.cpu_s": "s",
    "proc.cpu_wall_ratio": "ratio",
    "host.probe_s": "s",
    "trace.op_p50_s": "s",
    "trace.untraced_op_p50_s": "s",
    "trace.overhead_s": "s",
}


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def op_layers(doc: dict) -> Counter:
    """Per-layer totals of one traced op."""
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    totals = Counter()
    built = {}
    for index, span in enumerate(spans):
        if span is None:
            continue
        name, start, end, parent, info = span
        duration = end - start
        own = duration - covered[index]
        module = name.split(".", 1)[0]
        if module in ROUTE_MODULES:
            totals[f"{module}.calls"] += 1
            totals[f"{module}.self_s"] += own
        if name == "cli.import":
            totals["cli.import_s"] += duration
        elif name == "cli.main":
            totals["cli.self_s"] += own
        elif name in RENDER:
            totals["cli.render_s"] += duration
            totals["cli.render_mb"] += (info or 0) / (1 << 20)
        elif name == "triangles.Triangle.__post_init__":
            key, nmax = info
            totals["triangles.build_calls"] += 1
            totals["triangles.entries_built"] += (nmax + 1) * (nmax + 2) // 2
            totals["triangles.validate_s"] += duration
            if built.get(key, -1) >= nmax:
                totals["redundant_builds"] += 1
            built[key] = max(built.get(key, -1), nmax)
        elif name == "triangles.recurrence_triangle":
            totals["triangles.build_s"] += own
        elif name == "triangles.transform":
            totals["triangles.transform_s"] += duration
        elif name == "basis.connection_matrix":
            totals["basis.solve_calls"] += 1
            totals["basis.solve_s"] += own
            totals["solve_max_n"] = max(totals["solve_max_n"], info)
        elif name in EXPAND:
            totals["basis.expand_s"] += own
        elif name == "basis.CoeffMatrix.mul":
            totals["basis.matmul_calls"] += 1
            totals["basis.matmul_s"] += own
        elif name == "basis.CoeffMatrix.__post_init__":
            totals["basis.coerce_s"] += duration
        elif name == "exactmath.Poly.__mul__":
            totals["exactmath.poly_mul_calls"] += 1
            totals["exactmath.poly_mul_s"] += own
        elif name.startswith(SERIES_PREFIX):
            totals["exactmath.series_s"] += own
        if name in INVERSE_CHECK and parent >= 0 and spans[parent][0] == "unified.hs_pair":
            totals["unified.inverse_check_s"] += duration
    totals["oracle.partitions_enumerated"] = sum(_bell(t) for t in doc["enumerated_totals"])
    return totals


def layer_metrics(traced: list, plain: list, probes: list) -> tuple:
    """(per-layer metrics, report fields) of a traced run."""
    ops = len(traced)
    totals = Counter()
    solve_max_n = 0
    for outcome in traced:
        layers = op_layers(outcome.spans) if outcome.spans else Counter()
        solve_max_n = max(solve_max_n, layers.pop("solve_max_n", 0))
        totals.update(layers)
    metrics = {name: totals[name] / ops for name in PER_LAYER_UNITS if name in totals}
    builds = totals["triangles.build_calls"]
    wall = sum(o.wall for o in traced)
    cpu = sum(o.cpu for o in traced)
    traced_p50 = _nearest_rank(_ranked_walls(traced), 50)
    plain_p50 = _nearest_rank(_ranked_walls(plain), 50)
    metrics.update(
        {
            "cli.render_share": totals["cli.render_s"] / wall,
            "triangles.redundant_build_ratio": totals["redundant_builds"] / builds if builds else 0.0,
            "basis.solve_max_n": solve_max_n,
            "proc.cpu_s": cpu / ops,
            "proc.cpu_wall_ratio": cpu / wall,
            "host.probe_s": statistics.median(probes),
            "trace.op_p50_s": traced_p50,
            "trace.untraced_op_p50_s": plain_p50,
            "trace.overhead_s": traced_p50 - plain_p50,
        }
    )
    metrics = {name: metrics.get(name, 0.0) for name in PER_LAYER_UNITS}
    report = {
        "triangles.redundant_build_ratio": {"redundant": totals["redundant_builds"], "base": builds},
        "ops_traced": ops,
        "spans_missing": sum(1 for o in traced if not o.spans),
    }
    return metrics, report


# ---------------------------------------------------------------------------
# end-to-end metrics


def end_to_end(setup: list, outcomes: list, loop_wall: float) -> tuple:
    ranked = _ranked_walls(outcomes)
    percentile, tail, beyond = _tail(ranked)
    successes = sum(1 for o in outcomes if not o.failed)
    rss = [o.rss_mb for o in outcomes]
    metrics = {
        "setup_s": statistics.median(o.wall for o in setup),
        "op_p50_s": _nearest_rank(ranked, 50),
        "op_tail_s": tail,
        "ops_per_s": successes / loop_wall,
        "rss_p50_mb": statistics.median(rss),
        "rss_max_mb": max(rss),
    }
    report = {
        "op_tail_s": {"percentile": percentile, "samples": len(ranked), "beyond": beyond},
        "setup_s": {"samples": [o.wall for o in setup]},
    }
    return metrics, report


def _check_checkout() -> dict:
    if not (SRC / "dowling" / "cli.py").is_file():
        raise SystemExit(f"error: no dowling sources under {SRC}; run from a repository checkout")
    expected = HERE / "expected.json"
    if not expected.is_file():
        raise SystemExit(f"error: {expected} is missing; run perfbench/pin.py")
    return json.loads(expected.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the dowling CLI.")
    parser.add_argument("--workload", required=True, choices=opspace.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    expected = _check_checkout()

    passes = opspace.run_passes(args.workload, args.seconds / (2 if args.trace else 1))
    ops = opspace.op_list(args.workload, args.seed, passes)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        runner = Runner(args.workload, expected)
        probes = [host_probe()]
        runner.run(opspace.SETUP_OP, section="setup")  # fills the bytecode cache
        if args.trace:
            runner.run(opspace.SETUP_OP, traced=True, section="setup")
        setup = [runner.run(opspace.SETUP_OP, section="setup") for _ in range(SETUP_REPEATS)]

        plain, traced = [], []
        start = time.perf_counter()
        for op_id, op in enumerate(ops):
            if time.perf_counter() - start >= LOOP_LIMIT_S:
                break
            plain.append(runner.run(op))
            if args.trace:
                traced.append(runner.run(op, traced=True, op_id=op_id))
        loop_wall = time.perf_counter() - start
        setup += [runner.run(opspace.SETUP_OP, section="setup") for _ in range(SETUP_REPEATS)]
        probes.append(host_probe())
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    counted = traced if args.trace else plain
    attempted = len(counted)
    failed = sum(1 for o in counted if o.failed)
    checked = setup + plain + traced
    correct = not any(o.wrong or (o.failed and o.op == opspace.SETUP_OP) for o in checked)
    if args.trace:
        metrics, report = layer_metrics(traced, plain, probes)
        units = PER_LAYER_UNITS
    else:
        metrics, report = end_to_end(setup, plain, loop_wall)
        units = END_TO_END_UNITS
    report.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "op_list_sha256": opspace.list_digest(ops),
            "ops_run": len(plain),
            "ops_listed": len(ops),
            "passes": passes,
            "loop_wall_s": loop_wall,
            "fail_ratio": {"value": failed / attempted, "failed": failed, "base": attempted},
            "wide_entry_ops": sum(1 for o in counted if opspace.is_wide(o.op)),
            "host_probe_s": probes,
            "failed_ops": sorted({opspace.op_key(o.op) for o in counted if o.failed}),
        }
    )
    for name, value in metrics.items():
        print(f"{name:32} {value:<24.6g} {units[name]}")
    print(f"{'fail_ratio':32} {failed / attempted:<24.6g} ratio (base {attempted})")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
