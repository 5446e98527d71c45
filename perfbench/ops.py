"""Op space and seeded op lists of the three benchmark workloads.

An op is the argv of one `dowling` CLI call, as a tuple of strings.  Every
op a list can contain comes from a finite space (`op_space`), so each one has
a pinned expected digest in `expected.json`.  The `emit` ops write to a file;
the runner appends `--out <path>` at run time, and that flag is not part of
the op.

A list is a stream of passes.  One pass holds every stratum of its workload
once (a family and format for `emit`, a sum or triangle family for `build`,
an identity for `verify`).  The size and the parameters of each stratum
rotate with the pass number, Latin-square style, so every pass has the same
mix of sizes, and pass k holds the same strata at the same sizes under every
seed.  The seed picks each `emit` nmax inside its size bucket, orders the
ops inside each pass (keeping the size ranks interleaved), and picks the
wide-entry ops and their slots.  A run holds a fixed number of whole passes
(`run_passes`), so what it measures hardly depends on the seed, while the
inputs still change with the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("emit", "build", "verify")

# ---------------------------------------------------------------------------
# argv construction


def _param_args(params: dict) -> list:
    return [arg for key, value in params.items() for arg in (f"--{key}", str(value))]


def triangle_op(family: str, params: dict, nmax: int, fmt: str) -> tuple:
    return ("triangle", "--family", family, *_param_args(params), "--nmax", str(nmax), "--format", fmt)


def sum_op(family: str, params: dict, n: int) -> tuple:
    return ("sum", "--family", family, *_param_args(params), "--n", str(n))


def verify_op(identity: str, nmax) -> tuple:
    argv = ["verify", "--identity", identity]
    if nmax is not None:
        argv += ["--nmax", str(nmax)]
    if identity == "oracle":
        argv.append("--with-oracle")
    return tuple(argv)


# About one op in this many is a wide-entry op (entries past CPython's
# 4300-digit int->str limit).  They fail on the parent of this benchmark;
# they are kept, at a size that costs about an average op of their workload
# once they pass.
WIDE_EVERY = 20

# Op rate of each workload on the parent of this benchmark (2-vCPU VM), from
# which `run_passes` sizes a run to about the seconds it is given.
NOMINAL_OPS_PER_S = {"emit": 1.7, "build": 1.7, "verify": 2.6}

# ---------------------------------------------------------------------------
# emit: triangles whose production path is a recurrence; render + write bound

# The order sets the rotation below: whitney-lah with alpha = 3 lands at the
# largest size in table format in pass 0.  That op has the widest entries and
# the largest peak memory of the op space, so every run holds it once and
# rss_max_mb does not depend on how far a run gets.
EMIT_FAMILIES = {
    "stirling2": ({},),
    "lah": ({},),
    "whitney2": tuple({"alpha": a} for a in (1, 2, 3)),
    "r-stirling2": tuple({"r": r} for r in (0, 1, 2)),
    "r-stirling1": tuple({"r": r} for r in (0, 1, 2)),
    "whitney-lah": tuple({"alpha": a} for a in (3, 2, 1)),
    "r-lah": tuple({"r": r} for r in (0, 1, 2)),
    "r-whitney-lah": ({"m": 1, "r": 0}, {"m": 2, "r": 1}, {"m": 3, "r": 2}),
}
EMIT_FORMATS = ("table", "csv", "json")
# Size buckets, spread evenly so that percentiles of op time fall inside a
# smooth distribution rather than between clusters.  A pass gives every
# bucket to the same number of ops.  The buckets are narrow because table
# memory grows like nmax^3; the largest is a single size so that the peak
# memory of a run does not move with the seed.
EMIT_SIZES = ((200, 210), (250, 260), (300, 310), (350, 360), (400, 410), (450,))
# r-Whitney-Lah with a huge step: entries of row 95 reach about 4800 digits.
EMIT_WIDE_M = 10**50
EMIT_WIDE_NMAX = 95

# ---------------------------------------------------------------------------
# build: sums and solver-built triangles; compute bound, small output

HS_GRID = (
    {"alpha": 0, "beta": 1, "gamma": 2},
    {"alpha": 1, "beta": 0, "gamma": 0},
    {"alpha": Fraction(1, 2), "beta": Fraction(1, 3), "gamma": 2},
)
# (command, family, parameter choices, size grid)
BUILD_STRATA = (
    ("sum", "bell", ({},), (600, 900, 1200)),
    ("sum", "dowling", tuple({"alpha": a} for a in (1, 2, 3)), (600, 900, 1200)),
    ("sum", "r-bell", tuple({"r": r} for r in (1, 2, 3)), (600, 900, 1200)),
    ("sum", "qi-bell", ({},), (150, 225, 300)),
    ("sum", "r-dowling", ({"m": 1, "r": 1}, {"m": 2, "r": 1}, {"m": 3, "r": 2}), (60, 90, 120)),
    ("sum", "hs-bell", HS_GRID, (30, 45, 60)),
    ("sum", "cakic-bell", tuple({"alpha": a} for a in (1, 2, 3)), (30, 45, 60)),
    ("triangle", "stirling1", ({},), (150, 200, 250)),
    ("triangle", "whitney1", tuple({"alpha": a} for a in (1, 2, 3)), (150, 200, 250)),
    ("triangle", "r-whitney1", ({"m": 1, "r": 1}, {"m": 2, "r": 1}, {"m": 3, "r": 2}), (50, 75, 100)),
    ("triangle", "r-whitney2", ({"m": 1, "r": 1}, {"m": 2, "r": 1}, {"m": 3, "r": 2}), (50, 75, 100)),
    ("triangle", "hs1", HS_GRID, (25, 35, 45)),
    ("triangle", "hs2", HS_GRID, (25, 35, 45)),
    ("triangle", "hs-lah", HS_GRID, (25, 35, 45)),
    ("triangle", "cakic", tuple({"alpha": a} for a in (1, 2, 3)), (25, 35, 45)),
)
BUILD_WIDE = sum_op("dowling", {"alpha": 10**9}, 600)

# ---------------------------------------------------------------------------
# verify: every identity at its default size (None) and raised sizes

# Raised sizes are capped so that no op takes more than about 5 s on the
# parent of this benchmark; the per-entry routes grow roughly like n^5.
# weighted-egf runs at its default only: its series order is fixed at 12 and
# the CLI has no flag to raise it, so a larger nmax is a usage error.
VERIFY_GRID = {
    "lef": (None, 60, 90),
    "verlah": (None, 30, 40),
    "horilah": (None, 30, 40),
    "lgf": (None, 30, 40),
    "qi": (None, 50, 80),
    "ordlahstirling": (None, 20, 25),
    "stirling-inverse": (None, 13, 18),
    "ortho": (None, 18, 24),
    "inv1": (None, 13, 18),
    "wla1": (None, 18, 24),
    "triwlah": (None, 20, 25),
    "whitney-ortho": (None, 18, 24),
    "benoumhani": (None, 22, 30),
    "dow1": (None, 15, 20),
    "bell-reduction": (None, 18, 24),
    "lah1": (None, 15, 20),
    "lah4": (None, 10, 14),
    "expb": (None, 15, 20),
    "weighted-egf": (None,),
    "rw-ortho": (None, 12, 16),
    "rw-inv": (None, 10, 14),
    "rwhitneylah": (None, 15, 18),
    "exprwlah": (None, 18, 24),
    "rwlah-routes": (None, 15, 18),
    "expl-rdow": (None, 18, 24),
    "ugexp": (None, 13, 16),
    "hs-ortho": (None, 12, 16),
    "invrel": (None, 13, 18),
    "log-concavity": (None, 30, 40),
    "specializations": (None, 9, 12),
    "oracle": (None, 9, 10, 11),
}

PAPER_TABLES = ("paper-tables",)
SETUP_OP = sum_op("bell", {}, 0)


def _build_op(command, family, params, size) -> tuple:
    if command == "sum":
        return sum_op(family, params, size)
    return triangle_op(family, params, size, "csv")


def op_key(op: tuple) -> str:
    return " ".join(op)


# ---------------------------------------------------------------------------
# passes, op spaces and seeded lists

EMIT_WIDE_OPS = [
    triangle_op("r-whitney-lah", {"m": EMIT_WIDE_M, "r": r}, EMIT_WIDE_NMAX, fmt)
    for r in (0, 1, 2)
    for fmt in EMIT_FORMATS
]
WIDE_OPS = {"emit": EMIT_WIDE_OPS, "build": [BUILD_WIDE], "verify": []}


def _rotate(choices: tuple, index: int):
    return choices[index % len(choices)]


def _emit_slots(index: int) -> list:
    return [
        (
            (i + j + index) % len(EMIT_SIZES),
            tuple(
                triangle_op(family, _rotate(choices, j + index), nmax, fmt)
                for nmax in _rotate(EMIT_SIZES, i + j + index)
            ),
        )
        for i, (family, choices) in enumerate(EMIT_FAMILIES.items())
        for j, fmt in enumerate(EMIT_FORMATS)
    ]


def _build_slots(index: int) -> list:
    return [
        ((i + index) % len(sizes), (_build_op(command, family, _rotate(choices, index), _rotate(sizes, i + index)),))
        for i, (command, family, choices, sizes) in enumerate(BUILD_STRATA)
    ]


def _verify_slots(index: int) -> list:
    slots = [
        ((i + index) % len(grid), (verify_op(name, _rotate(grid, i + index)),))
        for i, (name, grid) in enumerate(VERIFY_GRID.items())
    ]
    return slots + [(0, (PAPER_TABLES,))]


# Pass k holds one op from each slot.  A slot is (size rank, the ops the seed
# picks from); rank 0 is a stratum's smallest size.
SLOTS = {"emit": _emit_slots, "build": _build_slots, "verify": _verify_slots}
# Every rotation above repeats within this many passes.
PERIOD = 12


def op_space(workload: str) -> list:
    """Every op the generator can put in a list of this workload, sorted."""
    slots = SLOTS[workload]
    ops = {op for index in range(PERIOD) for _, slot in slots(index) for op in slot}
    return sorted(ops.union(WIDE_OPS[workload]))


def _interleave(ranked: list, rng: random.Random) -> list:
    """Order one pass so that every prefix holds the size ranks in near-equal
    shares; the seed orders the ops within a rank and the ranks within each
    round.  A run ends inside a pass, and this keeps that partial pass as
    balanced as the whole ones."""
    groups: dict = {}
    for rank, op in ranked:
        groups.setdefault(rank, []).append(op)
    for group in groups.values():
        rng.shuffle(group)
    ops = []
    while groups:
        ranks = sorted(groups)
        rng.shuffle(ranks)
        for rank in ranks:
            ops.append(groups[rank].pop())
            if not groups[rank]:
                del groups[rank]
    return ops


def _normal_ops(workload: str, rng: random.Random):
    index = 0
    while True:
        ops = _interleave([(rank, rng.choice(slot)) for rank, slot in SLOTS[workload](index)], rng)
        # The oracle op costs about a quarter of a verify pass.  It runs first
        # in every pass, so every run of the same length holds as many of them.
        ops.sort(key=lambda op: "oracle" not in op)
        yield from ops
        index += 1


def run_passes(workload: str, seconds: float) -> int:
    """Passes in a run of about `seconds` seconds on the parent of this benchmark.

    The count depends on nothing but the workload and the seconds, so every
    run of a workload holds the same mix of strata and sizes, attempts as
    many ops and, while the wide-entry ops fail, fails as many.
    """
    pass_ops = len(SLOTS[workload](0)) * (WIDE_EVERY / (WIDE_EVERY - 1) if WIDE_OPS[workload] else 1)
    return max(1, round(seconds * NOMINAL_OPS_PER_S[workload] / pass_ops))


def op_list(workload: str, seed: int, passes: int) -> list:
    """The seeded op list of a workload; the same seed gives the same list.

    A workload with wide-entry ops gets one of them per WIDE_EVERY - 1 other
    ops, rounded, each at a seeded slot of its own stretch of the list.
    """
    rng = random.Random(f"{workload}:{seed}")
    normal = _normal_ops(workload, rng)
    ops = [next(normal) for _ in range(passes * len(SLOTS[workload](0)))]
    wide = WIDE_OPS[workload]
    count = round(len(ops) / (WIDE_EVERY - 1)) if wide else 0
    stretch = len(ops)
    # From the last stretch back, so an insertion moves no slot still to come.
    for i in reversed(range(count)):
        ops.insert(rng.randint(i * stretch // count, (i + 1) * stretch // count), rng.choice(wide))
    return ops


def is_wide(op: tuple) -> bool:
    return op in WIDE_OPS["emit"] or op in WIDE_OPS["build"]


def list_digest(ops: list) -> str:
    text = json.dumps([list(op) for op in ops], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
