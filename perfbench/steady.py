"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/steady.py --workload emit --seeds 1-10 --seconds 30 \\
        [--trace 0|1] [--json out.json]

For every metric it prints the median, the quartiles and the spread: the
distance between the first and third quartile (`statistics.quantiles(n=4)`)
as a share of the median.  A benchmark is steady when each end-to-end
spread stays well inside the metric's bound in BENCHMARK.json.  With
`--json FILE`, the runs and the summary are merged into FILE under
`<workload>` / `traced` or `untraced`, so one file can hold a commit's
trajectory point for every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2].split(" ", 1)[1])
    return result


def summarise(runs: list) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json")
    args = parser.parse_args(argv)
    runs = []
    for seed in _seeds(args.seeds):
        run = run_once(args.workload, seed, args.seconds, args.trace)
        print(f"seed {seed}: attempted {run['attempted']} failed {run['failed']} correct {run['correct']}", flush=True)
        runs.append({"seed": seed, **run})
    summary = summarise(runs)
    for name, row in summary.items():
        spread = "n/a" if row["spread"] is None else f"{row['spread']:.3f}"
        print(f"{name:32} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} spread {spread} {row['unit']}")
    if args.json:
        path = Path(args.json)
        point = json.loads(path.read_text()) if path.exists() else {}
        point.setdefault(args.workload, {})["traced" if args.trace else "untraced"] = {
            "seconds": args.seconds,
            "summary": summary,
            "runs": runs,
        }
        path.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
