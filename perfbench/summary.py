#!/usr/bin/env python3
"""Print every metric of every workload by name and unit.

    python3 perfbench/summary.py [--seed N] [--seconds S] [--workload W ...]

Runs each workload in a fresh process, untraced (end-to-end metrics) and
traced (per-layer metrics), with the same output checks as a single run.
Besides the metrics in BENCHMARK.json it prints ``failed_frac``, failed
jobs over attempted jobs of the untraced run.  Exits 1 if any job failed.
"""

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    all_correct = True
    for workload in args.workload or WORKLOADS:
        plain = run_one(workload, args.seed, args.seconds, 0)
        traced = run_one(workload, args.seed, args.seconds, 1)
        all_correct &= plain["correct"] and traced["correct"]
        print(f"== {workload} (seed {args.seed}): attempted {plain['attempted']}, failed {plain['failed']}, "
              f"correct {plain['correct'] and traced['correct']}")
        rows = list(plain["metrics"].items())
        rows.append(("failed_frac", {"value": plain["failed"] / plain["attempted"], "unit": "ratio"}))
        rows += list(traced["metrics"].items())
        for name, m in rows:
            print(f"  {name:38s} {m['value']:>16.6g} {m['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
