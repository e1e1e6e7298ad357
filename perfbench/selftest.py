#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size (one job per kind), untraced and
traced, and checks the result line against BENCHMARK.json: its keys, the
metric names and units, and that every output matched its frozen
expectation.  Also checks that the frozen expectations cover every pool
input, and that run.py fails without printing a result when the package
source is missing.  Exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys

import run


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"selftest: FAIL {what}")
        sys.exit(1)


def result_line(cwd, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wl = run.import_package()
    names = {w["name"] for w in spec["workloads"]}
    check(names == set(run.WORKLOADS) == set(wl.WORKLOADS), "workload names agree")
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for workload in run.WORKLOADS:
            status, out, err = result_line(run.ROOT, workload, trace)
            check(status == 0, f"{workload} trace {trace} exits 0: {err[-1000:]}")
            res = json.loads(out.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
            check(res["correct"] is True and res["failed"] == 0, f"{workload} trace {trace}: outputs match ({err[-1000:]})")
            check(isinstance(res["attempted"], int) and res["attempted"] >= 1, f"{workload}: attempted")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{workload} trace {trace}: metric names and units match {group}")
            check(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()), "numeric values")
            print(f"selftest: ok {workload} trace {trace} ({res['attempted']} jobs)")
    for family, (_make, kinds, pool) in wl.FAMILIES.items():
        frozen = run.load_expected(family)
        keys = {f"{family}/{k}/{i}" for k in kinds for i in range(pool)}
        check(keys == set(frozen), f"{family}: frozen expectations cover the pool exactly")
    print("selftest: ok frozen expectations cover every pool input")
    job = wl.pool_job("freudenthal", "dim2", 0, run.WORK)
    runner = run.Runner(wl, {job.key: {"digest": "0" * 64, "summary": {}}})
    check(not runner.run(job)[1] and runner.failures, "a changed output counts as a failed job")
    print("selftest: ok a changed output counts as a failed job")
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        status, out, _err = result_line(bare, "codes", 0)
        check(status != 0 and not out.strip(), "run.py fails without a result when src/ is missing")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: ok run.py refuses a directory without the package source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
