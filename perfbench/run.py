#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One process, one thread, a closed loop with one client: the next job
starts when the previous one has ended.

``--trace 0`` sets up (imports, seeded inputs written to JSON files,
warm-up), then runs whole passes over the job list until ``--seconds``
seconds and at least ``MIN_JOBS`` jobs are done, and reports the
end-to-end metrics.  Whole passes make every run time the same multiset
of jobs.  Every end-to-end time is scaled to a reference machine speed
(see ``reference_seconds``); the wall-clock figures are on the
environment line.  ``--trace 1`` sets up the same way, runs a fixed
prefix of the job list once untraced and once traced, and reports the
per-layer metrics.  Every job's output is checked against the frozen expectation
in ``expected/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it records the environment.  Spans and the run record are written under
``.perfbench_out/`` in the checkout.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("search", "codes")
MIN_JOBS = 100  # so that at least ten jobs lie beyond the 90th percentile
SETUP_CHILDREN = 3  # extra cold set-ups per run; setup_s is the median of these and the run's own
# Every end-to-end time is reported as it would read on a machine on which
# `reference_seconds` takes REF_NOMINAL_S.  A reference sample is taken
# after every job, and a job's time is scaled by the median of the
# REF_WINDOW samples before it and the REF_WINDOW samples after it; set-up
# is cut into segments that are scaled the same way (see SetupClock).
REF_NOMINAL_S = 0.002
REF_WINDOW = 2
# Jobs at the head of the job list that the traced run replays (of 90 and
# 290 per pass).
TRACE_JOBS = {"search": 36, "codes": 145}


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import ssecalc from this checkout's src/, never from elsewhere."""
    if not (SRC / "ssecalc" / "__init__.py").is_file():
        die(f"no package source at {SRC / 'ssecalc'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import ssecalc

    if Path(ssecalc.__file__).resolve().parent != SRC / "ssecalc":
        die(f"imported ssecalc from {ssecalc.__file__}, not from {SRC}")
    import workloads

    return workloads


def load_expected(family: str) -> dict:
    return json.loads((HERE / "expected" / f"{family}.json").read_text())["jobs"]


class Runner:
    """Runs jobs one at a time and checks each output."""

    def __init__(self, wl, expected: dict):
        self.wl = wl
        self.expected = expected
        self.failures: list[str] = []

    def run(self, job) -> tuple[float, bool]:
        # Each job starts from the state a fresh CLI process sees.
        self.wl.sp._FACTOR_CACHE.clear()
        start = time.perf_counter()
        try:
            status, out = job.call()
        except (Exception, SystemExit) as exc:
            dt = time.perf_counter() - start
            self.failures.append(f"{job.key}: raised {type(exc).__name__}: {exc}")
            return dt, False
        dt = time.perf_counter() - start
        want = self.expected.get(job.key)
        got = self.wl.digest(self.wl.canonical_cli_output(out))
        if status != 0:
            self.failures.append(f"{job.key}: exit status {status}")
        elif want is None:
            self.failures.append(f"{job.key}: no frozen expectation")
        elif got != want["digest"]:
            self.failures.append(f"{job.key}: output differs from the frozen expectation {want['summary']}")
        else:
            return dt, True
        return dt, False


_REF_A = tuple(tuple((3 * i + 5 * j) % 4 for j in range(6)) for i in range(6))
_REF_COLS = tuple(zip(*_REF_A))


def reference_seconds() -> float:
    """Time of a fixed pure-Python kernel that shares no code with the
    package: small integer matrix products on tuples, hashing, sorting,
    the kind of work the package does.

    The host's speed drifts: a co-tenant slows every job by up to 1.7x for
    seconds to minutes.  The kernel slows with it, and no change to the
    package can move it, so dividing job times by it measures the package
    rather than the host."""
    start = time.perf_counter()
    acc, seen = _REF_A, {}
    for _ in range(60):
        acc = tuple(tuple(sum(x * y for x, y in zip(row, col)) % 5 for col in _REF_COLS) for row in acc)
        seen[acc] = seen.get(acc, 0) + 1
        sorted({v for row in acc for v in row})
    return time.perf_counter() - start


def scaled_durations(samples: list) -> list[float]:
    """The time of each (label, seconds, reference seconds taken right
    after) sample at the reference speed."""
    refs = [ref for _label, _dt, ref in samples]
    return [
        dt * REF_NOMINAL_S / statistics.median(refs[max(0, i - REF_WINDOW) : i + REF_WINDOW])
        for i, (_label, dt, _ref) in enumerate(samples)
    ]


class SetupClock:
    """Times the set-up as segments (imports, the input of each job, each
    warm-up job) with a reference sample after each; the samples are not
    part of any segment."""

    def __init__(self, start: float):
        self.samples: list[tuple[str, float, float]] = []
        self._start = start

    def cut(self) -> None:
        dt = time.perf_counter() - self._start
        self.samples.append(("setup", dt, reference_seconds()))
        self._start = time.perf_counter()

    def seconds(self) -> tuple[float, float]:
        """Set-up time at the reference speed, and by the wall clock."""
        return sum(scaled_durations(self.samples)), sum(dt for _label, dt, _ref in self.samples)

    def reference_median(self) -> float:
        return statistics.median(ref for _label, _dt, ref in self.samples)


def setup(workload: str, seed: int, workdir: Path, smoke: bool, clock: SetupClock):
    """Imports, seeded inputs, input files, warm-up, timed by `clock`.

    Returns the workloads module, the job list, the expectations, the
    edges the sampling cache held after input generation, and the
    failures of the warm-up jobs."""
    wl = import_package()
    expected = {}
    for family in wl.WORKLOADS[workload]:
        expected.update(load_expected(family))
    workdir.mkdir(parents=True, exist_ok=True)
    clock.cut()
    jobs = wl.build_jobs(workload, seed, workdir, clock.cut)
    if smoke:
        first = {}
        for job in jobs:
            first.setdefault(job.kind, job)
        jobs = list(first.values())
    # input generation fills the sampling cache; a fresh CLI process starts empty
    cache_edges = sum(len(pool) for pool in wl.sp._FACTOR_CACHE.values())
    wl.sp._FACTOR_CACHE.clear()
    runner = Runner(wl, expected)
    # warm-up: pool input 0 of every kind, the same for every seed
    for job in jobs:
        if job.key.endswith("/0"):
            runner.run(job)
            clock.cut()
    warm_failures = list(runner.failures)
    gc.collect()
    clock.cut()
    return wl, jobs, expected, cache_edges, warm_failures


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def cold_setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time, at the reference speed and by the wall clock, of a
    fresh process running this workload's set-up only."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["wall_clock_setup_s"]


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_phase(runner: Runner, jobs: list, seconds: float, min_jobs: int):
    """Whole passes over the job list until `seconds` and `min_jobs` are
    reached, one reference sample after each job.  Returns (kind, job
    seconds, reference seconds) per job, the failures and the wall time."""
    samples = []
    failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(samples) < min_jobs:
        for job in jobs:
            dt, ok = runner.run(job)
            samples.append((job.kind, dt, reference_seconds()))
            failed += not ok
    return samples, failed, time.perf_counter() - start


def traced_phase(runner: Runner, jobs: list):
    """The jobs once untraced, then once traced; returns the tracer, the
    failures of both passes and the traced / untraced wall-time ratio."""
    start = time.perf_counter()
    failed = sum(not runner.run(job)[1] for job in jobs)
    untraced = time.perf_counter() - start
    tr = tracer.Tracer()
    tr.install()
    try:
        start = time.perf_counter()
        for job in jobs:
            tr.job = job.key
            failed += not runner.run(job)[1]
        traced = time.perf_counter() - start
    finally:
        tr.uninstall()
    return tr, failed, traced / untraced


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, runner: Runner, jobs: list, setup: tuple[float, float]):
    setups = [setup]
    if not args.smoke:
        setups += [cold_setup_seconds(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
    samples, failed, wall = timed_phase(runner, jobs, args.seconds, 1 if args.smoke else MIN_JOBS)
    scaled = scaled_durations(samples)
    raw = [dt for _kind, dt, _ref in samples]
    attempted = len(samples)
    by_kind: dict[str, list[float]] = {}
    for (kind, _dt, _ref), dt in zip(samples, scaled):
        by_kind.setdefault(kind, []).append(dt)
    metrics = {
        "jobs_per_s": metric(attempted / sum(scaled), "jobs/s"),
        "job_p50_ms": metric(statistics.median(scaled) * 1e3, "ms"),
        "job_p90_ms": metric(quantile(scaled, 90) * 1e3, "ms"),
        "setup_s": metric(statistics.median(scaled for scaled, _wall in setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    extra = {
        "failed_frac": failed / attempted,
        "jobs": attempted,
        "wall_s": wall,
        "reference_ms_median": statistics.median(ref for _kind, _dt, ref in samples) * 1e3,
        "wall_clock": {
            "jobs_per_s": attempted / wall,
            "job_p50_ms": statistics.median(raw) * 1e3,
            "job_p90_ms": quantile(raw, 90) * 1e3,
            "setup_s": statistics.median(wall for _scaled, wall in setups),
        },
        "job_p50_ms_by_kind": {k: statistics.median(v) * 1e3 for k, v in by_kind.items()},
    }
    return metrics, attempted, failed, extra


def per_layer(args, runner: Runner, jobs: list, cache_edges: int):
    prefix = jobs[: TRACE_JOBS[args.workload]]
    tr, failed, overhead = traced_phase(runner, prefix)
    layers = tracer.per_layer(tr, cache_edges, overhead)
    metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", {"workload": args.workload, "seed": args.seed})
    attempted = 2 * len(prefix)  # the untraced and the traced pass
    return metrics, attempted, failed, {"jobs": attempted, "spans": len(tr.spans)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="time one cold set-up and exit")
    ap.add_argument("--smoke", action="store_true", help="one job per kind, for the self-test")
    args = ap.parse_args(argv)

    workdir = WORK / str(os.getpid())
    try:
        clock = SetupClock(_T0)
        wl, jobs, expected, cache_edges, warm_failures = setup(args.workload, args.seed, workdir, args.smoke, clock)
        setup_s, wall_setup_s = clock.seconds()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "wall_clock_setup_s": wall_setup_s}))
            return 0
        runner = Runner(wl, expected)
        runner.failures.extend(warm_failures)
        env = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "reference_ms_setup": clock.reference_median() * 1e3,
        }
        if args.trace == 0:
            metrics, attempted, failed, extra = end_to_end(args, runner, jobs, (setup_s, wall_setup_s))
        else:
            metrics, attempted, failed, extra = per_layer(args, runner, jobs, cache_edges)
        result = {
            "correct": failed == 0 and not warm_failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
                  "extra": extra, "failures": runner.failures[:50], **result}
        OUT.mkdir(exist_ok=True)
        (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        for line in runner.failures[:20]:
            print(f"perfbench: FAILED {line}", file=sys.stderr)
        print(json.dumps({"env": env, **extra}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
