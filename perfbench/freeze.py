#!/usr/bin/env python3
"""Freeze the expected output of every pool input of a job family.

    python3 perfbench/freeze.py explore edges conjugacy freudenthal

Runs each pool job once on the package in ``src/`` and writes
``perfbench/expected/<family>.json``: the exit status, a SHA-256 digest
of the output (CLI reports without ``elapsed_seconds``) and a short
summary of counts and verdicts.  Run it only on code whose outputs are
known to be right; the benchmark compares every later run against it.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def summarize(text: str) -> dict:
    """The counts a reader checks first, kept next to each frozen digest."""
    rep = json.loads(text)
    cmd = rep.get("command")
    if "error" in rep:
        return {"error": rep["error"]}
    if cmd == "explore":
        frag = rep["fragment"]
        return {
            "vertices": len(frag["vertices"]),
            "edges": len(frag["edges"]),
            "triangles": len(frag["triangles"]),
        }
    if cmd == "decompose":
        return {"steps": len(rep["path"]["steps"]), "recomposes": rep["recomposes"]}
    if cmd == "homotopic":
        return {"homotopic": rep["homotopic"]}
    if cmd == "refine-axioms":
        return {"all_passed": rep["all_passed"]}
    if cmd == "freudenthal-check":
        keys = ("cells", "vertices", "counts_ok", "chain_map_identity", "chain_homotopy")
        return {k: rep[k] for k in keys}
    return {}


def freeze(family: str) -> dict:
    wl = run.import_package()
    _make, kinds, pool = wl.FAMILIES[family]
    out = {}
    workdir = Path(tempfile.mkdtemp(dir=run.ROOT, prefix=".perfbench_freeze_"))
    try:
        for kind in kinds:
            for i in range(pool):
                job = wl.pool_job(family, kind, i, workdir)
                wl.sp._FACTOR_CACHE.clear()
                status, text = job.call()
                if status != 0:
                    raise SystemExit(f"{job.key}: exit status {status}; pool inputs must succeed")
                canonical = wl.canonical_cli_output(text)
                parsed = json.loads(canonical)
                summary = summarize(canonical) if "command" in parsed else parsed
                out[job.key] = {"digest": wl.digest(canonical), "summary": summary}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def main(names: list[str]) -> None:
    families = names or ("explore", "edges", "conjugacy", "freudenthal")
    for family in families:
        jobs = freeze(family)
        path = run.HERE / "expected" / f"{family}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"family": family, "jobs": jobs}, indent=1, sort_keys=True) + "\n")
        print(f"{family}: {len(jobs)} jobs frozen to {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
