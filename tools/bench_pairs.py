"""Alternating parent/change benchmark pairs, written to one BENCH_<n>.json.

    python3 tools/bench_pairs.py --base REV --out BENCH_8.json [--pairs 10] [--seed 1]

Run from the repository root.  ``--base`` is exported with ``git archive``
into a temporary directory, so the parent runs on its committed files and the
repository's own state is left alone; the change side is the working tree.
The command, the workloads, the run length and the end-to-end metrics come
from the working tree's ``BENCHMARK.json``.  Each pair runs every workload
once on each side with ``--trace 0``, the side that goes first alternating
from pair to pair, and after the pairs each side runs each workload once
traced.  Standard library only.

The output records the machine (nproc, CPU, Python, numpy and scipy), per
workload and side the runs, medians and quartiles of each end-to-end metric,
the pairs in which the change had the lower ``wall_s``, and the traced
per-layer ``calls``/``self_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

def _git(*args, cwd) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(repo: Path, rev: str, dest: Path) -> str:
    """Committed files of ``rev`` under ``dest``; returns the commit id."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo)
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", sha], cwd=repo, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return sha


def _bench(tree: Path, bench: dict, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([*bench["command"], "--workload", workload, "--seed", str(seed),
                           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"runs": values, "median": med, "q1": q1, "q3": q3}


def _machine(tree: Path, python: str) -> dict:
    versions = subprocess.run(
        [python, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        cwd=tree, check=True, capture_output=True, text=True).stdout.split()
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": versions[0], "scipy": versions[1]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="parent revision")
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    repo = Path(_git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    bench = json.loads((repo / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {"base": tmp / "base", "head": repo}
        revs = {"base": _export(repo, args.base, trees["base"]),
                "head": _git("rev-parse", "HEAD", cwd=repo) + " + working tree"}
        runs = {w: {s: [] for s in trees} for w in workloads}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for w in workloads:
                for side in order:
                    res = _bench(trees[side], bench, w, args.seed, 0)
                    runs[w][side].append(res)
                    print(f"pair {i + 1}/{args.pairs} {w} {side}: "
                          f"wall_s {res['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
        report = {"machine": _machine(repo, bench["command"][0]), "revisions": revs,
                  "settings": {"pairs": args.pairs, "seconds": bench["run_seconds"],
                               "seed": args.seed},
                  "workloads": {}}
        for w in workloads:
            entry = {}
            for side in trees:
                rs = runs[w][side]
                entry[side] = {m: _summary([r["metrics"][m]["value"] for r in rs]) for m in metrics}
                entry[side]["correct"] = all(r["correct"] for r in rs)
                entry[side]["failed"] = sum(r["failed"] for r in rs)
                traced = _bench(trees[side], bench, w, args.seed, 1)["metrics"]
                entry[side]["traced"] = {k: v["value"] for k, v in sorted(traced.items())
                                         if k.endswith((".calls", ".self_s", ".rows", "repeat_calls"))
                                         or k == "trace.wall_s"}
            entry["head_faster_pairs"] = sum(
                h["metrics"]["wall_s"]["value"] < b["metrics"]["wall_s"]["value"]
                for b, h in zip(runs[w]["base"], runs[w]["head"]))
            report["workloads"][w] = entry
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
