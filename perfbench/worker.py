"""One workload in one process: set up, time whole passes, then check.

Started by run.py, which pins the BLAS thread pools before this interpreter
imports numpy.  Protocol on standard output: the line ``READY`` once the
inputs exist and the warm-up case has run, then (unless ``--setup-only``)
one JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Untraced, the worker repeats whole passes over every case until
``--seconds`` have gone by and reports the median pass time.  Traced, it
runs one pass under the layer tracer.  Outputs are checked after the timing
ends: the first pass in full, and every later pass by comparing its pickled
outputs with the first pass's, checking in full any output that differs.
A case whose output fails its check counts as failed; ``correct`` is false
when some later pass gave an output that differs from the first pass's,
since the same inputs must give the same outputs.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def _run_pass(cases) -> list:
    outs = []
    for case in cases:
        try:
            outs.append((True, case.run()))
        except Exception as exc:  # a raising case is a failed case, not a crash
            outs.append((False, exc))
    return outs


def _problems(case, outcome) -> list:
    ok, value = outcome
    if not ok:
        return [f"raised {type(value).__name__}: {value}"]
    try:
        return case.check(value)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def _fingerprint(outcome):
    try:
        return pickle.dumps(outcome, protocol=4)
    except Exception:
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import latticelab

    if not Path(latticelab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"latticelab imported from {latticelab.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    cases = workloads.WORKLOADS[args.workload](args.seed)
    _run_pass(cases[:1])
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
        try:
            first = _run_pass(cases)
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        later = []
    else:
        start = time.perf_counter()
        walls, first, later = [], None, []
        while not walls or time.perf_counter() - start < args.seconds:
            t0 = time.perf_counter()
            outs = _run_pass(cases)
            walls.append(time.perf_counter() - t0)
            if first is None:
                first, first_fps = outs, [_fingerprint(o) for o in outs]
            else:
                # keep only what differs from the first pass; it gets checked in full
                later.append([None if fp is not None and _fingerprint(o) == fp else o
                              for o, fp in zip(outs, first_fps)])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = [_problems(case, out) for case, out in zip(cases, first)]
    failed = sum(1 for v in verdicts if v)
    differing = 0
    for outs in later:
        for case, verdict, out in zip(cases, verdicts, outs):
            if out is not None:
                differing += 1
                print(f"NONDETERMINISTIC {case.label}", file=sys.stderr)
            failed += bool(_problems(case, out) if out is not None else verdict)
    for case, verdict in zip(cases, verdicts):
        for problem in verdict[:3]:
            print(f"FAILED {case.label}: {problem}", file=sys.stderr)

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.metrics().items()}
        metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    else:
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        print(f"{args.workload}: {len(walls)} passes, pass seconds "
              + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    attempted = len(cases) * (1 + len(later))
    print(json.dumps({"correct": differing == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
