"""latticelab benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in a fresh worker process
(worker.py), so its peak resident memory is its own, with the BLAS and
OpenMP thread pools pinned to one thread before numpy is imported.  The
worker prints READY once its inputs exist and its warm-up case has run; the
time from starting the process to that line is one set-up sample.  Untraced
runs take ``SETUP_SAMPLES`` such samples (the extra workers stop after
set-up) and report their median as ``setup_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; it is also written to
``perfbench/out/``.  Any worker failure exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("minfactor", "polarity", "lorentz", "estimates")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
# one BLAS/OpenMP thread: a threaded pool on a shared 2-core machine makes
# wall time swing by tens of percent between otherwise identical runs
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONDONTWRITEBYTECODE": "1"}


class WorkerError(RuntimeError):
    pass


def _spawn(argv, deadline) -> tuple:
    """Run one worker; (seconds until READY, its remaining stdout lines)."""
    env = dict(os.environ, **PINNED)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + argv, cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise WorkerError(f"worker {' '.join(argv)} exited with code {code}")
    return ready, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    deadline = time.monotonic() + DEADLINE_S
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_spawn(worker_argv + ["--setup-only"], deadline)[0])
        ready, lines = _spawn(worker_argv, deadline)
        result = json.loads(lines[-1])
    except (WorkerError, IndexError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(ready)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    text = json.dumps(result)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
