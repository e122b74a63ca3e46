"""Compare the CLI reports of a base revision with those of the working tree.

    python3 tools/report_diff.py --base REV

Run from anywhere inside the repository.  ``REV`` is exported with
``git archive`` into a temporary directory (``bench_pairs._export``), so the
repository's own state is left alone.  Each line of
``tools/report_commands.txt`` is run as ``python -m latticelab.cli ARGS`` from
the repository root, once with ``PYTHONPATH=<export>/src`` and once with
``PYTHONPATH=<repository>/src``; both sides read the same input documents, from
``tools/report_inputs/``.  The ``wall_time_ms`` field is set to 0 and the two
reports (standard output) are compared byte for byte; standard error is not
compared, so error messages may change.  For each command the script prints
``same`` or ``differs`` and both exit codes, and after a differing report the
lines that differ.  It exits 1 if any report or exit code differs.  Standard
library only.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import _export, _git

COMMANDS = Path(__file__).resolve().with_name("report_commands.txt")
_WALL = re.compile(r'"wall_time_ms": \d+')


def _commands() -> list:
    lines = COMMANDS.read_text().splitlines()
    return [shlex.split(ln) for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]


def _report(tree: Path, repo: Path, args: list) -> tuple:
    """(exit code, report with wall_time_ms 0) of one CLI run on ``tree``'s sources."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-m", "latticelab.cli", *args], cwd=repo, env=env,
                          capture_output=True, text=True)
    return proc.returncode, _WALL.sub('"wall_time_ms": 0', proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="base revision")
    args = ap.parse_args(argv)

    repo = Path(_git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    commands = _commands()
    tmp = Path(tempfile.mkdtemp(prefix="report-diff-"))
    differ = 0
    try:
        base = tmp / "base"
        _export(repo, args.base, base)
        for cmd in commands:
            (code_b, out_b), (code_h, out_h) = (_report(tree, repo, cmd) for tree in (base, repo))
            same = code_b == code_h and out_b == out_h
            differ += not same
            print(f"{'same' if same else 'differs'}  base {code_b}  head {code_h}  "
                  f"{shlex.join(cmd)}", flush=True)
            if out_b != out_h:
                diff = difflib.unified_diff(out_b.splitlines(), out_h.splitlines(), "base", "head",
                                            n=0, lineterm="")
                print("\n".join("    " + ln for ln in diff), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{differ} of {len(commands)} reports differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
