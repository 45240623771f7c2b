"""Run one benchmark workload in a process of its own and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in ``measure.py`` with BLAS and OpenMP thread caps of 1
and the program imported from ``src``. Its standard output is passed on
unchanged; the last line is the JSON result. Exits non-zero, printing no
result, when the program's sources are absent or the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SOURCES / "epictrl" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SOURCES / 'epictrl'}", file=sys.stderr)
        return 2

    env = dict(os.environ, **{cap: "1" for cap in THREAD_CAPS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCES), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: run exceeded {TIMEOUT_S} s and was stopped", file=sys.stderr)
        sys.stderr.write(exc.stdout or "")
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: run failed (exit code {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
