"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload train-sacab-toy --seed 1 --seconds 30 --trace 0

Run from the root of a pointgen checkout; the package is imported from its
`src/`. With --trace 0 the last line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run. See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# names only: importing workloads.py loads numpy, which must wait for the BLAS pinning
WORKLOADS = ("train-sacab-toy", "train-sacaa-cond", "generate-sacaa-cond")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", default="1",
                        help="BLAS threads, or 'default' to leave the environment alone")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pointgen" / "__init__.py").is_file():
        print(f"perfbench: no pointgen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.blas_threads != "default":
        for var in BLAS_THREAD_VARS:  # read by the BLAS library when numpy loads it
            os.environ[var] = args.blas_threads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import run_workload

    work = ROOT / ".perfbench-runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
