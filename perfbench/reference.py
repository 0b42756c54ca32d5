"""Reference figures for README.md, measured with the benchmark's own code.

    python3 perfbench/reference.py [--seconds 25]

Prints two markdown tables. The first gives every workload's median
operation wall time with one BLAS thread and with the library's default
thread count, from a traced run through run.py; these times are not
scaled, because the calibration kernel's own BLAS calls use the extra
threads too. The second gives `generate` ms per coordinate for each context
operator at n = 16, 32, 64 and 128 (criterion 5's network, one BLAS thread),
scaled to the calibration kernel's reference speed as the benchmark's
times are.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONTEXTS = ("ca-mean", "ca-max", "saca-a", "saca-b")
SIZES = (16, 32, 64, 128)
METRICS = ("machine.op_wall_ms", "machine.calibration_ms")


def workload_table(seconds: float) -> None:
    from run import WORKLOADS

    print("| workload | BLAS threads | " + " | ".join(METRICS) + " |")
    print("|---|---|" + "---|" * len(METRICS))
    for name in WORKLOADS:
        for threads in ("1", "default"):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", "1", "--seconds", str(seconds), "--trace", "1",
                 "--blas-threads", threads],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            m = json.loads(done.stdout.splitlines()[-1])["metrics"]
            cells = " | ".join(f"{m[k]['value']:.4g}" for k in METRICS)
            print(f"| {name} | {threads} | {cells} |")


def generate_table() -> None:
    os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.calibration import Calibration
    from perfbench.workloads import CRITERION_5, call, write_model

    print("| context | " + " | ".join(f"n = {n}" for n in SIZES) + " |")
    print("|---|" + "---|" * len(SIZES))
    calibration = Calibration()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for context in CONTEXTS:
            ckpt = Path(tmp) / f"{context}.pgrw"
            write_model(replace(CRITERION_5, context=context), 1, ckpt)
            cells = []
            for n in SIZES:
                reps = 3 if n < 128 else 1
                before = calibration.measure()
                walls = [call(["generate", "--checkpoint", ckpt, "--points", n, "--seed", r,
                               "--out", Path(tmp) / "sample"])[1] for r in range(reps)]
                scale = Calibration.scale(before, calibration.measure())
                cells.append(f"{1e3 * scale * statistics.median(walls) / (3 * n):.2f}")
            print(f"| {context} | " + " | ".join(cells) + " |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args()
    workload_table(args.seconds)
    print()
    generate_table()
    return 0


if __name__ == "__main__":
    sys.exit(main())
