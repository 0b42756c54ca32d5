"""Quick tests of the benchmark: its oracle, its checks and its workloads.

Each check is shown to catch a corrupted output; each workload runs a few
operations end to end on a tiny model.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, oracle, run, workloads
from perfbench.calibration import REFERENCE_MS
from perfbench.workloads import Net, run_workload
from pointgen import checkpoint
from pointgen.autodiff import AdamState
from pointgen.context import ContextOpKind
from pointgen.data import quantize
from pointgen.model import Model, ModelConfig

ROOT = Path(__file__).resolve().parent.parent
TINY_B = Net(bins=8, features=8, encoder=(8,), head=(8,), context="saca-b", classes=0)
TINY_A = Net(bins=8, features=8, encoder=(8,), head=(8,), context="saca-a", classes=2)
TINY = {
    "train-sacab-toy": dict(net=TINY_B, points=8, raw_points=32, steps=4, checkpoint_interval=2,
                            setup_reps=2),
    "train-sacaa-cond": dict(net=TINY_A, points=8, raw_points=32, steps=4, checkpoint_interval=2,
                             setup_reps=2),
    "generate-sacaa-cond": dict(net=TINY_A, points=6, setup_reps=2, eval_clouds=2),
}


@pytest.mark.parametrize("kind", ["saca-a", "saca-b"])
@pytest.mark.parametrize("classes", [0, 3])
def test_oracle_matches_model(tmp_path, kind, classes):
    model = Model(ModelConfig(bins=16, feature_width=8, encoder_widths=(4, 8), head_widths=(8,),
                              context=ContextOpKind(kind), condition_dim=classes, seed=2))
    rng = np.random.default_rng(7)
    for p in model.params.values():
        p.data = rng.normal(0.0, 0.5, p.data.shape)
    path = tmp_path / "m.pgrw"
    checkpoint.save_checkpoint(path, model, AdamState.for_params(model.params), 0)
    header, params = oracle.read_checkpoint(path)
    q = quantize(rng.random((12, 3)), 16)
    cond = rng.random(classes) if classes else None
    expected = model.cloud_nll(q, cond).bits_per_coordinate
    assert abs(oracle.cloud_bits(header, params, q.bins, cond) - expected) < 1e-12


def _log(bits):
    rows = [f"{s},{b * math.log(2):.9f},{b:.9f}" for s, b in enumerate(bits, start=1)]
    return "\n".join(["step,nats,bits_per_coord"] + rows) + "\n"


def test_loss_log_check_catches_a_truncated_log():
    good = _log([3.0, 2.9, 2.8, 2.5, 2.4, 2.3, 2.2, 2.1, 2.0, 1.9])
    assert checks.check_loss_log(good, 10, 8) == []
    assert checks.check_loss_log(good[: good.rindex("\n", 0, -1) + 1], 10, 8)
    assert checks.check_loss_log(good[:-8], 10, 8)
    assert checks.check_loss_log(_log([3.0, 3.1]), 2, 8)  # not falling
    assert checks.check_loss_log(_log([2.9, 2.0]), 2, 8)  # not uniform at step 1


def _generate(tmp_path, seed):
    ckpt = tmp_path / "m.pgrw"
    workloads.write_model(TINY_A, 5, ckpt)
    prefix = tmp_path / f"s{seed}"
    ok, _, _ = workloads.call(["generate", "--checkpoint", ckpt, "--points", 9, "--seed", seed,
                               "--class", 1, "--classes", 2, "--out", prefix])
    assert ok
    return ckpt, prefix


def test_replay_catches_a_flipped_bin(tmp_path):
    ckpt, prefix = _generate(tmp_path, 3)
    header, params = oracle.read_checkpoint(ckpt)
    cloud, problems = checks.check_generated(prefix, 9, 8)
    assert problems == []
    cond = np.array([0.0, 1.0])
    assert checks.replay(header, params, cloud, 3, cond) == []
    assert checks.replay(header, params, cloud, 4, cond)  # another seed's variates
    flipped = cloud.copy()
    flipped[4, 1] = (flipped[4, 1] + 1) % 8
    assert checks.replay(header, params, flipped, 3, cond)
    np.savetxt(f"{prefix}.xyz", (flipped + 0.5) / 8, fmt="%.10f")
    assert checks.check_generated(prefix, 9, 8)[1]  # .xyz no longer matches .ply


def test_eval_check_catches_a_perturbed_parameter(tmp_path, monkeypatch):
    ckpt, prefix = _generate(tmp_path, 3)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"bins": 8, "files": [prefix.name + ".xyz"]}))
    (tmp_path / "c.csv").write_text("0.0,1.0\n")
    args = (ckpt, manifest, tmp_path / "c.csv", [f"{prefix}.xyz"], TINY_A, np.array([[0.0, 1.0]]))
    bench = workloads.Run(trace=False)
    workloads.evaluate_checkpoint(bench, *args)
    assert bench.problems == []

    load = checkpoint.load_checkpoint

    def perturbed(path):
        model, state, step = load(path)
        model.params["z.head1.b"].data[0, 0] += 3.0
        return model, state, step

    monkeypatch.setattr(checkpoint, "load_checkpoint", perturbed)
    workloads.evaluate_checkpoint(bench, *args)
    assert bench.problems


def test_a_phase_is_scaled_by_the_calibrations_around_it():
    bench = workloads.Run(trace=False)
    result, scale = bench.phase(lambda: 7)
    before, after = bench.calibration.samples_ms
    assert result == 7 and scale == pytest.approx(REFERENCE_MS / ((before + after) / 2))
    _, scale = bench.phase(lambda: 8)  # opens with the previous phase's closing calibration
    assert len(bench.calibration.samples_ms) == 3
    closing = bench.calibration.samples_ms[2]
    assert scale == pytest.approx(REFERENCE_MS / ((after + closing) / 2))


def _metric_names(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_workload_names_agree():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS) == _metric_names("workloads")


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_end_to_end(tmp_path, name, trace):
    result = run_workload(name, 4, 0.0, trace, tmp_path, min_rounds=2, **TINY[name])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert set(result["metrics"]) == _metric_names("per_layer" if trace else "end_to_end")
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-sacab-toy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
