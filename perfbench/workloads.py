"""The benchmark's workloads: seeded inputs, set-up, timed operations, checks.

Every operation goes through `pointgen.cli.main`, as a user's would. The
timed phase runs whole rounds of the same operations until the run length
has passed; in a traced run every second round is traced, so the tracing
overhead is measured against untraced rounds of the same process. Each
phase is bracketed by timings of the calibration kernel, and every time
reported is scaled to the kernel's reference speed (calibration.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from pointgen import checkpoint, cli, evaluate
from pointgen.autodiff import AdamState
from pointgen.context import ContextOpKind
from pointgen.model import Model, ModelConfig

from . import checks, oracle
from .calibration import Calibration
from .tracing import Probe, Tracer

AUTODIFF_OPS = (
    "matmul", "add", "add_bias", "scale", "relu", "elementwise_mul", "concat_cols",
    "mean_pool_prefix", "cumsum_rows", "shift_down", "gather_rows", "segment_sum_rows",
    "cross_entropy_from_logits",
)


@dataclass(frozen=True)
class Net:
    bins: int
    features: int
    encoder: tuple[int, ...]
    head: tuple[int, ...]
    context: str
    classes: int  # one-hot condition length; 0 for an unconditional model


@dataclass(frozen=True)
class TrainSpec:
    net: Net
    points: int  # points per cloud after prepare
    raw_points: int  # points per raw toy shape handed to prepare
    batch: int
    steps: int  # train steps per round
    checkpoint_interval: int
    setup_reps: int


@dataclass(frozen=True)
class GenerateSpec:
    net: Net
    points: int
    setup_reps: int
    eval_clouds: int  # first clouds scored by eval for bits_per_coord


CRITERION_5 = Net(bins=32, features=64, encoder=(64, 64), head=(64,), context="saca-b",
                  classes=0)
README = Net(bins=200, features=128, encoder=(64, 128, 128), head=(128,), context="saca-a",
             classes=2)

WORKLOADS = {
    "train-sacab-toy": TrainSpec(CRITERION_5, points=64, raw_points=2048, batch=2, steps=20,
                                 checkpoint_interval=20, setup_reps=5),
    "train-sacaa-cond": TrainSpec(README, points=256, raw_points=4096, batch=4, steps=12,
                                  checkpoint_interval=4, setup_reps=3),
    "generate-sacaa-cond": GenerateSpec(README, points=64, setup_reps=9, eval_clouds=8),
}


class Run:
    """Counts, problems and metrics of one benchmark run."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.calibration = Calibration()
        self.setup = Tracer()
        self.timed = Tracer()
        self.evaluated = Tracer()
        self.op_seconds: dict[bool, list[float]] = {False: [], True: []}  # by traced, scaled
        self.op_wall_seconds: list[float] = []  # untraced, not scaled
        self.round_seconds = 0.0  # scaled time of the untraced rounds
        self.round_coords = 0  # coordinates processed in the untraced rounds
        self.peak_rss_mb = 0.0  # read when the timed phase ends

    def phase(self, body, into: Tracer | None = None):
        """Run body() between two calibrations; return its result and the scale.

        With a tracer `into`, body is traced and its spans are added to
        `into`, scaled.
        """
        before = self.calibration.latest(max_age=0.5)  # the previous phase's closing one
        spans = Tracer()
        with traced_if(spans, into is not None):
            result = body()
        scale = Calibration.scale(before, self.calibration.measure())
        if into is not None:
            into.merge(spans, scale)
        return result, scale

    def put(self, name, value, unit) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def result(self) -> dict:
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}


def call(argv) -> tuple[bool, float, str]:
    """Run one CLI command; return (exit code was 0, wall seconds, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc(file=sys.stderr)
        code = None
    wall = time.perf_counter() - start
    if code != 0:
        print(f"pointgen {argv[0]} exited with {code}", file=sys.stderr)
    return code == 0, wall, out.getvalue()


def traced_if(tracer: Tracer, on: bool):
    return tracer if on else contextlib.nullcontext()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_rounds(run: Run, seconds: float, min_rounds: int, one_round) -> None:
    """Call one_round(index) until `seconds` of rounds have passed.

    one_round returns (wall seconds, operations attempted, wall seconds of
    each operation that ran, coordinates).
    """
    spent = 0.0
    index = 0
    while index < max(min_rounds, 2 if run.trace else 1) or spent < seconds:
        traced = run.trace and index % 2 == 1
        (wall, ops, op_walls, coords), scale = run.phase(
            lambda: one_round(index), run.timed if traced else None)
        spent += wall
        run.attempted += ops
        run.op_seconds[traced].extend(scale * w for w in op_walls)
        if not traced:
            run.op_wall_seconds.extend(op_walls)
            run.round_seconds += scale * wall
            run.round_coords += coords
        index += 1


def end_to_end(run: Run, setup_seconds: list[float], bits: float) -> None:
    run.put("setup_s", statistics.median(setup_seconds), "s")
    run.put("op_ms", 1e3 * statistics.median(run.op_seconds[False]), "ms")
    run.put("coords_per_s", run.round_coords / run.round_seconds, "1/s")
    run.put("peak_rss_mb", run.peak_rss_mb, "MB")
    run.put("bits_per_coord", bits, "bits")


def per_layer(run: Run, setup_reps: int, eval_clouds: int) -> None:
    t = run.timed
    ops = len(run.op_seconds[True])
    per_op = lambda v: v / ops
    run.put("cli.self_ms", per_op(t.self_ms("cli.main")), "ms")
    for fn in ("farthest_point_sampling", "quantize", "load_xyz"):
        run.put(f"data.{fn}.ms", run.setup.ms(f"data.{fn}") / setup_reps, "ms")
    for fn in ("save_xyz", "save_ply"):
        run.put(f"data.{fn}.ms", per_op(t.ms(f"data.{fn}")), "ms")
    for fn in ("train_step", "nll_loss", "forward"):
        run.put(f"model.{fn}.ms", per_op(t.ms(f"model.{fn}")), "ms")
    run.put("model.forward.self_ms", per_op(t.self_ms("model.forward")), "ms")
    run.put("model.forward.calls", per_op(t.calls("model.forward")), "count")
    run.put("context.apply_context.ms", per_op(t.ms("context.apply_context")), "ms")
    run.put("context.apply_context.self_ms", per_op(t.self_ms("context.apply_context")), "ms")
    run.put("context.apply_context.calls", per_op(t.calls("context.apply_context")), "count")
    for op in AUTODIFF_OPS:
        run.put(f"autodiff.{op}.ms", per_op(t.ms(f"autodiff.{op}")), "ms")
        run.put(f"autodiff.{op}.calls", per_op(t.calls(f"autodiff.{op}")), "count")
    run.put("autodiff.output_mb", per_op(t.tape_bytes / 2**20), "MB")
    for fn in ("backward", "collect_gradients", "adam_step"):
        run.put(f"autodiff.{fn}.ms", per_op(t.ms(f"autodiff.{fn}")), "ms")
    run.put("sampler.generate.ms", per_op(t.ms("sampler.generate")), "ms")
    run.put("sampler.sample_bin.ms", per_op(t.ms("sampler.sample_bin")), "ms")
    draws = t.calls("sampler.sample_bin")
    run.put("sampler.forward_rows_per_coord", 3 * t.forward_rows / draws if draws else 0.0,
            "rows/coord")
    run.put("evaluate.dataset_bits_per_coordinate.ms",
            run.evaluated.ms("evaluate.dataset_bits_per_coordinate") / eval_clouds, "ms")
    run.put("checkpoint.save_checkpoint.ms", per_op(t.ms("checkpoint.save_checkpoint")), "ms")
    run.put("checkpoint.save_checkpoint.calls", per_op(t.calls("checkpoint.save_checkpoint")),
            "count")
    run.put("checkpoint.load_checkpoint.ms", per_op(t.ms("checkpoint.load_checkpoint")), "ms")
    run.put("machine.calibration_ms", statistics.median(run.calibration.samples_ms), "ms")
    run.put("machine.op_wall_ms", 1e3 * statistics.median(run.op_wall_seconds), "ms")
    traced, untraced = (statistics.median(run.op_seconds[k]) for k in (True, False))
    run.put("trace.overhead_pct", 100.0 * (traced / untraced - 1.0), "%")


def evaluate_checkpoint(run: Run, ckpt, manifest, conditions_csv, xyz_paths, net: Net,
                        conditions) -> float:
    """Run `eval`, check it against the oracle and return its full-precision value."""
    argv = ["eval", "--checkpoint", ckpt, "--dataset", manifest]
    if conditions_csv:
        argv += ["--conditions", conditions_csv]

    def body():
        # inside the tracer: it wraps only functions defined in pointgen
        with Probe(evaluate, "dataset_bits_per_coordinate") as probe:
            return call(argv), probe.results

    ((ok, _, printed), results), _ = run.phase(body, run.evaluated if run.trace else None)
    if not ok or len(results) != 1:
        run.problems.append("eval failed")
        return math.nan
    header, params = oracle.read_checkpoint(ckpt)
    expected = checks.dataset_bits(header, params, xyz_paths, net.bins, conditions)
    if abs(float(printed) - expected) > 0.5e-4 + 1e-12:
        run.problems.append(f"eval printed {printed.strip()}, oracle gives {expected:.6f}")
    return results[0]


# ---------------------------------------------------------------------------
# inputs


def toy_shapes(rng, n_points: int, per_family: int = 10) -> list[np.ndarray]:
    """Spheres then boxes, surface points, each stretched along its axes."""
    shapes = []
    for _ in range(per_family):
        v = rng.normal(size=(n_points, 3))
        shapes.append(v / np.linalg.norm(v, axis=1, keepdims=True) * rng.uniform(0.5, 1.0, 3))
    for _ in range(per_family):
        face = rng.integers(0, 6, n_points)
        pts = rng.random((n_points, 3))
        pts[np.arange(n_points), face // 2] = face % 2
        shapes.append(pts * rng.uniform(0.5, 1.0, 3))
    return shapes


def one_hot(classes: int, k: int) -> np.ndarray:
    v = np.zeros(classes)
    v[k] = 1.0
    return v


def write_lines(path, rows, fmt) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(fmt % tuple(r) + "\n" for r in rows)


# ---------------------------------------------------------------------------
# training


def run_train(spec: TrainSpec, seed: int, seconds: float, trace: bool, work: Path,
              min_rounds: int = 1) -> dict:
    run = Run(trace)
    net = spec.net
    raw = work / "raw"
    raw.mkdir(parents=True)
    shapes = toy_shapes(np.random.default_rng(seed), spec.raw_points)
    raw_files = []
    for k, pts in enumerate(shapes):
        raw_files.append(raw / f"{'sphere' if k < len(shapes) // 2 else 'box'}{k:02d}.xyz")
        write_lines(raw_files[-1], pts, "%.10f %.10f %.10f")

    def prepare():
        calls = [call(["prepare", *raw_files, "--points", spec.points, "--bins", net.bins,
                       "--seed", seed, "--out", work / f"data{rep}"])
                 for rep in range(spec.setup_reps)]
        return all(ok for ok, _, _ in calls), [wall for _, wall, _ in calls]

    (ok, setup_seconds), scale = run.phase(prepare, run.setup if trace else None)
    setup_seconds = [scale * wall for wall in setup_seconds]
    if not ok:
        run.problems.append("prepare failed")
        return run.result()
    data = work / "data0"
    manifest = data / "manifest.json"
    with open(manifest, encoding="utf-8") as fh:
        files = json.load(fh)["files"]
    xyz_paths = [data / f for f in files]
    if len(files) != len(shapes):
        run.problems.append(f"prepare wrote {len(files)} of {len(shapes)} clouds")
    for rep in range(1, spec.setup_reps):
        if any((work / f"data{rep}" / f).read_bytes() != (data / f).read_bytes() for f in files):
            run.problems.append("prepare is not deterministic")

    conditions = None
    conditions_csv = ""
    if net.classes:
        conditions = np.array([one_hot(net.classes, int(f.startswith("box"))) for f in files])
        conditions_csv = work / "conditions.csv"
        write_lines(conditions_csv, conditions, ",".join(["%.1f"] * net.classes))

    def config(path, steps):
        write_lines(path, [
            ("bins", net.bins), ("features", net.features),
            ("encoder", ",".join(map(str, net.encoder))), ("head", ",".join(map(str, net.head))),
            ("context", net.context), ("condition_dim", net.classes), ("seed", seed),
            ("lr", 0.001), ("batch_size", spec.batch), ("steps", steps),
            ("checkpoint_interval", spec.checkpoint_interval), ("dataset", manifest),
            ("conditions", conditions_csv), ("out", work / "unused"),
        ], "%s = %s")
        return path

    call(["train", "--config", config(work / "warmup.cfg", 2), "--out", work / "warmup"])
    run_cfg = config(work / "run.cfg", spec.steps)
    logs: list[bytes] = []
    last_out: list[Path] = []
    coords_per_round = spec.steps * spec.batch * 3 * spec.points

    with Probe(Model, "train_step") as steps:
        def one_round(index):
            out = work / f"round{index}"
            before = len(steps.seconds)
            ok, wall, _ = call(["train", "--config", run_cfg, "--out", out])
            if not ok:
                run.failed += spec.steps
            logs.append((out / "loss.csv").read_bytes() if ok else b"")
            if last_out:
                shutil.rmtree(last_out.pop())  # keep only the newest round's checkpoints
            last_out.append(out)
            return wall, spec.steps, steps.seconds[before:], coords_per_round

        timed_rounds(run, seconds, min_rounds, one_round)
    run.peak_rss_mb = peak_rss_mb()

    run.problems += checks.check_loss_log(logs[0].decode(), spec.steps, net.bins)
    if any(log != logs[0] for log in logs):
        run.problems.append("rounds of the same training run wrote different loss logs")
    bits = evaluate_checkpoint(run, last_out[0] / "ckpt_final.pgrw", manifest, conditions_csv,
                               xyz_paths, net, conditions)
    if trace:
        per_layer(run, spec.setup_reps, len(files))
    else:
        end_to_end(run, setup_seconds, bits)
    return run.result()


# ---------------------------------------------------------------------------
# generation


def write_model(net: Net, seed: int, path) -> None:
    """A conditional checkpoint whose every parameter is seeded and non-zero.

    The model's own initialisation zeroes the biases and the last head
    layer, which would make every draw uniform; those are filled too.
    """
    model = Model(ModelConfig(
        bins=net.bins, feature_width=net.features, encoder_widths=net.encoder,
        head_widths=net.head, context=ContextOpKind(net.context), condition_dim=net.classes,
        seed=seed,
    ))
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        if not p.data.any():
            bound = math.sqrt(6.0 / sum(p.data.shape))
            p.data = rng.uniform(-bound, bound, p.data.shape)
    checkpoint.save_checkpoint(path, model, AdamState.for_params(model.params), 0)


def run_generate(spec: GenerateSpec, seed: int, seconds: float, trace: bool, work: Path,
                 min_rounds: int | None = None) -> dict:
    run = Run(trace)
    net = spec.net

    def write_models():
        walls = []
        for rep in range(spec.setup_reps):
            start = time.perf_counter()
            write_model(net, seed, work / f"model{rep}.pgrw")
            walls.append(time.perf_counter() - start)
        return walls

    setup_seconds, scale = run.phase(write_models, run.setup if trace else None)
    setup_seconds = [scale * wall for wall in setup_seconds]
    ckpt = work / "model0.pgrw"
    if any((work / f"model{rep}.pgrw").read_bytes() != ckpt.read_bytes()
           for rep in range(1, spec.setup_reps)):
        run.problems.append("checkpoint writes are not deterministic")

    out = work / "clouds"
    out.mkdir()
    cloud_seed = lambda i: 1000 * seed + i
    done: list[int] = []  # clouds whose command succeeded

    def generate(i, prefix):
        return call(["generate", "--checkpoint", ckpt, "--points", spec.points,
                     "--seed", cloud_seed(i), "--class", i % 2, "--classes", net.classes,
                     "--out", prefix])

    warm_ok = generate(0, out / "warmup")[0]  # same command as cloud 0
    pairs = 2  # a round draws one cloud of each class

    def one_round(index):
        walls = []
        for i in range(pairs * index, pairs * (index + 1)):
            ok, seconds_i, _ = generate(i, out / f"cloud{i}")
            walls.append(seconds_i)
            if ok:
                done.append(i)
            else:
                run.failed += 1
        return sum(walls), pairs, walls, pairs * 3 * spec.points

    if min_rounds is None:
        min_rounds = math.ceil(spec.eval_clouds / pairs)
    timed_rounds(run, seconds, min_rounds, one_round)
    run.peak_rss_mb = peak_rss_mb()

    header, params = oracle.read_checkpoint(ckpt)
    for i in done:
        cloud, problems = checks.check_generated(out / f"cloud{i}", spec.points, net.bins)
        run.problems += problems
        if cloud is not None:
            run.problems += checks.replay(header, params, cloud, cloud_seed(i),
                                          one_hot(net.classes, i % 2))
    if not (warm_ok and done and done[0] == 0):
        run.problems.append("no two clouds of one seed to compare")
    elif any((out / f"warmup{ext}").read_bytes() != (out / f"cloud0{ext}").read_bytes()
             for ext in (".xyz", ".ply")):
        run.problems.append(f"seed {cloud_seed(0)}: two runs wrote different files")

    files = [f"cloud{i}.xyz" for i in range(spec.eval_clouds)]
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps({"bins": net.bins, "files": files}), encoding="utf-8")
    conditions = np.array([one_hot(net.classes, i % 2) for i in range(spec.eval_clouds)])
    write_lines(out / "conditions.csv", conditions, ",".join(["%.1f"] * net.classes))
    bits = evaluate_checkpoint(run, ckpt, manifest, out / "conditions.csv",
                               [out / f for f in files], net, conditions)
    if trace:
        per_layer(run, spec.setup_reps, spec.eval_clouds)
    else:
        end_to_end(run, setup_seconds, bits)
    return run.result()


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path, **sizes) -> dict:
    """Run one workload; `sizes` overrides fields of its spec (for quick tests)."""
    spec = WORKLOADS[name]
    min_rounds = sizes.pop("min_rounds", None)
    spec = replace(spec, **sizes)
    if isinstance(spec, TrainSpec):
        return run_train(spec, seed, seconds, trace, work, min_rounds or 1)
    return run_generate(spec, seed, seconds, trace, work, min_rounds)
